#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wavepim::json {

/// Minimal JSON document model: just enough for the repo's tooling (the
/// trace checker and the bench-baseline comparer) to consume the Chrome
/// trace and google-benchmark reports without an external dependency.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw PreconditionError on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& as_object()
      const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Parses a complete JSON document (trailing non-whitespace is an error).
/// Throws wavepim::Error with a byte offset on malformed input. Supports
/// the full grammar incl. \uXXXX escapes (surrogate pairs combined).
[[nodiscard]] Value parse(std::string_view text);

/// Serialises a document. Deterministic by construction: objects keep
/// their insertion order, numbers print as integers when exactly
/// integral (within the 2^53-safe range) and as shortest-round-trip
/// doubles otherwise — the paper-eval baseline diff depends on
/// serialise(parse(x)) being stable across runs. `indent` > 0 pretty-
/// prints with that many spaces per level; 0 emits one line. Throws
/// wavepim::Error, naming the value, on a NaN or infinite number, which
/// JSON cannot hold.
[[nodiscard]] std::string dump(const Value& value, int indent = 0);

}  // namespace wavepim::json
