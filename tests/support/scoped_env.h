#pragma once

// Test helper: an environment override that is undone when the scope
// ends, also when an assertion or an exception leaves it early, so a
// switch a test flips never leaks into the tests that run after it.

#include <cstdlib>
#include <optional>
#include <string>

namespace wavepim {

/// Sets (or, for a null value, unsets) an environment variable for the
/// scope's lifetime, then restores whatever was there before.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace wavepim
