#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"

namespace wavepim {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const auto doc = json::parse(
      R"({"traceEvents":[{"name":"pim.step","ts":1.5},{"name":"dg.step"}],)"
      R"("n":3})");
  ASSERT_TRUE(doc.is_object());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 2u);
  EXPECT_EQ(events->as_array()[0].find("name")->as_string(), "pim.step");
  EXPECT_DOUBLE_EQ(events->as_array()[0].find("ts")->as_number(), 1.5);
  EXPECT_EQ(events->as_array()[1].find("ts"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number(), 3.0);
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  // \u0041 = 'A'; surrogate pair U+1F600 encodes to 4 UTF-8 bytes.
  EXPECT_EQ(json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(json::parse(R"("\uD83D\uDE00")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, SkipsWhitespaceEverywhere) {
  const auto doc = json::parse("  { \"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(doc.find("a")->as_array().size(), 2u);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(json::parse("[]").as_array().empty());
  EXPECT_TRUE(json::parse("{}").as_object().empty());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)json::parse(""), Error);
  EXPECT_THROW((void)json::parse("{"), Error);
  EXPECT_THROW((void)json::parse("[1,]"), Error);
  EXPECT_THROW((void)json::parse("{\"a\":}"), Error);
  EXPECT_THROW((void)json::parse("\"unterminated"), Error);
  EXPECT_THROW((void)json::parse("1 2"), Error);  // trailing junk
  EXPECT_THROW((void)json::parse("nul"), Error);
  EXPECT_THROW((void)json::parse("\"\\q\""), Error);  // bad escape
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)json::parse(deep), Error);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const auto doc = json::parse("[1]");
  EXPECT_THROW((void)doc.as_object(), Error);
  EXPECT_THROW((void)doc.as_number(), Error);
  EXPECT_EQ(doc.find("x"), nullptr);  // find on a non-object is nullptr
}

TEST(JsonDump, ScalarsAndContainers) {
  EXPECT_EQ(json::dump(json::Value::make_null()), "null");
  EXPECT_EQ(json::dump(json::Value::make_bool(true)), "true");
  EXPECT_EQ(json::dump(json::Value::make_string("hi")), "\"hi\"");
  EXPECT_EQ(json::dump(json::Value::make_array({})), "[]");
  EXPECT_EQ(json::dump(json::Value::make_object({})), "{}");
  EXPECT_EQ(json::dump(json::parse(R"({"a":[1,2],"b":false})")),
            R"({"a":[1,2],"b":false})");
}

TEST(JsonDump, NumbersIntegralAndRoundTrip) {
  EXPECT_EQ(json::dump(json::Value::make_number(42.0)), "42");
  EXPECT_EQ(json::dump(json::Value::make_number(-3.0)), "-3");
  EXPECT_EQ(json::dump(json::Value::make_number(0.0)), "0");
  // Beyond 2^53 an integral double is not exactly representable — keep
  // the %.17g form rather than pretending to integer precision.
  EXPECT_NE(json::dump(json::Value::make_number(1e17)).find('e'),
            std::string::npos);
  // Non-integral values round-trip bit-exactly through parse.
  const double pi = 3.141592653589793;
  const auto text = json::dump(json::Value::make_number(pi));
  EXPECT_EQ(json::parse(text).as_number(), pi);
}

TEST(JsonDump, RefusesNonFiniteNumbers) {
  const std::pair<double, const char*> cases[] = {
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
  };
  for (const auto& [value, name] : cases) {
    // Also nested: a report's metric sits inside objects and arrays.
    const auto doc = json::Value::make_object(
        {{"m", json::Value::make_array({json::Value::make_number(value)})}});
    try {
      (void)json::dump(doc);
      ADD_FAILURE() << name << " was dumped";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("number ") + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonDump, ExtremeFiniteNumbersRoundTrip) {
  const auto round_trip = [](double value) {
    return json::parse(json::dump(json::Value::make_number(value)))
        .as_number();
  };
  for (const double value :
       {std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(round_trip(value)),
              std::bit_cast<std::uint64_t>(value))
        << value;
  }
  // -0.0 is integral, so it prints as the integer 0 and reads back equal.
  EXPECT_EQ(json::dump(json::Value::make_number(-0.0)), "0");
  EXPECT_EQ(round_trip(-0.0), -0.0);
}

TEST(JsonDump, EscapesStrings) {
  EXPECT_EQ(json::dump(json::Value::make_string("a\"b\\c\nd")),
            R"("a\"b\\c\nd")");
  // Control characters below 0x20 must be \uXXXX-escaped.
  EXPECT_EQ(json::dump(json::Value::make_string(std::string(1, '\x01'))),
            "\"\\u0001\"");
}

TEST(JsonDump, PreservesObjectInsertionOrder) {
  const auto doc = json::Value::make_object({
      {"z", json::Value::make_number(1)},
      {"a", json::Value::make_number(2)},
  });
  EXPECT_EQ(json::dump(doc), R"({"z":1,"a":2})");
}

TEST(JsonDump, IndentedOutputReparses) {
  const auto doc = json::parse(R"({"cells":[{"id":"x","m":{"t":0.5}}]})");
  const auto pretty = json::dump(doc, 1);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  // Pretty-printing is cosmetic only: reparse + compact dump is stable.
  EXPECT_EQ(json::dump(json::parse(pretty)), json::dump(doc));
}

TEST(JsonDump, DumpParseIsAFixedPoint) {
  const char* text =
      R"({"schema":"wavepim-paper-eval/1","cells":[)"
      R"({"id":"a","metrics":{"t":0.0001220703125,"n":131072}}],"claims":[]})";
  const auto once = json::dump(json::parse(text));
  EXPECT_EQ(json::dump(json::parse(once)), once);
}

}  // namespace
}  // namespace wavepim
