// Tests for the minimal JSON value type: parse/serialize round trips,
// deterministic (insertion-ordered, byte-stable) output, and the error
// positions the grid loader relies on for usable messages.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "common/error.hpp"

namespace hpas {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(Json::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, NestedContainers) {
  const Json v = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(a[2].find("b")->as_bool());
  EXPECT_EQ(v.string_or("c", ""), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ConfigError);
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ConfigError);
  EXPECT_THROW(Json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW(Json::parse("nul"), ConfigError);
  EXPECT_THROW(Json::parse("1 2"), ConfigError);  // trailing garbage
}

TEST(JsonParse, ErrorsCarryPosition) {
  try {
    Json::parse("{\n  \"a\": !\n}");
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(JsonDump, ObjectMembersKeepInsertionOrder) {
  Json v = Json::object();
  v.set("zebra", 1);
  v.set("alpha", 2);
  v.set("middle", 3);
  EXPECT_EQ(v.dump(), R"({"zebra":1,"alpha":2,"middle":3})");
  v.set("alpha", 9);  // replace keeps the original position
  EXPECT_EQ(v.dump(), R"({"zebra":1,"alpha":9,"middle":3})");
}

TEST(JsonDump, NumbersAreByteStable) {
  // Integers print without a decimal point; non-integers use the
  // shortest round-trip form. This rule is shared with the CSV writer.
  EXPECT_EQ(json_number_to_string(0.0), "0");
  EXPECT_EQ(json_number_to_string(-3.0), "-3");
  EXPECT_EQ(json_number_to_string(0.5), "0.5");
  EXPECT_EQ(json_number_to_string(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number_to_string(1e21), "1e+21");
  // Round trip: parse(dump(x)) == x bit-for-bit.
  const double tricky = 0.1 + 0.2;
  EXPECT_EQ(Json::parse(json_number_to_string(tricky)).as_number(), tricky);
}

TEST(JsonDump, RoundTripsThroughParse) {
  const std::string text =
      R"({"name":"grid","n":3,"xs":[0.5,1,2.25],"flag":true,"none":null})";
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(JsonDump, PrettyPrintIsStable) {
  Json v = Json::object();
  v.set("a", 1);
  Json arr = Json::array();
  arr.push_back(2);
  v.set("b", std::move(arr));
  EXPECT_EQ(v.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
}

TEST(JsonDump, EscapesControlCharacters) {
  EXPECT_EQ(Json(std::string("a\tb\x01 c")).dump(), R"("a\tb\u0001 c")");
}

// Reference escaper, one character at a time: dump(), which copies runs
// of safe bytes in bulk, must agree with it byte for byte.
std::string reference_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out += '"';
  return out;
}

TEST(JsonDump, EscapingMatchesPerCharReference) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string alone(1, c);
    const std::string framed{'a', c, c, 'z'};
    EXPECT_EQ(Json(alone).dump(), reference_escape(alone)) << "byte " << b;
    EXPECT_EQ(Json(framed).dump(), reference_escape(framed)) << "byte " << b;
  }
  std::mt19937_64 rng(16);
  for (int n = 0; n < 2000; ++n) {
    std::string s(rng() % 80, '\0');
    // One byte in four is drawn from the escaped range (< 0x24 covers the
    // control characters and '"'); the rest are arbitrary.
    for (char& c : s)
      c = static_cast<char>(rng() % 4 == 0 ? rng() % 0x24 : rng() % 256);
    if (n % 7 == 0) s += '\\';
    EXPECT_EQ(Json(s).dump(), reference_escape(s));
    Json object = Json::object();
    object.set(s, 1);  // keys take the same path
    EXPECT_EQ(object.dump(),
              std::string("{").append(reference_escape(s)).append(":1}"));
  }
}

TEST(JsonAccessors, ThrowOnTypeMismatch) {
  const Json v = Json::parse(R"({"n": 1})");
  EXPECT_THROW(v.find("n")->as_string(), ConfigError);
  EXPECT_THROW(v.as_array(), ConfigError);
  EXPECT_THROW(v.string_or("n", "x"), ConfigError);  // exists, wrong type
}

}  // namespace
}  // namespace hpas
