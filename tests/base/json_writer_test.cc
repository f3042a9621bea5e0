// JsonWriter: escaping round-trips through the report parser, number
// formatting (%.17g, non-finite -> null), block/inline layout, and the
// STRIP_CHECK on misuse.

#include "base/json_writer.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/report/json.h"

namespace strip::base {
namespace {

using Layout = JsonWriter::Layout;

obs::report::JsonValue Parse(const std::string& text) {
  std::string error;
  const auto value = obs::report::ParseJson(text, &error);
  EXPECT_TRUE(value.has_value()) << error << " in: " << text;
  return value.value_or(obs::report::JsonValue{});
}

TEST(JsonWriterTest, EveryAsciiByteAndUtf8RoundTripsAsStringAndKey) {
  std::string text;
  for (int c = 0x01; c <= 0x7f; ++c) text.push_back(static_cast<char>(c));
  text += "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x93\x88";
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject().Key(text).String(text).EndObject();
  const obs::report::JsonValue doc = Parse(out.str());
  ASSERT_EQ(doc.members.size(), 1u);
  EXPECT_EQ(doc.members[0].first, text);
  EXPECT_EQ(doc.members[0].second.string_value, text);
}

TEST(JsonWriterTest, EscapesQuoteBackslashAndControlBytes) {
  std::ostringstream out;
  JsonWriter(out).String("a\"b\\c\nd\te\x01\x1f\x7f");
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001f\x7f\"");
}

std::string NumberText(double v) {
  std::ostringstream out;
  JsonWriter(out).Number(v);
  return out.str();
}

TEST(JsonWriterTest, DoublesUseSeventeenDigitsAndNonFiniteIsNull) {
  EXPECT_EQ(NumberText(0.0), "0");
  EXPECT_EQ(NumberText(-0.0), "-0");
  EXPECT_EQ(NumberText(0.1), "0.10000000000000001");
  EXPECT_EQ(NumberText(1e308), "1e+308");
  EXPECT_EQ(NumberText(std::numeric_limits<double>::denorm_min()),
            "4.9406564584124654e-324");
  EXPECT_EQ(NumberText(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(NumberText(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(NumberText(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
}

TEST(JsonWriterTest, FiniteDoublesRoundTripExactly) {
  for (const double v : {-0.0, 0.1, 1e308, -1e308,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min()}) {
    const obs::report::JsonValue parsed = Parse(NumberText(v));
    ASSERT_TRUE(parsed.is_number()) << v;
    EXPECT_EQ(parsed.number_value, v);
    EXPECT_EQ(std::signbit(parsed.number_value), std::signbit(v));
  }
}

TEST(JsonWriterTest, IntegersPrintInDecimal) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginArray(Layout::kInline)
      .Number(std::numeric_limits<std::uint64_t>::max())
      .Number(std::numeric_limits<std::int64_t>::min())
      .Number(-7)
      .Number(std::size_t{0})
      .Number(std::optional<double>())
      .Number(std::optional<double>(0.5))
      .Bool(true)
      .Bool(false)
      .Null()
      .EndArray();
  EXPECT_EQ(out.str(),
            "[18446744073709551615, -9223372036854775808, -7, 0, null, 0.5, "
            "true, false, null]");
}

TEST(JsonWriterTest, BlockAndInlineNesting) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("a").Number(1);
  json.Key("block").BeginArray();
  json.BeginObject(Layout::kInline).Key("x").Number(1).Key("y").String("z");
  json.EndObject();
  json.BeginObject().Key("deep").BeginArray(Layout::kInline).Number(1);
  json.Number(2).EndArray().EndObject();
  json.EndArray();
  json.Key("inline").BeginObject(Layout::kInline).Key("list");
  json.BeginArray().Number(3).EndArray().EndObject();
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"block\": [\n"
            "    {\"x\": 1, \"y\": \"z\"},\n"
            "    {\n"
            "      \"deep\": [1, 2]\n"
            "    }\n"
            "  ],\n"
            "  \"inline\": {\"list\": [\n"
            "    3\n"
            "  ]}\n"
            "}");
  Parse(out.str());
}

TEST(JsonWriterTest, EmptyContainersPrintBrackets) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("block_array").BeginArray().EndArray();
  json.Key("block_object").BeginObject().EndObject();
  json.Key("inline_array").BeginArray(Layout::kInline).EndArray();
  json.Key("inline_object").BeginObject(Layout::kInline).EndObject();
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"block_array\": [],\n"
            "  \"block_object\": {},\n"
            "  \"inline_array\": [],\n"
            "  \"inline_object\": {}\n"
            "}");
}

TEST(JsonWriterTest, StartingDepthIndentsAnEmbeddedFragment) {
  std::ostringstream out;
  JsonWriter json(out, 2);
  json.BeginObject().Key("k").Number(1).EndObject();
  EXPECT_EQ(out.str(), "{\n      \"k\": 1\n    }");
}

TEST(JsonWriterDeathTest, KeyOutsideAnObjectDies) {
  std::ostringstream out;
  EXPECT_DEATH(JsonWriter(out).Key("k"), "JSON key outside an object");
  EXPECT_DEATH(JsonWriter(out).BeginArray().Key("k"),
               "JSON key outside an object");
}

TEST(JsonWriterDeathTest, ObjectMemberWithoutKeyDies) {
  std::ostringstream out;
  EXPECT_DEATH(JsonWriter(out).BeginObject().Number(1),
               "JSON object member without a key");
}

TEST(JsonWriterDeathTest, UnbalancedEndDies) {
  std::ostringstream out;
  EXPECT_DEATH(JsonWriter(out).EndObject(), "unbalanced JSON End");
  EXPECT_DEATH(JsonWriter(out).BeginObject().EndArray(),
               "unbalanced JSON End");
  EXPECT_DEATH(JsonWriter(out).BeginArray().EndObject(),
               "unbalanced JSON End");
  EXPECT_DEATH(JsonWriter(out).BeginArray().EndArray().EndArray(),
               "unbalanced JSON End");
}

TEST(JsonWriterDeathTest, KeyWithoutAValueDies) {
  std::ostringstream out;
  EXPECT_DEATH(JsonWriter(out).BeginObject().Key("k").EndObject(),
               "JSON key without a value");
  EXPECT_DEATH(JsonWriter(out).BeginObject().Key("k").Key("j"),
               "JSON key without a value");
}

}  // namespace
}  // namespace strip::base
