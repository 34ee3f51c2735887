#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

namespace pkb::util {
namespace {

// Object member that must be present.
const Json& member(const Json& obj, std::string_view key) {
  const Json* p = obj.find(key);
  if (p == nullptr) throw JsonError("missing key: " + std::string(key));
  return *p;
}

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, ScalarConstructionAndDump) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegerValuedDoublesPrintWithoutDecimal) {
  EXPECT_EQ(Json(1e6).dump(), "1000000");
  EXPECT_EQ(Json(-42.0).dump(), "-42");
}

TEST(Json, ObjectInsertionOrderPreserved) {
  Json obj = Json::object();
  obj.set("z", 1).set("a", 2).set("m", 3);
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

TEST(Json, SetOverwritesExistingKey) {
  Json obj = Json::object();
  obj.set("k", 1);
  obj.set("k", 2);
  EXPECT_EQ(obj.as_object().size(), 1u);
  EXPECT_EQ(obj.dump(), "{\"k\":2}");
}

TEST(Json, ArrayPushBack) {
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  EXPECT_EQ(arr.dump(), "[1,\"two\",null]");
  ASSERT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.as_array()[1].as_string(), "two");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  Json s("str");
  EXPECT_THROW((void)s.as_array(), JsonError);
  EXPECT_THROW((void)s.as_object(), JsonError);
  EXPECT_THROW((void)Json(1.0).as_string(), JsonError);
  EXPECT_THROW((void)Json(true).as_string(), JsonError);
  EXPECT_THROW((void)Json().find("k"), JsonError);
  EXPECT_THROW(Json::array().set("k", 1), JsonError);
  EXPECT_THROW(Json::object().push_back(1), JsonError);
}

TEST(Json, FindReturnsNullForMissingKey) {
  Json obj = Json::object();
  obj.set("present", 1);
  EXPECT_EQ(obj.find("absent"), nullptr);
  ASSERT_NE(obj.find("present"), nullptr);
  EXPECT_EQ(obj.find("present")->dump(), "1");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").type(), Json::Type::Bool);
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").type(), Json::Type::Bool);
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("-2.5e2").type(), Json::Type::Number);
  EXPECT_EQ(Json::parse("-2.5e2").dump(), "-250");
  EXPECT_EQ(Json::parse("0.125").dump(), "0.125");
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a":[1,{"b":"x"},null],"c":{"d":true}})");
  const Json::Array& a = member(j, "a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].type(), Json::Type::Number);
  EXPECT_EQ(member(a[1], "b").as_string(), "x");
  EXPECT_TRUE(a[2].is_null());
  const Json& d = member(member(j, "c"), "d");
  EXPECT_EQ(d.type(), Json::Type::Bool);
  EXPECT_EQ(d.dump(), "true");
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json j = Json::parse("  {\n\t\"k\" :  [ 1 , 2 ]\r\n}  ");
  EXPECT_EQ(member(j, "k").as_array().size(), 2u);
  EXPECT_EQ(j.dump(), "{\"k\":[1,2]}");
}

TEST(Json, ParseStringEscapes) {
  const Json j = Json::parse(R"("line\nbreak\t\"q\" \\ \/ A")");
  EXPECT_EQ(j.as_string(), "line\nbreak\t\"q\" \\ / A");
}

TEST(Json, ParseUnicodeEscapeToUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // e-acute
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // euro
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  // Literal UTF-8 bytes pass through untouched.
  EXPECT_EQ(Json::parse("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("{'single':1}"), JsonError);
}

// The parser recurses once per nesting level: past kJsonMaxDepth it must
// throw, not run off the stack (a model response can nest arbitrarily).
TEST(Json, ParseRejectsNestingDeeperThanTheBound) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const Json deepest = Json::parse(nested(kJsonMaxDepth));
  EXPECT_EQ(deepest.dump(), nested(kJsonMaxDepth));
  EXPECT_THROW(Json::parse(nested(kJsonMaxDepth + 1)), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":" + nested(kJsonMaxDepth) + "}"),
               JsonError);
  EXPECT_THROW(Json::parse(nested(100000)), JsonError);
  EXPECT_THROW(Json::parse("{\"answer\":" + std::string(100000, '[')),
               JsonError);
}

TEST(Json, RoundTripCompact) {
  const std::string src =
      R"({"q":"What does KSPBurb do?","score":4,"tags":["rag","rerank"],"ok":true,"note":null})";
  const Json j = Json::parse(src);
  EXPECT_EQ(j.dump(), src);
  EXPECT_EQ(Json::parse(j.dump()).dump(), src);
}

TEST(Json, RoundTripPretty) {
  Json obj = Json::object();
  obj.set("arr", Json::array());
  Json arr = Json::array();
  arr.push_back(1).push_back(2);
  obj.set("arr", std::move(arr));
  obj.set("nested", Json::object().set("k", "v"));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), obj.dump());
  EXPECT_EQ(obj.dump(), R"({"arr":[1,2],"nested":{"k":"v"}})");
}

TEST(Json, EscapeControlCharacters) {
  Json j(std::string("a\x01z"));
  EXPECT_EQ(j.dump(), "\"a\\u0001z\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), "a\x01z");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
}

TEST(Json, NanSerializesAsNull) {
  const Json j(std::nan(""));
  EXPECT_EQ(j.dump(), "null");
}

}  // namespace
}  // namespace pkb::util
