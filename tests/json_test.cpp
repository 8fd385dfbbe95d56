// Tests for the shared JSON layer (ccov/util/json.hpp). The writer's
// byte behaviour is part of the serve wire contract — response lines
// must stay byte-identical across transports and releases — so these
// are golden tests on exact output bytes, plus reader coverage for the
// protocol subset (integers only, strict trailing-garbage detection).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ccov/util/json.hpp"

namespace json = ccov::util::json;

namespace {

json::Value parse_ok(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::Reader(text).parse(&v, &error)) << text << ": " << error;
  return v;
}

std::string parse_err(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::Reader(text).parse(&v, &error)) << text;
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

TEST(Json, ReadsScalars) {
  EXPECT_EQ(parse_ok("null").type, json::Value::Type::kNull);
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_EQ(parse_ok("42").integer, 42);
  EXPECT_EQ(parse_ok("-17").integer, -17);
  EXPECT_EQ(parse_ok("0").integer, 0);
  EXPECT_EQ(parse_ok("\"hi\"").string, "hi");
}

TEST(Json, ReadsObjectsPreservingKeyOrder) {
  const json::Value v = parse_ok(R"({"b":1,"a":{"nested":[1,2,3]},"c":"x"})");
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "b");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "c");
  const json::Value& nested = v.object[1].second;
  ASSERT_EQ(nested.type, json::Value::Type::kObject);
  ASSERT_EQ(nested.object[0].second.array.size(), 3u);
  EXPECT_EQ(nested.object[0].second.array[2].integer, 3);
}

TEST(Json, ReadsStringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t\r")").string, "a\"b\\c/d\n\t\r");
  EXPECT_EQ(parse_ok(R"("x\b\f")").string, "x\b\f");
  // \uXXXX is not part of the protocol subset.
  const std::string error = parse_err("\"\\u0041\"");
  EXPECT_NE(error.find("unsupported escape"), std::string::npos) << error;
}

TEST(Json, RejectsTheDocumentedErrorCases) {
  parse_err("");
  parse_err("not json");
  parse_err("{");
  parse_err(R"({"a":})");
  parse_err(R"({"a" 1})");
  parse_err("[1,2");
  parse_err("\"unterminated");
  parse_err("tru");
  // Trailing garbage after a complete document is an error, not ignored.
  parse_err(R"({"a":1} trailing)");
  parse_err("1 2");
}

TEST(Json, BoundsNestingDepth) {
  // Exactly at the limit parses...
  std::string at_limit(json::Reader::kMaxDepth, '[');
  at_limit += "1";
  at_limit.append(json::Reader::kMaxDepth, ']');
  EXPECT_EQ(parse_ok(at_limit).type, json::Value::Type::kArray);
  // ...one deeper is a clean error, never a stack overflow. The fuzz
  // corpus pins the original crasher (100k of '[') in
  // tests/fuzz_corpus/json/crash-deep-nesting.
  const std::string error =
      parse_err(std::string(json::Reader::kMaxDepth + 1, '[') + "1");
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  parse_err(std::string(100000, '['));
  // Mixed object/array nesting counts against the same budget.
  std::string mixed;
  for (int i = 0; i < json::Reader::kMaxDepth; ++i) mixed += R"({"k":[)";
  parse_err(mixed);
}

TEST(Json, RejectsNonIntegerNumbers) {
  const std::string error = parse_err("1.5");
  EXPECT_NE(error.find("non-integer"), std::string::npos) << error;
  parse_err("1e3");
  parse_err("-0.25");
}

// ---------------------------------------------------------------------------
// Writer goldens — these bytes are the wire contract
// ---------------------------------------------------------------------------

TEST(Json, WriterRendersFlatObjectsByteExactly) {
  json::JsonWriter w;
  w.begin_object()
      .key("id").value(std::uint64_t{7})
      .key("ok").value(true)
      .key("algo").value_string("solve")
      .key("n").value(9)
      .end_object();
  EXPECT_EQ(w.str(), R"({"id":7,"ok":true,"algo":"solve","n":9})");
}

TEST(Json, WriterRendersNestedArraysByteExactly) {
  json::JsonWriter w;
  w.begin_object().key("cover").begin_array();
  w.begin_array().value(0).value(1).value(4).end_array();
  w.begin_array().value(2).value(3).end_array();
  w.end_array().key("found").value(false).end_object();
  EXPECT_EQ(w.str(), R"({"cover":[[0,1,4],[2,3]],"found":false})");
}

TEST(Json, WriterEscapesStringsLikeTheProtocol) {
  json::JsonWriter w;
  w.begin_object().key("error").value_string("bad \"op\"\n\tat line\x01\\")
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"error\":\"bad \\\"op\\\"\\n\\tat line\\u0001\\\\\"}");
  EXPECT_EQ(json::escaped("x"), "\"x\"");
  std::string out;
  json::append_escaped(&out, "a\rb");
  EXPECT_EQ(out, "\"a\\rb\"");
}

TEST(Json, WriterEmitsEmptyContainers) {
  json::JsonWriter w;
  w.begin_object()
      .key("empty_obj").begin_object().end_object()
      .key("empty_arr").begin_array().end_array()
      .end_object();
  EXPECT_EQ(w.str(), R"({"empty_obj":{},"empty_arr":[]})");
}

TEST(Json, WriterHandlesIntegerExtremes) {
  json::JsonWriter w;
  w.begin_array()
      .value(std::int64_t{-9223372036854775807LL - 1})
      .value(std::uint64_t{18446744073709551615ULL})
      .end_array();
  EXPECT_EQ(w.str(), "[-9223372036854775808,18446744073709551615]");
}

TEST(Json, WriterRoundTripsThroughTheReader) {
  json::JsonWriter w;
  w.begin_object()
      .key("op").value_string("stats")
      .key("hits").value(std::uint64_t{12})
      .key("tags").begin_array().value_string("a").value_string("b")
      .end_array()
      .end_object();
  const json::Value v = parse_ok(w.str());
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].second.string, "stats");
  EXPECT_EQ(v.object[1].second.integer, 12);
  EXPECT_EQ(v.object[2].second.array[1].string, "b");
}
