#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "oo7/generator.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/random.h"

namespace odbgc {
namespace {

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter w;
  w.BeginObject();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{}");
}

TEST(JsonWriterTest, ScalarsAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("i");
  w.Value(uint64_t{42});
  w.Key("n");
  w.Value(int64_t{-7});
  w.Key("d");
  w.Value(1.5);
  w.Key("b");
  w.Value(true);
  w.Key("s");
  w.Value("hi");
  w.Key("z");
  w.Null();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"i\":42,\"n\":-7,\"d\":1.5,\"b\":true,\"s\":\"hi\","
            "\"z\":null}");
}

TEST(JsonWriterTest, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.Value(uint64_t{1});
  w.BeginObject();
  w.Key("x");
  w.Value(uint64_t{2});
  w.EndObject();
  w.BeginArray();
  w.Value(uint64_t{3});
  w.Value(uint64_t{4});
  w.EndArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\"a\":[1,{\"x\":2},[3,4]]}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

std::string WriteDouble(double d) {
  JsonWriter w;
  w.Value(d);
  return w.TakeString();
}

std::string PrintfG10(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", d);
  return buf;
}

// Value(double) must print exactly what "%.10g" prints: every export's
// bytes (reports, ledgers, time series, traces) depend on it.
TEST(JsonWriterTest, DoublesMatchPrintfG10) {
  std::vector<double> cases = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.5, 1e-5, 123456789.0, 1234567890.0,
      12345678901.0, 9999999999.0, 99999999995.0, 0.00012345678915,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::epsilon()};
  // Around every power of ten in range, where the %g notation switches
  // and rounding carries into a new digit.
  for (int e = -310; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    if (p == 0.0 || !std::isfinite(p)) continue;
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL),
                     p * (1 - 5e-11), p * (1 + 5e-11), p * 9.9999999995}) {
      cases.push_back(v);
      cases.push_back(-v);
    }
  }
  // Random bit patterns: every exponent, subnormals included.
  Rng rng(0x6a50);
  for (int i = 0; i < 100000; ++i) {
    cases.push_back(std::bit_cast<double>(rng.Next()));
  }
  size_t compared = 0;
  for (const double d : cases) {
    if (!std::isfinite(d)) {
      EXPECT_EQ(WriteDouble(d), "null");
      continue;
    }
    ASSERT_EQ(WriteDouble(d), PrintfG10(d))
        << "bits 0x" << std::hex << std::bit_cast<uint64_t>(d);
    ++compared;
  }
  EXPECT_GT(compared, 100000u);
}

TEST(JsonWriterTest, IntegersMatchToString) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{9}, uint64_t{10},
        uint64_t{4294967295u}, uint64_t{4294967296u},
        std::numeric_limits<uint64_t>::max() - 1,
        std::numeric_limits<uint64_t>::max()}) {
    JsonWriter w;
    w.Value(v);
    EXPECT_EQ(w.TakeString(), std::to_string(v));
  }
  for (const int64_t v :
       {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-10},
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::min() + 1,
        std::numeric_limits<int64_t>::max()}) {
    JsonWriter w;
    w.Value(v);
    EXPECT_EQ(w.TakeString(), std::to_string(v));
  }
}

// Key and Value escape in place; the bytes must match Escape().
TEST(JsonWriterTest, KeysAndStringsEscapeLikeEscape) {
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte += static_cast<char>(c);
  for (const std::string& s :
       {std::string(""), std::string("plain"), std::string("q\"uo\"te"),
        std::string("back\\slash\\"), std::string("\n\r\t\b\f\x1f\x7f"),
        std::string("nul\0inside", 10), every_byte}) {
    JsonWriter w;
    w.BeginObject();
    w.Key(s);
    w.Value(s);
    w.EndObject();
    const std::string e = JsonWriter::Escape(s);
    EXPECT_EQ(w.TakeString(), "{\"" + e + "\":\"" + e + "\"}");
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(0.0 / 0.0);
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[null]");
}

TEST(JsonWriterDeathTest, ValueWithoutKeyAborts) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Value(uint64_t{1});
      },
      "");
}

TEST(JsonWriterDeathTest, UnbalancedDocumentAborts) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        (void)w.TakeString();
      },
      "");
}

TEST(SimResultJsonTest, RoundTripsThroughRealParserShape) {
  Oo7Generator gen(Oo7Params::Tiny(), 5);
  Trace trace = gen.GenerateFullApplication();
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = PolicyKind::kSaga;
  cfg.saga.bootstrap_overwrites = 100;
  SimResult r = RunSimulation(cfg, trace);

  std::string json = SimResultToJson(r);
  // Structural sanity: balanced braces/brackets, key presence.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"collections\":"), std::string::npos);
  EXPECT_NE(json.find("\"garbage_pct\":"), std::string::npos);
  EXPECT_NE(json.find("\"phases\":"), std::string::npos);
  EXPECT_NE(json.find("\"collection_log\":"), std::string::npos);
  EXPECT_NE(json.find("\"GenDB\""), std::string::npos);

  // Excluding the log shrinks the document.
  std::string summary = SimResultToJson(r, /*include_collection_log=*/false);
  EXPECT_LT(summary.size(), json.size());
  EXPECT_EQ(summary.find("\"collection_log\""), std::string::npos);
}

TEST(JsonParserTest, ParsesScalarsArraysAndObjects) {
  JsonValue v;
  std::string error;

  ASSERT_TRUE(JsonValue::Parse("null", &v, &error));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(JsonValue::Parse("true", &v, &error));
  EXPECT_TRUE(v.bool_value());
  ASSERT_TRUE(JsonValue::Parse("-12.5e2", &v, &error));
  EXPECT_EQ(v.number_value(), -1250.0);
  ASSERT_TRUE(JsonValue::Parse("\"a\\n\\\"b\\\"\\u0041\"", &v, &error));
  EXPECT_EQ(v.string_value(), "a\n\"b\"A");

  ASSERT_TRUE(JsonValue::Parse("[1, [2, 3], {\"k\": 4}]", &v, &error));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array_items().size(), 3u);
  EXPECT_EQ(v.array_items()[0].number_value(), 1.0);
  EXPECT_EQ(v.array_items()[1].array_items()[1].number_value(), 3.0);
  EXPECT_EQ(v.array_items()[2].Find("k")->number_value(), 4.0);

  ASSERT_TRUE(JsonValue::Parse(
      " { \"a\" : 1 , \"b\" : [ ] , \"c\" : { } } ", &v, &error));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object_members().size(), 3u);
  EXPECT_TRUE(v.Has("a"));
  EXPECT_FALSE(v.Has("z"));
  EXPECT_TRUE(v.Find("b")->is_array());
}

TEST(JsonParserTest, RejectsMalformedInputWithOffset) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("{", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("[1,]", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("tru", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("1 2", &v, &error));  // trailing junk
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonParserTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.Value(std::string("tricky \"\\\n\t chars"));
  w.Key("n");
  w.Value(uint64_t{1234567});
  w.Key("d");
  w.Value(0.125);
  w.Key("flag");
  w.Value(true);
  w.Key("nothing");
  w.Null();
  w.Key("arr");
  w.BeginArray();
  w.Value(int64_t{-5});
  w.EndArray();
  w.EndObject();

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(w.TakeString(), &v, &error)) << error;
  EXPECT_EQ(v.Find("s")->string_value(), "tricky \"\\\n\t chars");
  EXPECT_EQ(v.Find("n")->number_value(), 1234567.0);
  EXPECT_EQ(v.Find("d")->number_value(), 0.125);
  EXPECT_TRUE(v.Find("flag")->bool_value());
  EXPECT_TRUE(v.Find("nothing")->is_null());
  EXPECT_EQ(v.Find("arr")->array_items()[0].number_value(), -5.0);
}

TEST(JsonParserTest, DepthLimitStopsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &v, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(SimResultJsonTest, WriteToFile) {
  SimResult r;
  std::string path = testing::TempDir() + "/report.json";
  ASSERT_TRUE(WriteResultJson(r, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4];
  ASSERT_EQ(std::fread(buf, 1, 1, f), 1u);
  EXPECT_EQ(buf[0], '{');
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace odbgc
