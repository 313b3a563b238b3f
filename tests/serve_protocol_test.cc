#include "serve/protocol.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "serve/query_engine.h"

namespace sarn::serve {
namespace {

constexpr int kDefaultK = 10;

ParsedLine Parse(const std::string& line) { return ParseRequestLine(line, kDefaultK); }

TEST(ServeProtocolTest, ParsesByIdWithDefaults) {
  ParsedLine parsed = Parse(R"({"id":12})");
  ASSERT_EQ(parsed.op, ParsedLine::Op::kQuery);  // "op" defaults to query.
  EXPECT_EQ(parsed.request.kind, ServeRequest::Kind::kById);
  EXPECT_EQ(parsed.request.id, 12);
  EXPECT_EQ(parsed.request.k, kDefaultK);
}

TEST(ServeProtocolTest, ParsesExplicitQueryWithK) {
  ParsedLine parsed = Parse(R"({"op":"query","id":0,"k":3})");
  ASSERT_EQ(parsed.op, ParsedLine::Op::kQuery);
  EXPECT_EQ(parsed.request.id, 0);
  EXPECT_EQ(parsed.request.k, 3);
}

TEST(ServeProtocolTest, ParsesVector) {
  ParsedLine parsed = Parse(R"({"vector":[1.5,-2,3e-1],"k":2})");
  ASSERT_EQ(parsed.op, ParsedLine::Op::kQuery);
  EXPECT_EQ(parsed.request.kind, ServeRequest::Kind::kByVector);
  ASSERT_EQ(parsed.request.vector.size(), 3u);
  EXPECT_FLOAT_EQ(parsed.request.vector[0], 1.5f);
  EXPECT_FLOAT_EQ(parsed.request.vector[1], -2.0f);
  EXPECT_FLOAT_EQ(parsed.request.vector[2], 0.3f);
}

TEST(ServeProtocolTest, ParsesLatLngAndLonAlias) {
  for (const char* line : {R"({"lat":30.65,"lng":104.06})",
                           R"({"lat":30.65,"lon":104.06})"}) {
    ParsedLine parsed = Parse(line);
    ASSERT_EQ(parsed.op, ParsedLine::Op::kQuery) << line;
    EXPECT_EQ(parsed.request.kind, ServeRequest::Kind::kByPoint);
    EXPECT_DOUBLE_EQ(parsed.request.point.lat, 30.65);
    EXPECT_DOUBLE_EQ(parsed.request.point.lng, 104.06);
  }
}

TEST(ServeProtocolTest, ParsesStatsAndReload) {
  EXPECT_EQ(Parse(R"({"op":"stats"})").op, ParsedLine::Op::kStats);
  EXPECT_EQ(Parse(R"({"op":"statsz"})").op, ParsedLine::Op::kStatsz);
  ParsedLine reload = Parse(R"({"op":"reload","embeddings":"new emb.csv"})");
  ASSERT_EQ(reload.op, ParsedLine::Op::kReload);
  EXPECT_EQ(reload.reload_path, "new emb.csv");
  EXPECT_EQ(Parse(R"({"op":"reload"})").op, ParsedLine::Op::kInvalid);
}

TEST(ServeProtocolTest, StringEscapes) {
  ParsedLine parsed = Parse(R"({"op":"reload","embeddings":"a\tbA\"c"})");
  ASSERT_EQ(parsed.op, ParsedLine::Op::kReload);
  EXPECT_EQ(parsed.reload_path, "a\tbA\"c");
  // ASCII \u escapes decode; non-ASCII ones are out of scope for paths.
  EXPECT_EQ(Parse("{\"op\":\"reload\",\"embeddings\":\"\\u0041.csv\"}").reload_path,
            "A.csv");
  EXPECT_EQ(Parse("{\"op\":\"reload\",\"embeddings\":\"\\u20ac\"}").op,
            ParsedLine::Op::kInvalid);
}

TEST(ServeProtocolTest, RejectsMalformedLines) {
  const char* bad[] = {
      "",                                        // Empty.
      "not json",                                // Not an object.
      R"({"id":1} trailing)",                    // Trailing characters.
      R"({"id":{"nested":1}})",                  // Nested object.
      R"({"id":1,"vector":[1]})",                // Two selectors.
      R"({"k":5})",                              // No selector.
      R"({"id":-1})",                            // Negative id.
      R"({"id":1.5})",                           // Fractional id.
      R"({"id":1,"k":-2})",                      // Negative k.
      R"({"id":1,"k":2000000})",                 // k over the sanity cap.
      R"({"op":"frobnicate","id":1})",           // Unknown op.
      R"({"lat":30.0})",                         // lat without lng.
      R"({"vector":[]})",                        // Empty vector.
      R"({"vector":["x"]})",                     // Non-numeric vector.
      R"({"id":1)",                              // Unterminated object.
      R"({"id":+5})",                            // JSON has no leading '+',
      R"({"id":05})",                            // ... no leading zero,
      R"({"vector":[.5]})",                      // ... no bare fraction
      R"({"vector":[1.]})",                      // ... and no empty one.
      R"({"vector":[1e999]})",                   // Beyond double range.
  };
  for (const char* line : bad) {
    ParsedLine parsed = Parse(line);
    EXPECT_EQ(parsed.op, ParsedLine::Op::kInvalid) << "'" << line << "'";
    EXPECT_FALSE(parsed.error.empty()) << "'" << line << "'";
  }
}

// Requests are read with obs/json's grammar, so every line this file's tests
// accept is valid JSON too.
TEST(ServeProtocolTest, AcceptedLinesAreValidJson) {
  for (const char* line : {
           R"({"id":12})",
           R"({"op":"query","id":0,"k":3})",
           R"({"vector":[1.5,-2,3e-1],"k":2})",
           R"({"lat":30.65,"lng":104.06})",
           R"({"lat":30.65,"lon":104.06})",
           R"({"op":"stats"})",
           R"({"op":"statsz"})",
           R"({"op":"reload","embeddings":"new emb.csv"})",
           R"({"op":"reload","embeddings":"a\tb\u0041\"c"})",
           R"({"op":"reload","embeddings":"\u0041.csv"})",
           R"({"id":1e-400,"k":2E+0})",
       }) {
    ASSERT_NE(Parse(line).op, ParsedLine::Op::kInvalid) << line;
    std::string json_error;
    EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  }
}

TEST(ServeProtocolTest, FormattedLinesAreValidJson) {
  ServeResponse ok;
  ok.ok = true;
  ok.epoch = 3;
  ok.cache_hit = true;
  ok.query_id = 12;
  ok.neighbors = {{7, 0.93}, {9, -0.25}};

  ServeResponse vector_response = ok;
  vector_response.query_id = -1;  // No "id" field emitted.

  ServeResponse error;
  error.ok = false;
  error.error = "bad \"quotes\"\nand\tcontrol";

  ServeStats stats;
  stats.requests = 10;
  stats.qps = 123.456;
  stats.latency_p99_ms = 1.25;

  std::vector<std::string> lines = {
      FormatResponseLine(0, ok),
      FormatResponseLine(1, vector_response),
      FormatResponseLine(2, error),
      FormatStatsLine(3, stats),
      FormatErrorLine(4, "plain"),
      FormatReloadLine(5, true, 2, ""),
      FormatReloadLine(6, false, 0, "cannot load x.csv"),
  };
  for (const std::string& line : lines) {
    std::string json_error;
    EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  }
  EXPECT_NE(lines[0].find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":12"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"id\":12"), std::string::npos);
  EXPECT_NE(lines[3].find("\"requests\":10"), std::string::npos);
}

TEST(ServeProtocolTest, StatsLineCarriesSnapshotLoadTelemetry) {
  ServeStats stats;
  stats.requests = 2;
  stats.snapshot_loads = 3;
  stats.snapshot_load_errors = 1;
  stats.snapshot_bytes = 4096;
  stats.snapshot_mapped_bytes = 4000;
  stats.snapshot_copied_bytes = 96;
  std::string line = FormatStatsLine(0, stats);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  EXPECT_NE(line.find("\"snapshot\":{"), std::string::npos);
  EXPECT_NE(line.find("\"loads\":3"), std::string::npos);
  EXPECT_NE(line.find("\"load_errors\":1"), std::string::npos);
  EXPECT_NE(line.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(line.find("\"mapped_bytes\":4000"), std::string::npos);
  EXPECT_NE(line.find("\"copied_bytes\":96"), std::string::npos);
}

TEST(ServeProtocolTest, StatsLineCarriesIndexBlockAndTailQueries) {
  ServeStats stats;
  stats.index_block_queries = 12;
  stats.index_tail_queries = 3;
  std::string line = FormatStatsLine(0, stats);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  EXPECT_NE(line.find("\"index\":{\"block_queries\":12,\"tail_queries\":3}"),
            std::string::npos)
      << line;
}

TEST(ServeProtocolTest, StatszLineIsValidJsonWithStagesAndRecords) {
  ServeTraceStats stats;
  stats.enabled = true;
  stats.sample_every = 16;
  stats.admitted = 32;
  stats.traced = 2;
  stats.traced_total_ms = 3.5;
  stats.attributed_fraction = 1.0;
  for (const char* name : {"admission", "queue", "cache", "scan", "reply"}) {
    ServeTraceStats::StageStat stage;
    stage.stage = name;
    stage.count = 2;
    stage.total_ms = 0.7;
    stage.p50_ms = 0.3;
    stage.p95_ms = 0.6;
    stage.p99_ms = 0.65;
    stage.exemplars = {16, 32};
    stats.stages.push_back(stage);
  }
  obs::RequestRecord record;
  record.id = 16;
  record.admit_ns = 1000;
  record.enqueued_ns = 1100;
  record.batch_formed_ns = 1200;
  record.scan_begin_ns = 1300;
  record.scan_end_ns = 1900;
  record.replied_ns = 2000;
  record.cache_hit = true;
  record.ok = true;
  stats.recent.push_back(record);
  stats.slowest.push_back(record);

  std::string line = FormatStatszLine(7, stats);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line.find("\"statsz\":{"), std::string::npos);
  EXPECT_NE(line.find("\"sample_every\":16"), std::string::npos);
  EXPECT_NE(line.find("\"admitted\":32"), std::string::npos);
  EXPECT_NE(line.find("\"attributed_fraction\":1"), std::string::npos);
  for (const char* name : {"admission", "queue", "cache", "scan", "reply"}) {
    EXPECT_NE(line.find(std::string("\"stage\":\"") + name + "\""),
              std::string::npos);
  }
  EXPECT_NE(line.find("\"exemplar_ids\":[16,32]"), std::string::npos);
  EXPECT_NE(line.find("\"recent\":["), std::string::npos);
  EXPECT_NE(line.find("\"slowest\":["), std::string::npos);
  EXPECT_NE(line.find("\"cache_hit\":true"), std::string::npos);
}

TEST(ServeProtocolTest, StatszLineWhenTracingDisabled) {
  ServeTraceStats stats;  // enabled=false, no stages.
  std::string line = FormatStatszLine(0, stats);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValid(line, &json_error)) << line << ": " << json_error;
  EXPECT_NE(line.find("\"enabled\":false"), std::string::npos);
}

// Round-trip: a formatted response parses back through the flat reader used
// for requests (shared grammar subset: flat object, numbers, strings).
TEST(ServeProtocolTest, ErrorLineRoundTripsThroughEscaping) {
  std::string line = FormatErrorLine(9, "path \\ with \"stuff\"\t");
  std::string json_error;
  EXPECT_TRUE(obs::JsonValid(line, &json_error)) << json_error;
}

}  // namespace
}  // namespace sarn::serve
