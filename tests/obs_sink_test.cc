// Tests for the JSON validator, the flat-object reader, and the JSONL metrics
// sink: record
// serialisation, file append semantics (checkpoint-resume continuity), and
// checkpoint lifecycle events.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_sink.h"

namespace sarn::obs {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::vector<std::string> NonEmptyLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(JsonValidatorTest, AcceptsValidDocuments) {
  for (const char* text :
       {"null", "true", "42", "-3.25e-2", "\"hi \\u00e9 \\n\"", "[]",
        "[1, 2, [3]]", "{}", "{\"a\": {\"b\": [1, null, false]}}",
        "  {\"trailing\": \"ws\"}  \n"}) {
    std::string error;
    EXPECT_TRUE(JsonValid(text, &error)) << text << ": " << error;
  }
}

TEST(JsonValidatorTest, RejectsInvalidDocuments) {
  for (const char* text :
       {"", "{", "}", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul", "01", "1.",
        "\"unterminated", "\"bad\\q\"", "{\"a\":1} extra", "[1 2]", "+5",
        "'single'", "NaN"}) {
    std::string error;
    EXPECT_FALSE(JsonValid(text, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonValidatorTest, JsonLinesChecksEveryLine) {
  EXPECT_TRUE(JsonLinesValid(""));
  EXPECT_TRUE(JsonLinesValid("{\"a\":1}\n{\"b\":2}\n"));
  EXPECT_TRUE(JsonLinesValid("{\"a\":1}\n\n{\"b\":2}"));  // Blank lines skipped.
  std::string error;
  EXPECT_FALSE(JsonLinesValid("{\"a\":1}\n{broken\n", &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonValidatorTest, EscapeAndNumberHelpers) {
  std::string out;
  JsonEscape("a\"b\\c\nd", &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(FlatJsonObjectTest, ReadsEveryValueType) {
  FlatJsonObject object;
  std::string error;
  ASSERT_TRUE(ReadFlatJsonObject(
      R"( {"s":"a\nb","n":-2.5e1,"t":true,"f":false,"z":null,"v":[1, 0.5],"e":[]} )",
      &object, &error))
      << error;
  ASSERT_EQ(object.members.size(), 7u);
  EXPECT_EQ(object.Find("s")->type, FlatJsonValue::Type::kString);
  EXPECT_EQ(object.Find("s")->text, "a\nb");
  EXPECT_EQ(object.Find("n")->number, -25.0);
  EXPECT_TRUE(object.Find("t")->boolean);
  EXPECT_EQ(object.Find("f")->type, FlatJsonValue::Type::kBool);
  EXPECT_FALSE(object.Find("f")->boolean);
  EXPECT_EQ(object.Find("z")->type, FlatJsonValue::Type::kNull);
  EXPECT_EQ(object.Find("v")->numbers, (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(object.Find("e")->type, FlatJsonValue::Type::kNumberArray);
  EXPECT_TRUE(object.Find("e")->numbers.empty());
  EXPECT_EQ(object.Find("missing"), nullptr);
  ASSERT_TRUE(ReadFlatJsonObject("{}", &object));
  EXPECT_TRUE(object.members.empty());
}

TEST(FlatJsonObjectTest, RepeatedNameKeepsLastValue) {
  FlatJsonObject object;
  ASSERT_TRUE(ReadFlatJsonObject(R"({"k":1,"k":2})", &object));
  EXPECT_EQ(object.Find("k")->number, 2.0);
}

TEST(FlatJsonObjectTest, RejectsNestingAndWhatJsonValidRejects) {
  for (const char* text :
       {"", "[1]", "\"s\"", R"({"a":{"b":1}})", R"({"a":[[1]]})", R"({"a":["x"]})",
        R"({"a":[true]})", R"({"a":01})", R"({"a":+1})", R"({"a":.5})",
        R"({"a":1.})", R"({"a":1e})", R"({"a":"\q"})", R"({"a":1} x)",
        R"({"a":1,})", R"({"a" 1})", "{\"a\":\"\x01\"}", R"({"a":1e999})",
        R"({"a":-1e999})"}) {
    FlatJsonObject object;
    std::string error;
    EXPECT_FALSE(ReadFlatJsonObject(text, &object, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// Numbers convert with std::from_chars, which rounds correctly as strtod
// does: both give the same bits, an underflow included.
TEST(FlatJsonObjectTest, NumbersMatchStrtodBitForBit) {
  for (const char* number :
       {"0", "-0", "0.1", "104.06", "-3.0000000000000004", "1.7976931348623157e308",
        "4.9406564584124654e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
        "123456789012345678901234567890", "0.012345678900000001"}) {
    FlatJsonObject object;
    const std::string text = std::string("{\"x\":") + number + "}";
    ASSERT_TRUE(ReadFlatJsonObject(text, &object)) << number;
    const double expected = std::strtod(number, nullptr);
    EXPECT_EQ(std::memcmp(&object.Find("x")->number, &expected, sizeof(double)), 0)
        << number;
  }
}

TEST(FlatJsonObjectTest, DecodesUnicodeEscapesToUtf8) {
  FlatJsonObject object;
  ASSERT_TRUE(ReadFlatJsonObject(
      R"({"a":"\u0041\/","b":"\u00e9\u20AC","c":"\ud83d\ude00","d":"\ud83dx"})",
      &object));
  EXPECT_EQ(object.Find("a")->text, "A/");
  EXPECT_FALSE(object.Find("a")->non_ascii_escape);
  EXPECT_EQ(object.Find("b")->text, "\xC3\xA9\xE2\x82\xAC");
  EXPECT_TRUE(object.Find("b")->non_ascii_escape);
  EXPECT_EQ(object.Find("c")->text, "\xF0\x9F\x98\x80");  // A surrogate pair.
  EXPECT_EQ(object.Find("d")->text, "\xEF\xBF\xBDx");     // A lone half: U+FFFD.
}

TEST(EpochRecordJsonTest, SerialisesAllSections) {
  EpochRecord record;
  record.run = "sarn";
  record.epoch = 3;
  record.loss = 1.5;
  record.grad_norm = 0.25;
  record.learning_rate = 0.001;
  record.batches = 7;
  record.epoch_seconds = 2.0;
  record.resumed = true;
  record.phase_seconds = {{"augmentation", 0.5}, {"backward", 1.0}};
  record.queue_stored = 100;
  record.queue_nonempty_cells = 12;
  record.queue_pushes = 400;
  record.queue_evictions = 300;
  record.checkpoint_bytes = 2048;
  record.checkpoint_seconds = 0.01;
  record.pool_regions = 5;
  record.pool_serial_regions = 11;
  record.pool_misses = 9;
  record.halo_vertices = 2739;
  record.halo = {{"online", {1363.0, 541.5, 124.5}, {2879.0, 621.0}},
                 {"target", {2739.0, 2739.0, 2739.0}, {22000.0, 22000.0}}};
  std::string json = EpochRecordToJson(record);
  std::string error;
  EXPECT_TRUE(JsonValid(json, &error)) << error;
  EXPECT_NE(json.find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"resumed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"augmentation\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"stored\":100"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":2048"), std::string::npos);
  EXPECT_NE(json.find("\"regions\":5,\"serial_regions\":11,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool_misses\":9"), std::string::npos);
  EXPECT_NE(json.find("\"halo\":{\"n\":2739,"
                      "\"online\":{\"rows\":[1363,541.5,124.5],\"edges\":[2879,621]},"
                      "\"target\":{\"rows\":[2739,2739,2739],\"edges\":[22000,22000]}}"),
            std::string::npos)
      << json;
}

TEST(EpochRecordJsonTest, QueueSectionOmittedWhenTrainerHasNoQueue) {
  EpochRecord record;
  record.run = "graphcl";
  record.queue_stored = -1;  // GraphCL has no negative queue.
  std::string json = EpochRecordToJson(record);
  std::string error;
  EXPECT_TRUE(JsonValid(json, &error)) << error;
  EXPECT_EQ(json.find("\"queue\""), std::string::npos);
  EXPECT_EQ(json.find("\"halo\""), std::string::npos);  // No halo sizes given.
}

TEST(CheckpointEventJsonTest, SerialisesActionAndDetail) {
  CheckpointEvent event;
  event.action = CheckpointEvent::Action::kSkippedCorrupt;
  event.path = "/tmp/ckpt_000001.sarn";
  event.epoch = 1;
  event.detail = "bad magic";
  std::string json = CheckpointEventToJson(event);
  std::string error;
  EXPECT_TRUE(JsonValid(json, &error)) << error;
  EXPECT_NE(json.find("\"event\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"skipped_corrupt\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"bad magic\""), std::string::npos);
  EXPECT_STREQ(CheckpointActionName(CheckpointEvent::Action::kWritten), "written");
  EXPECT_STREQ(CheckpointActionName(CheckpointEvent::Action::kResumedFrom),
               "resumed_from");
}

TEST(JsonlMetricsSinkTest, WritesOneValidLinePerRecord) {
  std::string path = ::testing::TempDir() + "/obs_sink_lines.jsonl";
  std::remove(path.c_str());
  {
    JsonlMetricsSink sink(path);
    ASSERT_TRUE(sink.ok());
    EpochRecord record;
    for (int epoch = 0; epoch < 3; ++epoch) {
      record.epoch = epoch;
      sink.OnEpoch(record);
    }
    CheckpointEvent event;
    event.action = CheckpointEvent::Action::kWritten;
    sink.OnCheckpoint(event);
    sink.Flush();
  }
  std::string text = ReadFileOrDie(path);
  std::string error;
  EXPECT_TRUE(JsonLinesValid(text, &error)) << error;
  std::vector<std::string> lines = NonEmptyLines(text);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(lines[3].find("\"event\":\"checkpoint\""), std::string::npos);
}

TEST(JsonlMetricsSinkTest, AppendsAcrossSinkInstancesLikeResume) {
  // A killed-and-resumed run constructs a fresh sink on the same path; the
  // epoch series must stay continuous in one file.
  std::string path = ::testing::TempDir() + "/obs_sink_resume.jsonl";
  std::remove(path.c_str());
  {
    JsonlMetricsSink sink(path);
    EpochRecord record;
    record.epoch = 0;
    sink.OnEpoch(record);
    record.epoch = 1;
    sink.OnEpoch(record);
  }
  {
    JsonlMetricsSink sink(path);  // "Resumed" process.
    EpochRecord record;
    record.resumed = true;
    record.epoch = 2;
    sink.OnEpoch(record);
  }
  std::vector<std::string> lines = NonEmptyLines(ReadFileOrDie(path));
  ASSERT_EQ(lines.size(), 3u);
  for (int epoch = 0; epoch < 3; ++epoch) {
    EXPECT_NE(lines[epoch].find("\"epoch\":" + std::to_string(epoch)),
              std::string::npos)
        << lines[epoch];
  }
  EXPECT_NE(lines[2].find("\"resumed\":true"), std::string::npos);
}

TEST(JsonlMetricsSinkTest, UnopenableFileReportsNotOk) {
  JsonlMetricsSink sink("/nonexistent_dir_zz/metrics.jsonl");
  EXPECT_FALSE(sink.ok());
  EpochRecord record;
  sink.OnEpoch(record);  // Dropped, but must not crash.
}

TEST(RecordCheckpointEventTest, BumpsRegistryAndForwardsToSink) {
  // A collecting sink to observe forwarding.
  class CollectingSink : public MetricsSink {
   public:
    void OnEpoch(const EpochRecord&) override {}
    void OnCheckpoint(const CheckpointEvent& event) override {
      events.push_back(event);
    }
    std::vector<CheckpointEvent> events;
  };

  MetricsRegistry& registry = MetricsRegistry::Default();
  uint64_t written_before =
      registry.GetCounter("sarn.checkpoint.written").Value();
  uint64_t bytes_before =
      registry.GetCounter("sarn.checkpoint.bytes_written").Value();

  CollectingSink sink;
  CheckpointEvent event;
  event.action = CheckpointEvent::Action::kWritten;
  event.path = "/tmp/ckpt_000002.sarn";
  event.epoch = 2;
  event.bytes = 512;
  event.seconds = 0.005;
  RecordCheckpointEvent(&sink, event);
  RecordCheckpointEvent(nullptr, event);  // Null sink is allowed.

  EXPECT_EQ(registry.GetCounter("sarn.checkpoint.written").Value(),
            written_before + 2);
  EXPECT_EQ(registry.GetCounter("sarn.checkpoint.bytes_written").Value(),
            bytes_before + 1024);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].path, event.path);
  EXPECT_EQ(sink.events[0].bytes, 512);
}

}  // namespace
}  // namespace sarn::obs
