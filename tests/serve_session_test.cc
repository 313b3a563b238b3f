#include "serve/session.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "snapshot/snapshot.h"
#include "tasks/embedding_index.h"
#include "tensor/tensor.h"

namespace sarn::serve {
namespace {

using tasks::EmbeddingIndex;
using tasks::IndexMetric;
using tasks::IndexPrecision;
using tensor::Tensor;

constexpr int64_t kRows = 30;
constexpr int64_t kDim = 8;

// Input that blocks on read until the test writes more or closes it, like
// a pipe whose writer is still open.
class PipeInput : public std::streambuf {
 public:
  void Write(const std::string& text) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ += text;
    }
    cv_.notify_all();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !pending_.empty() || closed_; });
    if (pending_.empty()) return traits_type::eof();
    buffer_.swap(pending_);
    pending_.clear();
    setg(buffer_.data(), buffer_.data(), buffer_.data() + buffer_.size());
    return traits_type::to_int_type(buffer_[0]);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;
  std::string buffer_;
  bool closed_ = false;
};

// Output whose bytes the test sees only once the session flushes them.
class FlushedOutput : public std::streambuf {
 public:
  // Waits until at least `count` whole lines have been flushed.
  bool WaitForLines(size_t count, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return LinesLocked().size() >= count; });
  }
  std::vector<std::string> Lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return LinesLocked();
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      unflushed_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    unflushed_.append(s, static_cast<size_t>(n));
    return n;
  }
  int sync() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      flushed_ += unflushed_;
    }
    unflushed_.clear();
    cv_.notify_all();
    return 0;
  }

 private:
  std::vector<std::string> LinesLocked() const {
    std::vector<std::string> lines;
    std::istringstream in(flushed_);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    if (!flushed_.empty() && flushed_.back() != '\n') lines.pop_back();
    return lines;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::string unflushed_;  // Only the session's writer touches it.
  std::string flushed_;
};

std::shared_ptr<const EmbeddingIndex> MakeIndex(
    uint64_t seed, int64_t d = kDim, IndexMetric metric = IndexMetric::kCosine) {
  Rng rng(seed);
  return std::make_shared<EmbeddingIndex>(Tensor::Randn({kRows, d}, rng), metric);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/serve_session_" + name;
}

std::string WriteFile(const std::string& name, const std::string& bytes) {
  const std::string path = TempPath(name);
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

std::string CsvOf(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  const Tensor rows = Tensor::Randn({n, d}, rng);
  std::string csv;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      if (j > 0) csv += ',';
      csv += std::to_string(rows.at(i, j));
    }
    csv += '\n';
  }
  return csv;
}

std::string ReloadLine(const std::string& path) {
  return "{\"op\":\"reload\",\"embeddings\":\"" + path + "\"}\n";
}

std::string QueryLine(int64_t id) {
  return "{\"op\":\"query\",\"id\":" + std::to_string(id) + "}\n";
}

// The seq a reply line is tagged with; -1 when it has none.
int64_t SeqOf(const std::string& line) {
  const std::string prefix = "{\"seq\":";
  if (line.rfind(prefix, 0) != 0) return -1;
  return std::stoll(line.substr(prefix.size()));
}

bool Contains(const std::string& line, const std::string& text) {
  return line.find(text) != std::string::npos;
}

SessionOptions Options() {
  SessionOptions options;
  options.default_k = 5;
  options.dim = kDim;
  return options;
}

ServeOptions Engine(double batch_window_ms, size_t cache_capacity = 4096) {
  ServeOptions options;
  options.threads = 2;
  options.batch_window_ms = batch_window_ms;
  options.cache_capacity = cache_capacity;
  return options;
}

std::vector<std::string> RunToEof(const std::string& input, QueryEngine& engine) {
  std::istringstream in(input);
  std::ostringstream out;
  RunSession(in, out, engine, Options());
  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  return lines;
}

// A finished reply is written and flushed at once: it never waits for the
// next input line or for EOF.
TEST(ServeSessionTest, ReplyIsFlushedWithoutFurtherInput) {
  QueryEngine engine(MakeIndex(1), nullptr, Engine(1.0));
  PipeInput input;
  FlushedOutput output;
  std::istream in(&input);
  std::ostream out(&output);
  std::thread session([&] { RunSession(in, out, engine, Options()); });

  input.Write("{\"op\":\"query\",\"id\":3,\"k\":3}\n");
  const bool query_flushed = output.WaitForLines(1, std::chrono::seconds(10));
  // So is a barrier reply, and a query after it.
  input.Write("{\"op\":\"stats\"}\n");
  const bool stats_flushed = output.WaitForLines(2, std::chrono::seconds(10));
  input.Write(QueryLine(4));
  const bool second_flushed = output.WaitForLines(3, std::chrono::seconds(10));
  input.Close();
  session.join();
  EXPECT_TRUE(query_flushed) << "the reply was held back waiting for more input";
  EXPECT_TRUE(stats_flushed);
  EXPECT_TRUE(second_flushed);
  const std::vector<std::string> lines = output.Lines();
  ASSERT_EQ(lines.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(SeqOf(lines[i]), i);
  EXPECT_TRUE(Contains(lines[0], "\"ok\":true,\"epoch\":1,\"cache\":false,\"id\":3,"));
  EXPECT_TRUE(Contains(lines[1], "\"stats\":{\"requests\":1,"));
}

// Every kind of line gets exactly one reply, in input order, whatever order
// the work behind them finishes in.
TEST(ServeSessionTest, MixedLinesAreAnsweredInSeqOrder) {
  QueryEngine engine(MakeIndex(2), nullptr, Engine(5.0));
  const std::string good = WriteFile("order_good.csv", CsvOf(kRows, kDim, 3));
  const std::string input =
      QueryLine(1) +                                  // 0
      "not json\n" +                                  // 1
      "{\"op\":\"stats\"}\n" +                        // 2
      "{\"vector\":[1,0,0,0,0,0,0,0],\"k\":2}\n" +    // 3
      "\n   \n" +                                     // Blank: no seq.
      "{\"op\":\"statsz\"}\n" +                       // 4
      ReloadLine(good) +                              // 5
      QueryLine(2) +                                  // 6
      ReloadLine(TempPath("order_missing.csv")) +     // 7
      QueryLine(kRows + 10) +                         // 8: out of range
      "{\"op\":\"bogus\"}\n" +                        // 9
      "{\"op\":\"stats\"}\n";                         // 10
  const std::vector<std::string> lines = RunToEof(input, engine);
  ASSERT_EQ(lines.size(), 11u);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(SeqOf(lines[i]), static_cast<int64_t>(i)) << lines[i];
    std::string error;
    EXPECT_TRUE(obs::JsonValid(lines[i], &error)) << error << ": " << lines[i];
  }
  for (size_t i : {0u, 3u, 6u}) EXPECT_TRUE(Contains(lines[i], "\"neighbors\":["));
  for (size_t i : {1u, 7u, 8u, 9u}) EXPECT_TRUE(Contains(lines[i], "\"ok\":false"));
  EXPECT_TRUE(Contains(lines[2], "\"stats\":{\"requests\":1,"));
  EXPECT_TRUE(Contains(lines[4], "\"statsz\":{"));
  EXPECT_EQ(lines[5], "{\"seq\":5,\"ok\":true,\"epoch\":2}");
  EXPECT_TRUE(Contains(lines[7], "[file_not_found]"));
  EXPECT_TRUE(Contains(lines[10], "\"stats\":{\"requests\":4,"));
  EXPECT_EQ(engine.epoch(), 2u);
}

// stats is a barrier: it waits for every earlier reply, so its counters
// cover exactly the lines before it, even when those are still batching.
TEST(ServeSessionTest, StatsCountsExactlyTheRequestsBeforeIt) {
  QueryEngine engine(MakeIndex(4), nullptr, Engine(20.0));
  std::string input;
  for (int i = 0; i < 5; ++i) input += QueryLine(i);
  input += "{\"op\":\"query\",\"id\":\"x\"}\n";  // Invalid: never submitted.
  input += "{\"op\":\"stats\"}\n";
  for (int i = 0; i < 3; ++i) input += QueryLine(10 + i);
  input += "{\"op\":\"stats\"}\n";
  const std::vector<std::string> lines = RunToEof(input, engine);
  ASSERT_EQ(lines.size(), 11u);
  // requests counts admissions; cache lookups count executed requests, so
  // they show that the batches before the barrier had run.
  EXPECT_TRUE(Contains(lines[6], "\"requests\":5,\"errors\":0,")) << lines[6];
  EXPECT_TRUE(Contains(lines[6], "\"cache_hits\":0,\"cache_misses\":5,")) << lines[6];
  EXPECT_TRUE(Contains(lines[10], "\"requests\":8,\"errors\":0,")) << lines[10];
  EXPECT_TRUE(Contains(lines[10], "\"cache_hits\":0,\"cache_misses\":8,")) << lines[10];
}

// EOF does not drop anything still in the engine: every reply is written.
TEST(ServeSessionTest, EofDrainsEveryReply) {
  QueryEngine engine(MakeIndex(5), nullptr, Engine(50.0));
  std::string input;
  constexpr int kQueries = 300;
  for (int i = 0; i < kQueries; ++i) input += QueryLine(i % kRows);
  input += ReloadLine(WriteFile("eof_good.csv", CsvOf(kRows, kDim, 6)));
  const std::vector<std::string> lines = RunToEof(input, engine);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kQueries + 1));
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(SeqOf(lines[i]), i);
    EXPECT_TRUE(Contains(lines[i], "\"ok\":true")) << lines[i];
  }
  EXPECT_EQ(lines.back(), "{\"seq\":300,\"ok\":true,\"epoch\":2}");
}

// A reload that fails replies ok:false with the typed error, and the old
// index keeps answering: the epoch does not move.
TEST(ServeSessionTest, FailedReloadsKeepTheOldIndex) {
  const auto index = MakeIndex(7);
  // Queries answer from the cache-free engine, so the expected reply line
  // is exact.
  QueryEngine engine(index, nullptr, Engine(1.0, /*cache_capacity=*/0));

  const auto l1_index = MakeIndex(8, kDim, IndexMetric::kL1);
  snapshot::SnapshotContents l1;
  l1.n = kRows;
  l1.d = kDim;
  l1.metric = IndexMetric::kL1;
  l1.float_index = l1_index.get();
  const std::string l1_path = TempPath("other_metric.sarnsnap");
  ASSERT_TRUE(snapshot::SaveServingSnapshot(l1_path, l1).ok());

  const auto cosine_index = MakeIndex(9);
  snapshot::SnapshotContents cosine;
  cosine.n = kRows;
  cosine.d = kDim;
  cosine.float_index = cosine_index.get();
  std::string arena = snapshot::BuildServingSnapshot(cosine);
  const std::span<const float> rows = cosine_index->rows_f32();
  const size_t row_at = arena.find(std::string_view(
      reinterpret_cast<const char*>(rows.data()), kDim * sizeof(float)));
  ASSERT_NE(row_at, std::string::npos);
  arena[row_at + 5] ^= 0x10;
  const std::string flipped_path = WriteFile("flipped.sarnsnap", arena);

  const struct {
    std::string path;
    std::string error;
  } cases[] = {
      {TempPath("missing.csv"), "[file_not_found]"},
      {WriteFile("ragged.csv", "1,2,3,4,5,6,7,8\n1,2,3\n"), "[parse_error]"},
      {WriteFile("narrow.csv", CsvOf(kRows, kDim / 2, 10)),
       "dim mismatch: expected 8, got 4"},
      {l1_path, "[metric_mismatch]"},
      {flipped_path, "[crc_mismatch]"},
  };
  std::string input;
  for (const auto& c : cases) input += ReloadLine(c.path) + QueryLine(3);
  input += "{\"op\":\"stats\"}\n";
  const std::vector<std::string> lines = RunToEof(input, engine);
  ASSERT_EQ(lines.size(), 2 * std::size(cases) + 1);

  ServeResponse expected;
  expected.ok = true;
  expected.epoch = 1;
  expected.query_id = 3;
  expected.neighbors = index->QueryById(3, 5);
  for (size_t i = 0; i < std::size(cases); ++i) {
    const std::string& reload = lines[2 * i];
    EXPECT_TRUE(Contains(reload, "\"ok\":false")) << reload;
    EXPECT_TRUE(Contains(reload, cases[i].error)) << reload;
    EXPECT_EQ(lines[2 * i + 1], FormatResponseLine(2 * i + 1, expected));
  }
  EXPECT_TRUE(Contains(lines.back(), "\"swaps\":0,\"epoch\":1,")) << lines.back();
  EXPECT_EQ(engine.epoch(), 1u);
}

// Startup and reload share LoadIndexFile: a CSV and a snapshot of the same
// rows answer alike, and a snapshot's locator comes with it.
TEST(ServeSessionTest, LoadIndexFileReadsCsvAndSnapshot) {
  const std::string csv = WriteFile("load.csv", CsvOf(kRows, kDim, 11));
  IndexFile from_csv =
      LoadIndexFile(csv, IndexMetric::kCosine, IndexPrecision::kFloat32);
  ASSERT_NE(from_csv.index, nullptr) << from_csv.error;
  EXPECT_EQ(from_csv.locator, nullptr);

  const std::vector<geo::LatLng> midpoints(kRows, geo::LatLng{30.6, 104.0});
  snapshot::SnapshotContents contents;
  contents.n = kRows;
  contents.d = kDim;
  contents.float_index = from_csv.index.get();
  contents.midpoints = &midpoints;
  contents.locator_cell_side_meters = 100.0;
  const std::string snap = TempPath("load.sarnsnap");
  ASSERT_TRUE(snapshot::SaveServingSnapshot(snap, contents).ok());
  IndexFile from_snap =
      LoadIndexFile(snap, IndexMetric::kCosine, IndexPrecision::kFloat32);
  ASSERT_NE(from_snap.index, nullptr) << from_snap.error;
  EXPECT_NE(from_snap.locator, nullptr);
  const auto a = from_csv.index->QueryById(4, 5);
  const auto b = from_snap.index->QueryById(4, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].score, b[i].score);
  }
  // int8 was not written into this snapshot: a typed error, not a crash.
  IndexFile no_int8 = LoadIndexFile(snap, IndexMetric::kCosine, IndexPrecision::kInt8);
  EXPECT_EQ(no_int8.index, nullptr);
  EXPECT_TRUE(Contains(no_int8.error, "[malformed]")) << no_int8.error;
}

}  // namespace
}  // namespace sarn::serve
