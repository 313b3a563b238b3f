#include "serve/session.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <istream>
#include <mutex>
#include <ostream>
#include <stop_token>
#include <thread>
#include <utility>

#include "core/sarn_model.h"
#include "serve/protocol.h"
#include "snapshot/snapshot.h"

namespace sarn::serve {
namespace {

const char* MetricName(tasks::IndexMetric metric) {
  return metric == tasks::IndexMetric::kCosine ? "cosine" : "l1";
}

// One reply in input order: a query or reload still running, or a line
// known as soon as its request was read.
struct Reply {
  uint64_t seq = 0;
  bool reload = false;
  std::future<ServeResponse> pending;  // Queries and reloads.
  std::string line;                    // Everything else.

  bool Ready() const {
    return !pending.valid() || pending.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready;
  }

  // Blocks until the reply is ready.
  std::string Take() {
    if (!pending.valid()) return std::move(line);
    ServeResponse response;
    try {
      response = pending.get();
    } catch (const std::exception& e) {  // A load that threw, e.g. bad_alloc.
      response.error = e.what();
    }
    if (!reload) return FormatResponseLine(seq, response);
    if (response.ok) {
      std::fprintf(stderr, "serve: published snapshot epoch %llu\n",
                   static_cast<unsigned long long>(response.epoch));
    }
    return FormatReloadLine(seq, response.ok, response.epoch, response.error);
  }
};

// Runs on a loader thread; the engine keeps serving the old index meanwhile.
ServeResponse Reload(QueryEngine& engine, const std::string& path,
                     const SessionOptions& options) {
  ServeResponse response;
  IndexFile file = LoadIndexFile(path, options.metric, options.precision);
  if (file.index == nullptr) {
    response.error = std::move(file.error);
  } else if (file.index->dim() != options.dim) {
    response.error = "dim mismatch: expected " + std::to_string(options.dim) +
                     ", got " + std::to_string(file.index->dim());
  } else {
    response.ok = true;
    response.epoch = engine.Publish(std::move(file.index));
  }
  return response;
}

// The replies not yet written, and the thread that writes them in order.
// Destruction stops the thread once every reply is written.
class ReplyWriter {
 public:
  explicit ReplyWriter(std::ostream& out)
      : out_(out), thread_([this](std::stop_token stop) { Run(stop); }) {}
  ReplyWriter(const ReplyWriter&) = delete;
  ReplyWriter& operator=(const ReplyWriter&) = delete;

  void Push(Reply reply) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(reply));
      ++pushed_;
    }
    queued_.notify_one();
  }

  // Blocks until every reply pushed so far has been written.
  void WaitWritten() {
    std::unique_lock<std::mutex> lock(mu_);
    caught_up_.wait(lock, [this] { return written_ == pushed_; });
  }

 private:
  void Run(std::stop_token stop) {
    std::unique_lock<std::mutex> lock(mu_);
    while (queued_.wait(lock, stop, [this] { return !queue_.empty(); })) {
      Reply reply = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      const std::string line = reply.Take();
      out_.write(line.data(), static_cast<std::streamsize>(line.size()));
      out_.put('\n');
      lock.lock();
      if (queue_.empty() || !queue_.front().Ready()) {
        lock.unlock();
        out_.flush();
        lock.lock();
      }
      if (++written_ == pushed_) caught_up_.notify_one();
    }
  }

  std::ostream& out_;
  std::mutex mu_;
  std::condition_variable_any queued_;  // A reply was pushed, or stop.
  std::condition_variable caught_up_;   // Every pushed reply is written.
  std::deque<Reply> queue_;
  uint64_t pushed_ = 0;
  uint64_t written_ = 0;
  std::jthread thread_;  // Last: starts once the members above exist.
};

}  // namespace

IndexFile LoadIndexFile(const std::string& path, tasks::IndexMetric metric,
                        tasks::IndexPrecision precision) {
  IndexFile file;
  if (path.ends_with(".sarnsnap")) {
    snapshot::LoadedSnapshot loaded;
    const snapshot::SnapshotStatus status =
        snapshot::LoadServingSnapshot(path, precision, &loaded);
    if (!status.ok()) {
      file.error = std::string("[") +
                   snapshot::SnapshotErrorName(status.error) + "] " +
                   status.message;
    } else if (loaded.meta.metric != metric) {
      file.error = "[metric_mismatch] " + path + " was built for metric " +
                   MetricName(loaded.meta.metric) + ", not " +
                   MetricName(metric);
    } else {
      file.index = std::move(loaded.index);
      file.locator = std::move(loaded.locator);
    }
  } else {
    core::ModelLoadResult loaded = core::SarnModel::LoadEmbeddingsCsv(path);
    if (!loaded.ok()) {
      file.error = std::string("[") + core::ModelLoadErrorName(loaded.error) +
                   "] " + loaded.message;
    } else {
      file.index = std::make_shared<tasks::EmbeddingIndex>(loaded.embeddings,
                                                           metric, precision);
    }
  }
  return file;
}

void RunSession(std::istream& in, std::ostream& out, QueryEngine& engine,
                const SessionOptions& options) {
  // A tied `in` (std::cin is tied to std::cout) would flush `out` from this
  // thread while the writer writes to it.
  std::ostream* const tied = in.tie(nullptr);
  {
    ReplyWriter writer(out);
    std::string line;
    uint64_t seq = 0;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r\n\v\f") == std::string::npos) continue;
      Reply reply;
      reply.seq = seq++;
      ParsedLine parsed = ParseRequestLine(line, options.default_k);
      switch (parsed.op) {
        case ParsedLine::Op::kQuery:
          reply.pending = engine.Submit(std::move(parsed.request));
          break;
        case ParsedLine::Op::kReload:
          reply.reload = true;
          reply.pending = std::async(
              std::launch::async,
              [&engine, &options, path = std::move(parsed.reload_path)] {
                return Reload(engine, path, options);
              });
          break;
        case ParsedLine::Op::kStats:
          writer.WaitWritten();
          reply.line = FormatStatsLine(reply.seq, engine.Stats());
          break;
        case ParsedLine::Op::kStatsz:
          writer.WaitWritten();
          reply.line = FormatStatszLine(reply.seq, engine.TraceStats());
          break;
        case ParsedLine::Op::kInvalid:
          reply.line = FormatErrorLine(reply.seq, parsed.error);
          break;
      }
      writer.Push(std::move(reply));
    }
  }
  in.tie(tied);
}

}  // namespace sarn::serve
