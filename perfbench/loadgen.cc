// `perfbench_tool serve-load`: drives `sarn serve` through its NDJSON pipe
// with an open-loop schedule and checks every reply.
//
// One process, two threads: this thread writes request lines on a fixed
// schedule (Poisson arrivals at the rung's rate, drawn from the seed; every
// line already due is written in one write), and a reader thread timestamps
// and validates each reply line as it arrives. Latency is reply arrival minus the time the request was *due*, so
// a stall of the writer or of the server counts against every request behind
// it. Rungs are separated by a {"op":"stats"} line, which the server answers
// only after every earlier reply (a barrier), so each rung starts empty.
//
// The ladder: a warm-up at the low rate, the fixed low and high rungs
// (`fixed_s` long in all, so their p99 rests on thousands of samples), then a
// search from `search_from` (at least the high rate times kStep) that
// multiplies the rate by kStep until a rung fails,
// followed by `bisect` geometric bisection probes of kProbeS each; a failed
// probe is retried once. The low rung runs as kLowParts parts spread over the
// session (after the warm-up, after the high rung, at the end), so a slow
// spell of the host that covers one part does not set the low-rate p50. A
// rung passes when its p99 is within the limit and its last tenth shows no
// backlog (median within the limit); a failed or missing reply fails the
// whole run, not just the rung. With reload targets given, every rung
// carries exactly one reload, halfway through, so every rung pays the same
// hot-swap cost and the verdicts stay comparable. Each rung also records the
// server's CPU time from the start of its schedule to its barrier reply;
// over the fixed rungs that gives CPU time per request.
//
// Checks (any failure makes the run incorrect): every request line gets
// exactly one reply with its seq; every reply is valid JSON (json_lite.h,
// not the program's own parser); every query reply is ok; reload epochs
// strictly increase and each query's epoch is one that was live between its
// send and its reply; sampled neighbour lists equal a brute-force reference
// over the rows of the snapshot the reply's epoch names (float: same scores
// up to float rounding, ties in any order; int8: recall@k against float).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "json_lite.h"
#include "roadnet/io.h"
#include "spans.h"
#include "tool_util.h"

extern char** environ;

namespace perfbench {
namespace {

namespace geo = sarn::geo;
namespace roadnet = sarn::roadnet;

int64_t NowNs() { return SpanRecorder::NowNs(); }

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

// --- Reference rows and brute-force top-k -----------------------------------

struct Scored {
  int64_t id;
  double score;
};

struct Rows {
  int64_t n = 0;
  int64_t d = 0;
  std::vector<float> data;
  std::vector<double> inv_norm;
  const float* row(int64_t i) const { return data.data() + i * d; }
};

bool LoadRowsCsv(const std::string& path, Rows* rows) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    int64_t cells = 0;
    const char* p = line.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      float value = std::strtof(p, &end);
      if (end == p) return false;
      rows->data.push_back(value);
      ++cells;
      p = *end == ',' ? end + 1 : end;
    }
    if (rows->d == 0) rows->d = cells;
    if (cells != rows->d) return false;
    ++rows->n;
  }
  for (int64_t i = 0; i < rows->n; ++i) {
    double sq = 0.0;
    for (int64_t j = 0; j < rows->d; ++j) sq += double(rows->row(i)[j]) * rows->row(i)[j];
    rows->inv_norm.push_back(sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0);
  }
  return rows->n > 0;
}

/// Cosine top-k over every row except `exclude`, best first.
std::vector<Scored> BruteTopK(const Rows& rows, const float* query, int64_t exclude,
                              int k) {
  double qsq = 0.0;
  for (int64_t j = 0; j < rows.d; ++j) qsq += double(query[j]) * query[j];
  double inv_q = qsq > 0.0 ? 1.0 / std::sqrt(qsq) : 0.0;
  std::vector<Scored> all;
  all.reserve(static_cast<size_t>(rows.n));
  for (int64_t i = 0; i < rows.n; ++i) {
    if (i == exclude) continue;
    const float* r = rows.row(i);
    double dot = 0.0;
    for (int64_t j = 0; j < rows.d; ++j) dot += double(query[j]) * r[j];
    all.push_back({i, dot * inv_q * rows.inv_norm[static_cast<size_t>(i)]});
  }
  size_t keep = std::min<size_t>(static_cast<size_t>(k), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    [](const Scored& a, const Scored& b) { return a.score > b.score; });
  all.resize(keep);
  return all;
}

double Cosine(const Rows& rows, const float* query, int64_t id) {
  double qsq = 0.0, dot = 0.0;
  const float* r = rows.row(id);
  for (int64_t j = 0; j < rows.d; ++j) {
    qsq += double(query[j]) * query[j];
    dot += double(query[j]) * r[j];
  }
  return qsq > 0.0 ? dot / std::sqrt(qsq) * rows.inv_norm[static_cast<size_t>(id)] : 0.0;
}

double HaversineMeters(double lat1, double lng1, double lat2, double lng2) {
  constexpr double kRad = 3.14159265358979323846 / 180.0;
  double dlat = (lat2 - lat1) * kRad, dlng = (lng2 - lng1) * kRad;
  double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1 * kRad) * std::cos(lat2 * kRad) * std::sin(dlng / 2) *
                 std::sin(dlng / 2);
  return 2.0 * 6371008.8 * std::asin(std::min(1.0, std::sqrt(a)));
}

// --- Child process over two pipes ----------------------------------------------

struct Child {
  pid_t pid = -1;
  int in_fd = -1;   // Our end of the child's stdin.
  int out_fd = -1;  // Our end of the child's stdout.
};

bool Spawn(const std::vector<std::string>& args, const std::string& stderr_path,
           Child* child) {
  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return false;
  if (pipe2(out_pipe, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  int rc = posix_spawn(&child->pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    return false;
  }
  child->in_fd = in_pipe[1];
  child->out_fd = out_pipe[0];
  return true;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Closes stdin and lets the child drain and exit; a child that has not
/// exited after `grace_s` is killed.
void FinishChild(Child* child, double grace_s, bool* clean_exit) {
  if (child->in_fd >= 0) close(child->in_fd);
  child->in_fd = -1;
  int status = 0;
  int64_t deadline = NowNs() + static_cast<int64_t>(grace_s * 1e9);
  pid_t done = 0;
  while ((done = waitpid(child->pid, &status, WNOHANG)) == 0 && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    kill(child->pid, SIGKILL);
    waitpid(child->pid, &status, 0);
    *clean_exit = false;
  } else {
    *clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  child->pid = -1;
}

/// Peak resident memory (MB) of a live process so far: VmHWM.
double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // In kB.
  }
  return 0.0;
}

/// User + system CPU seconds of a live process, all its threads.
double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::istringstream fields(text.substr(std::min(text.size(), text.rfind(')') + 1)));
  std::string field;
  double ticks = 0.0;
  for (int i = 0; i < 13 && fields >> field; ++i) {
    if (i >= 11) ticks += std::stod(field);  // utime and stime, in clock ticks.
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// What is kept of one reply: enough to time and check it.
struct Reply {
  int64_t recv_ns = 0;  // 0: no valid reply (yet).
  int64_t epoch = -1;
  int64_t id = -1;
  bool ok = false;
  int32_t sample = -1;  // Index into ReplyReader::samples(), or -1.
};

/// Reads reply lines as they arrive, timestamps them, and validates each one
/// right away (ScanReply: full JSON grammar, no tree), keeping only compact
/// fields; so memory stays small at any rate. Every `sample_every`-th query
/// reply (by seq) keeps its neighbour list for the reference check. Replies
/// without a neighbour list (stats, statsz, reload, errors) are kept whole.
/// `corrupt` ("json" or "neighbor") damages the first sampled query reply
/// before validation, to prove the checks catch it.
class ReplyReader {
 public:
  ReplyReader(int fd, int64_t sample_every, std::string corrupt)
      : fd_(fd), sample_every_(sample_every), corrupt_(std::move(corrupt)),
        thread_([this] { Run(); }) {}
  ~ReplyReader() { Join(); }
  ReplyReader(const ReplyReader&) = delete;
  ReplyReader& operator=(const ReplyReader&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  /// Waits until the reply with this seq (or a later one) has arrived.
  bool WaitForSeq(int64_t seq, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return last_seq_ >= seq || eof_; }) &&
           last_seq_ >= seq;
  }

  /// Arrival time (0 = none) and ok flag of one seq.
  std::pair<int64_t, bool> Arrival(int64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq < 0 || seq >= static_cast<int64_t>(replies_.size())) return {0, false};
    const Reply& reply = replies_[static_cast<size_t>(seq)];
    return {reply.recv_ns, reply.ok};
  }

  // Valid after Join().
  const std::vector<Reply>& replies() const { return replies_; }
  const std::vector<std::vector<Scored>>& samples() const { return samples_; }
  const std::map<int64_t, std::string>& control() const { return control_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void Problem(std::string message) {
    if (problems_.size() < 8) problems_.push_back(std::move(message));
  }

  void Run() {
    std::string pending;
    std::vector<char> buffer(1 << 16);
    for (;;) {
      ssize_t n = read(fd_, buffer.data(), buffer.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      int64_t now = NowNs();
      pending.append(buffer.data(), static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(mu_);
      size_t start = 0;
      for (size_t nl; (nl = pending.find('\n', start)) != std::string::npos; start = nl + 1) {
        Publish(std::string_view(pending).substr(start, nl - start), now);
      }
      pending.erase(0, start);
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!pending.empty()) Problem("unterminated last reply line: " + pending.substr(0, 80));
    eof_ = true;
    cv_.notify_all();
  }

  void Publish(std::string_view text, int64_t now) {  // Caller holds mu_.
    // The seq prefix decides whether scores are converted; the scan below
    // re-reads it with full validation.
    int64_t hint = -1;
    if (text.substr(0, 7) == "{\"seq\":") hint = std::atoll(std::string(text.substr(7, 20)).c_str());
    const bool sampled = hint >= 0 && hint % sample_every_ == 0;
    std::string damaged;
    if (!corrupt_.empty() && sampled && text.find("\"neighbors\":[{\"id\":") != std::string_view::npos) {
      damaged = std::string(text);
      if (corrupt_ == "json") {
        damaged.pop_back();
      } else {
        damaged.insert(damaged.find("\"neighbors\":[{\"id\":") + 19, "1");
      }
      text = damaged;
      corrupt_.clear();
    }
    ReplyFields fields;
    std::string error;
    if (!ScanReply(text, sampled, &fields, &error)) {
      Problem("invalid JSON reply (" + error + "): " + std::string(text.substr(0, 80)));
      return;
    }
    const int64_t seq = fields.seq;
    if (seq < 0 || seq > (int64_t{1} << 32)) {
      Problem("reply without a valid seq: " + std::string(text.substr(0, 80)));
      return;
    }
    if (seq >= static_cast<int64_t>(replies_.size())) replies_.resize(static_cast<size_t>(seq) + 1);
    Reply& reply = replies_[static_cast<size_t>(seq)];
    if (reply.recv_ns != 0) {
      Problem("duplicate reply for seq " + std::to_string(seq));
      return;
    }
    reply.recv_ns = now;
    reply.ok = fields.ok == 1;
    reply.epoch = fields.epoch;
    reply.id = fields.id;
    if (fields.has_neighbors && sampled) {
      std::vector<Scored> list;
      for (int i = 0; i < std::min(fields.neighbor_count, ReplyFields::kMaxNeighbors); ++i) {
        list.push_back({fields.neighbor_id[i], fields.neighbor_score[i]});
      }
      reply.sample = static_cast<int32_t>(samples_.size());
      samples_.push_back(std::move(list));
    }
    if (!fields.has_neighbors) control_[seq] = std::string(text);
    last_seq_ = std::max(last_seq_, seq);
  }

  int fd_;
  const int64_t sample_every_;
  std::string corrupt_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Reply> replies_;
  std::vector<std::vector<Scored>> samples_;
  std::map<int64_t, std::string> control_;
  std::vector<std::string> problems_;
  int64_t last_seq_ = -1;
  bool eof_ = false;
  std::thread thread_;  // Last: starts after the members it uses.
};

// --- Traffic ------------------------------------------------------------------

enum class LineKind : uint8_t { kQuery, kStats, kStatsz, kReload };
enum class QueryKind : uint8_t { kId, kVector, kPoint };

/// One line sent, kept compact: a ladder sends up to a million of them.
struct Sent {
  LineKind kind = LineKind::kQuery;
  QueryKind query = QueryKind::kId;
  int16_t rung = -1;    // -1: not part of a measured rung.
  int32_t id = -1;      // kId: row; kPoint: the segment the point was drawn near.
  int32_t vector = -1;  // kVector: index into the vector pool; kReload: target.
  float dlat = 0.0f, dlng = 0.0f;  // kPoint: offset from the segment midpoint.
  int64_t due_ns = 0;
  int64_t sent_ns = 0;  // When the write that carried the line began.
};

class Traffic {
 public:
  /// Vector queries are a stored row plus small noise, so their top 10 is as
  /// well separated as a by-id query's.
  Traffic(uint64_t seed, const Rows& rows, double share_vector, double share_point,
          double zipf, const std::vector<geo::LatLng>* midpoints)
      : rng_(seed), rows_(rows), n_(rows.n), d_(rows.d), share_vector_(share_vector),
        share_point_(share_point), midpoints_(midpoints) {
    const int64_t n = n_;
    if (zipf > 0.0) {
      order_.resize(static_cast<size_t>(n));
      std::iota(order_.begin(), order_.end(), 0);
      for (int64_t i = n - 1; i > 0; --i) {
        std::swap(order_[static_cast<size_t>(i)],
                  order_[static_cast<size_t>(Below(static_cast<uint64_t>(i + 1)))]);
      }
      double total = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), zipf);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// Draws the next query, appending its request line to `out`.
  Sent Next(std::string* out) {
    Sent sent;
    double u = Uniform();
    char buffer[96];
    if (u < share_vector_) {
      sent.query = QueryKind::kVector;
      sent.vector = static_cast<int32_t>(static_cast<int64_t>(vectors_.size()) / d_);
      out->append("{\"op\":\"query\",\"vector\":[");
      const float* base = rows_.row(DrawId());
      for (int64_t j = 0; j < d_; ++j) {
        float value = base[j] + static_cast<float>(1e-3 * Gaussian());
        vectors_.push_back(value);
        std::snprintf(buffer, sizeof(buffer), j == 0 ? "%.9g" : ",%.9g", value);
        out->append(buffer);
      }
      out->append("],\"k\":10}");
    } else if (u < share_vector_ + share_point_ && midpoints_ != nullptr) {
      sent.query = QueryKind::kPoint;
      sent.id = static_cast<int32_t>(DrawId());
      const geo::LatLng& m = (*midpoints_)[static_cast<size_t>(sent.id)];
      sent.dlat = static_cast<float>((Uniform() - 0.5) * 2e-5);
      sent.dlng = static_cast<float>((Uniform() - 0.5) * 2e-5);
      std::snprintf(buffer, sizeof(buffer),
                    "{\"op\":\"query\",\"lat\":%.9f,\"lng\":%.9f,\"k\":10}",
                    m.lat + sent.dlat, m.lng + sent.dlng);
      out->append(buffer);
    } else {
      sent.query = QueryKind::kId;
      sent.id = static_cast<int32_t>(DrawId());
      std::snprintf(buffer, sizeof(buffer), "{\"op\":\"query\",\"id\":%lld,\"k\":10}",
                    static_cast<long long>(sent.id));
      out->append(buffer);
    }
    return sent;
  }

  const float* vector(int64_t index) const { return vectors_.data() + index * d_; }

  /// Seconds to the next arrival of a Poisson stream with this mean rate.
  double ExponentialGap(double rate) { return -std::log(1.0 - Uniform()) / rate; }

 private:
  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t bound) { return rng_() % bound; }
  double Gaussian() {
    double u1 = std::max(Uniform(), 1e-300), u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
  }
  int64_t DrawId() {
    if (cdf_.empty()) return static_cast<int64_t>(Below(static_cast<uint64_t>(n_)));
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), Uniform()) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

  std::mt19937_64 rng_;
  const Rows& rows_;
  int64_t n_, d_;
  double share_vector_, share_point_;
  const std::vector<geo::LatLng>* midpoints_;
  std::vector<int64_t> order_;
  std::vector<double> cdf_;
  std::vector<float> vectors_;
};

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- The session --------------------------------------------------------------

struct RungResult {
  std::string name;
  double rate = 0.0;
  int64_t sent = 0;
  double cpu_s = 0.0;  // The server's CPU time over the rung, up to its barrier.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double tail_p50_ms = 0.0;
  bool pass = false;
};

struct Config {
  std::vector<std::string> serve_argv;
  std::string stderr_path;
  uint64_t seed = 1;
  double share_vector = 0.0, share_point = 0.0, zipf = 0.0;
  std::string initial_snapshot;
  std::vector<std::string> reload_paths;  // Cycled, one per rung; empty: one probe at the end.
  double high_rate = 0.0, search_from = 0.0;
  int search_max = 6, bisect = 3;
  double fixed_s = 3.0, warmup_s = 0.5;
  int setup_repeats = 5;
  bool quantized = false;
  std::string corrupt;  // Self-test of the checks: "json" or "neighbor".
};

/// The fixed low rung's rate (requests per second) and its number of parts.
constexpr double kLowRate = 1000.0;
constexpr int kLowParts = 3;
/// A rung passes when its p99 (and its last tenth's median) is within this.
/// It sits well above the 10-40 ms stalls of a shared host, so the search
/// finds where a backlog starts rather than where a stall happened to land.
constexpr double kP99LimitMs = 100.0;
/// Search probes multiply the rate by kStep; each probe lasts kProbeS.
constexpr double kStep = 1.25;
constexpr double kProbeS = 0.6;
/// At most this many sampled neighbour lists are checked against the
/// brute-force reference.
constexpr int kMaxChecks = 400;
/// Every this-many-th query reply keeps its neighbour list for checking.
constexpr int64_t kSampleEvery = 16;
/// Shortest gap between two writes of request lines.
constexpr int64_t kWriteQuantumNs = 200'000;

class Session {
 public:
  Session(const Config& config, Traffic& traffic) : config_(config), traffic_(traffic) {}
  ~Session() { Abort(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Launches the server and waits for the first stats reply (set-up time).
  bool Start() {
    int64_t start = NowNs();
    if (!Spawn(config_.serve_argv, config_.stderr_path, &child_)) return false;
    reader_ = std::make_unique<ReplyReader>(child_.out_fd, kSampleEvery, config_.corrupt);
    child_.out_fd = -1;  // Owned by the reader.
    int64_t seq = SendControl(LineKind::kStats, "{\"op\":\"stats\"}", -1);
    if (!reader_->WaitForSeq(seq, 60.0)) return false;
    setup_s_ = static_cast<double>(reader_->Arrival(seq).first - start) * 1e-9;
    return true;
  }

  /// Sends one rung open-loop, then a stats barrier, and judges the rung.
  bool RunRung(double rate, double seconds, RungResult* result) {
    const int rung = rung_count_++;
    const size_t first = log_.size();
    int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
    std::vector<std::string> texts(static_cast<size_t>(n));
    std::vector<Sent> entries(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      entries[static_cast<size_t>(i)] = traffic_.Next(&texts[static_cast<size_t>(i)]);
      entries[static_cast<size_t>(i)].rung = static_cast<int16_t>(rung);
    }
    // Poisson arrivals at the rung's mean rate: a fixed spacing would beat
    // against the engine's 1 ms batch window and make latency bimodal.
    std::vector<int64_t> offset(static_cast<size_t>(n));
    double at_ns = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      at_ns += traffic_.ExponentialGap(rate) * 1e9;
      offset[static_cast<size_t>(i)] = static_cast<int64_t>(at_ns);
    }
    auto due_of = [&](int64_t i) { return t0_ + offset[static_cast<size_t>(i)]; };
    const double cpu_start = ProcessCpuSeconds(child_.pid);
    t0_ = NowNs() + 1'000'000;
    bool reloaded = false;
    std::string batch;
    int64_t last_write = 0;
    for (int64_t i = 0; i < n;) {
      // At most one write per kWriteQuantumNs: waking for every request of a
      // 20k/s rung would spend a core on the generator and perturb the server.
      const int64_t wake = std::max(due_of(i), last_write + kWriteQuantumNs);
      if (NowNs() < wake) SleepUntilNs(wake);
      int64_t now = NowNs();
      last_write = now;
      if (!config_.reload_paths.empty() && !reloaded && i >= n / 2) {
        SendReload(due_of(n / 2));
        reloaded = true;
      }
      batch.clear();
      int64_t j = i;
      for (; j < n && due_of(j) <= now; ++j) {
        batch += texts[static_cast<size_t>(j)];
        batch += '\n';
      }
      const int64_t sent = NowNs();
      if (!WriteAll(child_.in_fd, batch)) return false;
      for (int64_t k = i; k < j; ++k) {
        log_.push_back(entries[static_cast<size_t>(k)]);
        log_.back().due_ns = due_of(k);
        log_.back().sent_ns = sent;
      }
      i = j;
    }
    if (!Barrier()) return false;
    result->cpu_s = ProcessCpuSeconds(child_.pid) - cpu_start;
    Judge(rung, first, rate, result);
    return true;
  }

  /// Reload probe for workloads without scheduled reloads: reloads the live
  /// snapshot file and follows it with the barrier, so the reply is timed
  /// without waiting for later traffic.
  bool ReloadProbe() {
    SendReload(NowNs());
    return Barrier();
  }

  /// Final stats + statsz, then closes stdin and waits for a clean exit.
  bool Finish() {
    bool ok = Barrier();
    int64_t seq = SendControl(LineKind::kStatsz, "{\"op\":\"statsz\"}", -1);
    ok = reader_->WaitForSeq(seq, 60.0) && ok;
    bool clean = false;
    FinishChild(&child_, 30.0, &clean);
    reader_->Join();
    return ok && clean;
  }

  void Abort() {
    if (child_.pid > 0) {
      bool clean = false;
      kill(child_.pid, SIGKILL);
      FinishChild(&child_, 5.0, &clean);
    }
    if (reader_) reader_->Join();
  }

  double setup_s() const { return setup_s_; }
  pid_t pid() const { return child_.pid; }
  const std::deque<Sent>& log() const { return log_; }
  ReplyReader& reader() { return *reader_; }
  /// Seq of the latest barrier line.
  int64_t last_barrier() const { return last_barrier_; }

 private:
  int64_t SendControl(LineKind kind, const std::string& text, int64_t target) {
    Sent entry;
    entry.kind = kind;
    entry.vector = static_cast<int32_t>(target);
    entry.due_ns = entry.sent_ns = NowNs();
    log_.push_back(entry);
    WriteAll(child_.in_fd, text + "\n");
    return static_cast<int64_t>(log_.size()) - 1;
  }

  void SendReload(int64_t due_ns) {
    int64_t target = -1;
    std::string path = config_.initial_snapshot;
    if (!config_.reload_paths.empty()) {
      target = reloads_ % static_cast<int64_t>(config_.reload_paths.size());
      path = config_.reload_paths[static_cast<size_t>(target)];
    }
    ++reloads_;
    SendControl(LineKind::kReload,
                "{\"op\":\"reload\",\"embeddings\":" + JsonQuote(path) + "}", target);
    log_.back().due_ns = due_ns;
  }

  bool Barrier() {
    last_barrier_ = SendControl(LineKind::kStats, "{\"op\":\"stats\"}", -1);
    return reader_->WaitForSeq(last_barrier_, 60.0);
  }

  void Judge(int rung, size_t first, double rate, RungResult* result) {
    result->rate = rate;
    std::vector<std::pair<int64_t, double>> by_due;
    for (size_t seq = first; seq < log_.size(); ++seq) {
      const Sent& entry = log_[seq];
      if (entry.kind != LineKind::kQuery || entry.rung != rung) continue;
      ++result->sent;
      result->late_ms.push_back(static_cast<double>(entry.sent_ns - entry.due_ns) * 1e-6);
      auto [recv, ok] = reader_->Arrival(static_cast<int64_t>(seq));
      if (recv == 0 || !ok) continue;  // Fails the run in the reply checks.
      double latency = static_cast<double>(recv - entry.due_ns) * 1e-6;
      result->latency_ms.push_back(latency);
      by_due.emplace_back(entry.due_ns, latency);
    }
    std::vector<double> tail;
    for (size_t i = by_due.size() - by_due.size() / 10; i < by_due.size(); ++i) {
      tail.push_back(by_due[i].second);
    }
    result->tail_p50_ms = Median(tail);
    result->pass = result->sent > 0 &&
                   Quantile(result->latency_ms, 0.99) <= kP99LimitMs &&
                   result->tail_p50_ms <= kP99LimitMs;
  }

  const Config& config_;
  Traffic& traffic_;
  Child child_;
  std::unique_ptr<ReplyReader> reader_;
  std::deque<Sent> log_;
  double setup_s_ = 0.0;
  int64_t t0_ = 0;
  int64_t reloads_ = 0;
  int64_t last_barrier_ = -1;
  int rung_count_ = 0;
};

/// One short launch: spawn, first stats reply, close. Returns seconds or -1.
double MeasureSetup(const Config& config) {
  Child child;
  int64_t start = NowNs();
  if (!Spawn(config.serve_argv, config.stderr_path, &child)) return -1.0;
  ReplyReader reader(child.out_fd, 1, "");
  child.out_fd = -1;
  double seconds = -1.0;
  if (WriteAll(child.in_fd, "{\"op\":\"stats\"}\n") && reader.WaitForSeq(0, 60.0)) {
    seconds = static_cast<double>(reader.Arrival(0).first - start) * 1e-9;
  }
  bool clean = false;
  FinishChild(&child, 30.0, &clean);
  reader.Join();
  return clean ? seconds : -1.0;
}

// --- Reply validation -------------------------------------------------------------

class Checker {
 public:
  void Fail(const std::string& message) {
    ++failures_;
    if (messages_.size() < 8) messages_.push_back(message);
  }
  int64_t failures() const { return failures_; }
  std::string MessagesJson() const {
    std::string out = "[";
    for (size_t i = 0; i < messages_.size(); ++i) out += (i ? "," : "") + JsonQuote(messages_[i]);
    return out + "]";
  }

 private:
  int64_t failures_ = 0;
  std::vector<std::string> messages_;
};

int64_t AsInt(const JsonValue* value) {
  if (value == nullptr || !value->IsNumber() || value->number < 0 ||
      value->number != std::floor(value->number) || value->number > 9e15) {
    return -1;
  }
  return static_cast<int64_t>(value->number);
}

bool ValidIds(const Rows& rows, int64_t exclude, const std::vector<Scored>& got,
              std::string* why) {
  std::vector<int64_t> seen;
  for (const Scored& g : got) {
    if (g.id < 0 || g.id >= rows.n || g.id == exclude ||
        std::find(seen.begin(), seen.end(), g.id) != seen.end()) {
      *why = "bad neighbour id " + std::to_string(g.id);
      return false;
    }
    seen.push_back(g.id);
  }
  return true;
}

/// Float scan: the reply must be a valid top 10 of the reference rows, i.e.
/// position j carries the reference's j-th best score up to float rounding,
/// each id's own score matches, ids are distinct and exclude the query row.
bool CheckExact(const Rows& rows, const float* query, int64_t exclude,
                const std::vector<Scored>& got, std::string* why) {
  constexpr double kTol = 1e-4;
  std::vector<Scored> want = BruteTopK(rows, query, exclude, 10);
  if (got.size() != want.size()) {
    *why = "neighbour count " + std::to_string(got.size());
    return false;
  }
  if (!ValidIds(rows, exclude, got, why)) return false;
  for (size_t j = 0; j < got.size(); ++j) {
    if (std::fabs(got[j].score - want[j].score) > kTol ||
        std::fabs(got[j].score - Cosine(rows, query, got[j].id)) > kTol) {
      *why = "rank " + std::to_string(j) + " id " + std::to_string(got[j].id) + " score " +
             std::to_string(got[j].score) + " want " + std::to_string(want[j].score);
      return false;
    }
  }
  return true;
}

/// int8 scan: returns recall@10 against the float reference. Every returned
/// row must also score, in float, within kInt8Slack of the true 10th best:
/// quantization may reorder near ties but never return a far worse row.
double CheckInt8(const Rows& rows, const float* query, int64_t exclude,
                 const std::vector<Scored>& got, std::string* why, bool* ok) {
  constexpr double kInt8Slack = 0.02;
  std::vector<Scored> want = BruteTopK(rows, query, exclude, 10);
  *ok = got.size() == want.size() && ValidIds(rows, exclude, got, why);
  if (!*ok) {
    if (why->empty()) *why = "neighbour count " + std::to_string(got.size());
    return 0.0;
  }
  int64_t hits = 0;
  for (const Scored& g : got) {
    for (const Scored& w : want) hits += w.id == g.id;
    if (!want.empty() && Cosine(rows, query, g.id) < want.back().score - kInt8Slack) {
      *why = "neighbour " + std::to_string(g.id) + " is far below the 10th best";
      *ok = false;
    }
  }
  return want.empty() ? 1.0 : static_cast<double>(hits) / static_cast<double>(want.size());
}

std::string RungJson(const RungResult& rung) {
  JsonOut out;
  out.Str("name", rung.name)
      .Num("rate", rung.rate)
      .Num("sent", static_cast<double>(rung.sent))
      .Num("cpu_s", rung.cpu_s)
      .Num("samples", static_cast<double>(rung.latency_ms.size()))
      .Num("p50_ms", Median(rung.latency_ms))
      .Num("p99_ms", Quantile(rung.latency_ms, 0.99))
      .Num("tail_p50_ms", rung.tail_p50_ms)
      .Num("late_p99_ms", Quantile(rung.late_ms, 0.99))
      .Bool("pass", rung.pass);
  return out.Text();
}

}  // namespace

int RunServeLoad(const Flags& flags) {
  signal(SIGPIPE, SIG_IGN);
  Config config;
  config.initial_snapshot = flags.Str("snapshot");
  config.serve_argv = {flags.Str("sarn"), "serve", "--snapshot", config.initial_snapshot};
  config.quantized = flags.Num("quantized", 0) != 0;
  if (config.quantized) {
    config.serve_argv.push_back("--quantized");
    config.serve_argv.push_back("true");
  }
  config.stderr_path = flags.Str("stderr");
  config.seed = static_cast<uint64_t>(flags.Num("seed"));
  config.share_vector = flags.Num("share-vector", 0.0);
  config.share_point = flags.Num("share-point", 0.0);
  config.zipf = flags.Num("zipf", 0.0);
  config.reload_paths = flags.List("reload-paths");
  config.high_rate = flags.Num("high-rate");
  config.search_from = flags.Num("search-from", 0.0);
  config.search_max = static_cast<int>(flags.Num("search-max", 6));
  config.bisect = static_cast<int>(flags.Num("bisect", 3));
  config.fixed_s = flags.Num("fixed-s", 3.0);
  config.warmup_s = flags.Num("warmup-s", 0.5);
  config.setup_repeats = static_cast<int>(flags.Num("setup-repeats", 5));
  config.corrupt = flags.Str("corrupt", "");

  // Reference rows: index 0 is the initial snapshot, then each reload target.
  std::vector<Rows> rows(1 + config.reload_paths.size());
  std::vector<std::string> row_files = flags.List("rows");
  if (row_files.size() != rows.size()) throw std::runtime_error("--rows count mismatch");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!LoadRowsCsv(row_files[i], &rows[i])) throw std::runtime_error("bad rows " + row_files[i]);
  }
  std::vector<geo::LatLng> midpoints;
  if (!flags.Str("network", "").empty()) {
    auto network = roadnet::LoadRoadNetworkCsv(flags.Str("network"));
    if (!network.has_value()) throw std::runtime_error("bad network " + flags.Str("network"));
    midpoints = network->Midpoints();
    if (static_cast<int64_t>(midpoints.size()) != rows[0].n) {
      throw std::runtime_error("network and rows differ in size");
    }
  }
  Traffic traffic(config.seed, rows[0], config.share_vector,
                  midpoints.empty() ? 0.0 : config.share_point, config.zipf,
                  midpoints.empty() ? nullptr : &midpoints);

  Checker checker;
  std::vector<double> setup_samples;
  for (int i = 0; i < config.setup_repeats; ++i) {
    double seconds = MeasureSetup(config);
    if (seconds < 0) checker.Fail("set-up launch failed");
    else setup_samples.push_back(seconds);
  }

  // --- The ladder ---
  Session session(config, traffic);
  std::vector<RungResult> rungs;
  if (!session.Start()) throw std::runtime_error("sarn serve did not answer its first stats line");
  setup_samples.push_back(session.setup_s());
  bool pipe_ok = true;
  auto rung = [&](const std::string& name, double rate, double seconds) {
    rungs.push_back(RungResult{});
    rungs.back().name = name;
    pipe_ok = pipe_ok && session.RunRung(rate, seconds, &rungs.back());
    return pipe_ok && rungs.back().pass;
  };
  // A search probe that fails is run once more and passes if the retry does:
  // this shared host has multi-second spells of lower throughput, and one
  // spell must not end the search early.
  auto probe = [&](const std::string& name, double rate) {
    return rung(name, rate, kProbeS) || rung("retry", rate, kProbeS);
  };
  const double low_part_s = config.fixed_s / kLowParts;
  auto low_part = [&] { return rung("low", kLowRate, low_part_s); };
  rung("warmup", kLowRate, config.warmup_s);
  bool low_pass = low_part();
  const int64_t low_barrier = session.last_barrier();
  const bool high_pass = rung("high", config.high_rate, config.fixed_s);
  low_pass = low_part() && low_pass;
  // Peak memory while serving the fixed schedule; the search below pushes
  // the server past capacity, where the backlog it holds depends on how
  // fast the host happens to be.
  const double peak_rss_mb = ProcessPeakRssMb(session.pid());
  double pass_rate = low_pass ? kLowRate : 0.0;
  double fail_rate = 0.0;
  if (high_pass) {
    pass_rate = config.high_rate;
    double rate = std::max(config.search_from, config.high_rate * kStep);
    for (int i = 0; i < config.search_max && pipe_ok; ++i, rate *= kStep) {
      if (!probe("search", rate)) {
        fail_rate = rate;
        break;
      }
      pass_rate = rate;
    }
  } else {
    fail_rate = config.high_rate;
  }
  for (int i = 0; i < config.bisect && fail_rate > 0.0 && pipe_ok; ++i) {
    const double mid = pass_rate > 0.0 ? std::sqrt(pass_rate * fail_rate) : fail_rate / 2;
    if (probe("bisect", mid)) pass_rate = mid;
    else fail_rate = mid;
  }
  for (int part = 2; part < kLowParts; ++part) low_part();
  if (pipe_ok && config.reload_paths.empty()) pipe_ok = session.ReloadProbe();
  if (pipe_ok) pipe_ok = session.Finish();
  else session.Abort();
  if (!pipe_ok) checker.Fail("serve session broke (pipe, timeout or unclean exit)");

  // --- Validation of every reply ---
  const std::deque<Sent>& log = session.log();
  const ReplyReader& reader = session.reader();
  std::vector<Reply> replies = reader.replies();
  replies.resize(std::max(replies.size(), log.size()));
  if (replies.size() > log.size()) checker.Fail("reply for a seq that was never sent");
  for (const std::string& problem : reader.problems()) checker.Fail(problem);
  std::map<int64_t, JsonValue> control;
  for (const auto& [seq, line] : reader.control()) {
    std::string error;
    if (!ParseJson(line, &control[seq], &error)) checker.Fail("invalid JSON reply: " + error);
  }
  auto control_field = [&](int64_t seq, const char* object, const char* key) -> const JsonValue* {
    auto it = control.find(seq);
    const JsonValue* inner = it != control.end() ? it->second.Find(object) : nullptr;
    return inner != nullptr ? inner->Find(key) : nullptr;
  };

  // Epoch bookkeeping from the reload replies, in seq order.
  std::vector<int64_t> epoch_rows(2, 0);  // epoch -> rows index; epoch 1 = initial.
  std::vector<std::pair<int64_t, int64_t>> reload_done;  // (reply recv_ns, epoch)
  std::vector<std::pair<int64_t, int64_t>> reload_sent;  // (line sent_ns, epoch)
  std::vector<double> reload_ms;
  int64_t last_reload_epoch = 1, last_stats_epoch = 0, unanswered = 0, not_ok = 0;
  for (size_t seq = 0; seq < log.size(); ++seq) {
    const Sent& entry = log[seq];
    const Reply& reply = replies[seq];
    if (reply.recv_ns == 0) {
      ++unanswered;
      checker.Fail("no valid reply for seq " + std::to_string(seq));
      continue;
    }
    if (!reply.ok) {
      ++not_ok;
      checker.Fail("reply not ok for seq " + std::to_string(seq));
      continue;
    }
    if (entry.kind == LineKind::kReload) {
      if (reply.epoch <= last_reload_epoch) checker.Fail("reload epoch did not increase");
      last_reload_epoch = std::max(last_reload_epoch, reply.epoch);
      if (reply.epoch >= static_cast<int64_t>(epoch_rows.size())) {
        epoch_rows.resize(static_cast<size_t>(reply.epoch) + 1, -1);
      }
      if (reply.epoch > 0) epoch_rows[static_cast<size_t>(reply.epoch)] = entry.vector + 1;
      reload_done.emplace_back(reply.recv_ns, reply.epoch);
      reload_sent.emplace_back(entry.sent_ns, reply.epoch);
      reload_ms.push_back(static_cast<double>(reply.recv_ns - entry.sent_ns) * 1e-6);
    } else if (entry.kind == LineKind::kStats) {
      int64_t epoch = AsInt(control_field(static_cast<int64_t>(seq), "stats", "epoch"));
      if (epoch < last_stats_epoch) checker.Fail("stats epoch decreased");
      last_stats_epoch = std::max(last_stats_epoch, epoch);
    } else if (entry.kind == LineKind::kStatsz) {
      if (control.count(static_cast<int64_t>(seq)) == 0 ||
          control[static_cast<int64_t>(seq)].Find("statsz") == nullptr) {
        checker.Fail("statsz reply without statsz");
      }
    }
  }

  // Per query: the epoch was live between send and reply and names a known
  // snapshot, a by-id reply names its row, and sampled neighbour lists match
  // the reference (at most kMaxChecks, spread evenly per query kind).
  int64_t sampled_by_kind[3] = {0, 0, 0}, seen_by_kind[3] = {0, 0, 0};
  for (size_t seq = 0; seq < log.size(); ++seq) {
    if (log[seq].kind == LineKind::kQuery && replies[seq].sample >= 0) {
      ++sampled_by_kind[static_cast<int>(log[seq].query)];
    }
  }
  std::vector<double> recalls;
  int64_t neighbor_checks = 0, neighbor_failures = 0, epoch_failures = 0;
  for (size_t seq = 0; seq < log.size(); ++seq) {
    const Sent& entry = log[seq];
    const Reply& reply = replies[seq];
    if (entry.kind != LineKind::kQuery || reply.recv_ns == 0 || !reply.ok) continue;
    int64_t lo = 1, hi = 1;
    for (const auto& [recv, epoch] : reload_done) {
      if (recv < entry.sent_ns) lo = std::max(lo, epoch);
    }
    for (const auto& [sent, epoch] : reload_sent) {
      if (sent < reply.recv_ns) hi = std::max(hi, epoch);
    }
    if (reply.epoch < lo || reply.epoch > hi ||
        reply.epoch >= static_cast<int64_t>(epoch_rows.size()) ||
        epoch_rows[static_cast<size_t>(reply.epoch)] < 0) {
      ++epoch_failures;
      checker.Fail("seq " + std::to_string(seq) + " epoch " + std::to_string(reply.epoch) +
                   " outside the live range [" + std::to_string(lo) + "," + std::to_string(hi) + "]");
      continue;
    }
    if (entry.query == QueryKind::kId && reply.id != entry.id) {
      checker.Fail("seq " + std::to_string(seq) + " answered for id " + std::to_string(reply.id));
      continue;
    }
    if (reply.sample < 0) continue;
    const int kind = static_cast<int>(entry.query);
    const int64_t stride =
        std::max<int64_t>(1, sampled_by_kind[kind] / (kMaxChecks / 2));
    if (seen_by_kind[kind]++ % stride != 0) continue;
    const std::vector<Scored>& got = reader.samples()[static_cast<size_t>(reply.sample)];
    const Rows& ref = rows[static_cast<size_t>(epoch_rows[static_cast<size_t>(reply.epoch)])];
    const float* query = nullptr;
    int64_t exclude = -1;
    if (entry.query == QueryKind::kVector) {
      query = traffic.vector(entry.vector);
    } else {
      if (entry.query == QueryKind::kPoint) {
        const geo::LatLng& drawn = midpoints[static_cast<size_t>(entry.id)];
        const double lat = drawn.lat + entry.dlat, lng = drawn.lng + entry.dlng;
        // Any segment at the minimum distance is a correct answer (the two
        // directions of a street share a midpoint).
        double best = 1e300;
        for (const geo::LatLng& m : midpoints) {
          best = std::min(best, HaversineMeters(lat, lng, m.lat, m.lng));
        }
        if (reply.id < 0 || reply.id >= ref.n ||
            HaversineMeters(lat, lng, midpoints[static_cast<size_t>(reply.id)].lat,
                            midpoints[static_cast<size_t>(reply.id)].lng) > best + 1e-3) {
          ++neighbor_failures;
          checker.Fail("seq " + std::to_string(seq) + " located segment " +
                       std::to_string(reply.id) + ", not the nearest");
          continue;
        }
      }
      exclude = reply.id;
      query = ref.row(reply.id);
    }
    ++neighbor_checks;
    std::string why;
    bool ok = true;
    if (config.quantized) {
      recalls.push_back(CheckInt8(ref, query, exclude, got, &why, &ok));
    } else {
      ok = CheckExact(ref, query, exclude, got, &why);
      recalls.push_back(ok ? 1.0 : 0.0);
    }
    if (!ok) {
      ++neighbor_failures;
      checker.Fail("seq " + std::to_string(seq) + " neighbours differ from the reference: " + why);
    }
  }
  double recall = recalls.empty() ? 0.0
                                  : std::accumulate(recalls.begin(), recalls.end(), 0.0) /
                                        static_cast<double>(recalls.size());
  if (recalls.empty()) checker.Fail("no neighbour list was checked");
  if (config.quantized && recall < 0.99) {
    checker.Fail("int8 recall@10 " + std::to_string(recall) + " < 0.99");
  }

  // Engine-side numbers: the barrier after the low rung, the final stats and
  // the final statsz.
  auto stat = [&](int64_t seq, const char* key) {
    const JsonValue* value = control_field(seq, "stats", key);
    return value != nullptr && value->IsNumber() ? value->number : -1.0;
  };
  const int64_t final_stats = static_cast<int64_t>(log.size()) - 2;
  double hits = stat(final_stats, "cache_hits");
  double misses = stat(final_stats, "cache_misses");
  double stage_p50[2] = {-1.0, -1.0};
  const JsonValue* stages = control_field(static_cast<int64_t>(log.size()) - 1, "statsz", "stages");
  for (const JsonValue& stage : stages != nullptr ? stages->items : std::vector<JsonValue>{}) {
    const JsonValue* name = stage.Find("stage");
    const JsonValue* p50 = stage.Find("p50_ms");
    if (name == nullptr || p50 == nullptr || !p50->IsNumber()) continue;
    if (name->text == "queue") stage_p50[0] = p50->number;
    if (name->text == "scan") stage_p50[1] = p50->number;
  }

  std::vector<double> late_ms, low_ms, high_ms;
  double low_p50_ms = -1.0;  // The fastest low part's p50.
  double fixed_cpu_s = 0.0;
  int64_t sent = 0, fixed_sent = 0;
  std::string rungs_json = "[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    rungs_json += (i ? "," : "") + RungJson(rungs[i]);
    // A rung past capacity fills the pipe and blocks the writer: that is the
    // server pushing back, so only rungs that passed count as generator lag.
    if (rungs[i].name != "warmup" && rungs[i].pass) {
      late_ms.insert(late_ms.end(), rungs[i].late_ms.begin(), rungs[i].late_ms.end());
    }
    sent += rungs[i].sent;
    const std::vector<double>& ms = rungs[i].latency_ms;
    if (rungs[i].name == "low" && !ms.empty()) {
      low_p50_ms = low_p50_ms < 0 ? Median(ms) : std::min(low_p50_ms, Median(ms));
      low_ms.insert(low_ms.end(), ms.begin(), ms.end());
    }
    if (rungs[i].name == "high") high_ms = ms;
    if (rungs[i].name == "low" || rungs[i].name == "high") {
      fixed_cpu_s += rungs[i].cpu_s;
      fixed_sent += rungs[i].sent;
    }
  }
  rungs_json += "]";

  JsonOut out;
  out.Bool("correct", checker.failures() == 0)
      .Num("failures", static_cast<double>(checker.failures()))
      .Raw("messages", checker.MessagesJson())
      .Num("lines_sent", static_cast<double>(log.size()))
      .Num("queries_sent", static_cast<double>(sent))
      .Num("failed", static_cast<double>(unanswered + not_ok))
      .Num("epoch_failures", static_cast<double>(epoch_failures))
      .Num("neighbor_checks", static_cast<double>(neighbor_checks))
      .Num("neighbor_failures", static_cast<double>(neighbor_failures))
      .Num("recall_at_10", recall)
      .Num("setup_s", Median(setup_samples))
      .Num("setup_samples", static_cast<double>(setup_samples.size()))
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("max_qps", pass_rate)
      .Num("low_p50_ms", low_p50_ms)
      .Num("low_p99_ms", Quantile(low_ms, 0.99))
      .Num("low_samples", static_cast<double>(low_ms.size()))
      .Num("high_p50_ms", Median(high_ms))
      .Num("high_p99_ms", Quantile(high_ms, 0.99))
      .Num("high_samples", static_cast<double>(high_ms.size()))
      .Num("late_p99_ms", Quantile(late_ms, 0.99))
      .Num("cpu_us_per_request", fixed_cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, fixed_sent)))
      .Num("reload_ms", Median(reload_ms))
      .Num("reloads", static_cast<double>(reload_ms.size()))
      .Num("cache_hit_ratio", hits >= 0 && misses >= 0 && hits + misses > 0 ? hits / (hits + misses) : -1.0)
      .Num("mean_batch", stat(final_stats, "mean_batch_size"))
      .Num("queue_p50_ms", stage_p50[0])
      .Num("scan_p50_ms", stage_p50[1])
      .Num("outside_engine_ms", (rungs.size() > 1 ? Median(rungs[1].latency_ms) : 0.0) -
                                    stat(low_barrier, "latency_p50_ms"))
      .Raw("rungs", rungs_json);
  if (!out.WriteFile(flags.Str("out"))) throw std::runtime_error("cannot write --out");
  return 0;
}

}  // namespace perfbench
