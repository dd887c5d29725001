// End-to-end serving benchmark: Server -> CachedEngine -> LiveEngine ->
// PlannedEngine -> Engine / ShardedEngine, driven in-process by one
// generator thread.
//
//   e2e_bench --workload hot_reads|cold_reads --seed N --seconds S
//             --trace 0|1 [--tiny] [--spans-out PATH]
//
// --trace 0 measures the end-to-end metrics on an undecorated stack:
// repeated set-up (median), a closed-loop warm-up, an open loop of
// Poisson reads (0.6 S), a closed-loop capacity phase over a fixed number
// of reads (planned at 0.15 S) and a write tail of Apply batches after
// every read has completed (0.25 S). --trace 1 runs the same open loop
// twice for 0.45 S each: once undecorated, once with span-recording
// decorators at every seam (tracing.h) followed by a write tail (0.1 S),
// and prints the per-layer metrics. Both modes then check every answer
// against a plain Engine (gate.h), print a one-line report with
// provenance and sample counts, and print the result object as the last
// line of stdout. A wrong answer prints the first divergence and exits 1.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cache/cached_engine.h"
#include "core/scoring.h"
#include "gate.h"
#include "index/mbr_kernels.h"
#include "live/live_engine.h"
#include "plan/cost_model.h"
#include "plan/planned_engine.h"
#include "server/server.h"
#include "tracing.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr size_t kReadsInFlight = 2 * kWorkers;  // closed-loop depth
constexpr int kSetupRepeats = 11;
// The report's stall diagnostic: the median over consecutive windows of
// at least this many samples of each window's p99 (see WindowedP99).
constexpr size_t kWindowSamples = 1000;
// A run whose generator sent later than this at p99 fell behind its
// open-loop schedule; its latencies are flagged in the report.
constexpr double kMaxLagP99Ms = 1.0;
// Between events the generator blocks on its oldest in-flight read, so
// that read's completion wakes it at once without holding a CPU. It wakes
// kSpinNs before the next due time and spins from there, so sends stay on
// schedule. While reads are in flight it also wakes kSliceNs after it
// started waiting, to collect reads that completed out of order (two
// workers serve the queue): such a completion is seen at most kSliceNs
// late.
constexpr int64_t kSpinNs = 50'000;
constexpr int64_t kSliceNs = 20'000;

enum class OpType : uint8_t { kTopK, kFirstPage, kNextPage, kApply };
enum class Phase : uint8_t { kWarmup, kOpen, kCapacity, kTail };

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kTopK:
      return "topk";
    case OpType::kFirstPage:
      return "first_page";
    case OpType::kNextPage:
      return "next_page";
    case OpType::kApply:
      return "apply";
  }
  return "?";
}

bool IsRead(OpType t) { return t != OpType::kApply; }

struct OpRecord {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  uint64_t epoch = 0;
  uint64_t result = 0;  ///< checksum key into ResultLog
  uint64_t page_cost_depths = 0;
  uint64_t partial_hits = 0;  ///< this page's replayed results
  uint64_t resumes = 0;       ///< this page's freshly computed results
  uint32_t point = 0;
  uint32_t offset = 0;  ///< global rank of a page's first result
  uint16_t k = 0;
  OpType type = OpType::kTopK;
  Phase phase = Phase::kOpen;
  bool ok = false;
  bool has_result = false;
};

/// Served answers, stored once per distinct content (keyed by checksum).
class ResultLog {
 public:
  uint64_t Intern(const std::vector<prj::ResultCombination>& combos) {
    const uint64_t key = Checksum(combos);
    if (results_.find(key) == results_.end()) {
      results_.emplace(key, Compact(combos));
    }
    return key;
  }
  const StoredResult* Find(uint64_t key) const {
    auto it = results_.find(key);
    return it == results_.end() ? nullptr : &it->second;
  }
  void Reserve(size_t n) { results_.reserve(n); }

 private:
  std::unordered_map<uint64_t, StoredResult> results_;
};

// ----------------------------------------------------------------------
// The stack under test.

/// Member order is teardown order reversed: the server stops first, the
/// live layer (and its compaction thread) last.
struct Stack {
  std::unique_ptr<prj::LiveEngine> live;
  std::unique_ptr<TracedEngine> live_seam;
  std::unique_ptr<prj::CachedEngine> cached;
  std::unique_ptr<TracedEngine> cache_seam;
  std::unique_ptr<prj::Server> server;
};

/// The live layer's base: a PlannedEngine over the checked-in cost
/// coefficients, roster mono R-tree / mono presorted / sharded sequential
/// with prune on and off (scatter_threads 0: no scatter pool). With a
/// tracer, the factory call is timed and the base gets the plan seam.
prj::BaseEngineFactory PlannedFactory(const prj::ScoringFunction* scoring,
                                      const prj::PlanCoefficients& coeffs,
                                      Tracer* tracer) {
  return [scoring, coeffs, tracer](const std::vector<prj::Relation>& rels)
             -> prj::Result<std::unique_ptr<const prj::QueryEngine>> {
    const int64_t start = tracer != nullptr ? NowNs() : 0;
    prj::PlannedEngineOptions options;
    options.coefficients = coeffs;
    auto planned = prj::PlannedEngine::Create(
        rels, prj::AccessKind::kDistance, scoring, options);
    if (!planned.ok()) return planned.status();
    auto engine =
        std::make_unique<const prj::PlannedEngine>(std::move(*planned));
    if (tracer == nullptr) {
      return std::unique_ptr<const prj::QueryEngine>(std::move(engine));
    }
    tracer->RecordBuild(NowNs() - start, engine->fan_out());
    return std::unique_ptr<const prj::QueryEngine>(
        std::make_unique<TracedEngine>(std::move(engine), Layer::kPlan,
                                       tracer));
  };
}

/// Builds the stack and returns the set-up time: from the first Create
/// call until the Server's workers are running.
prj::Result<double> BuildStack(const Inputs& in,
                               const prj::ScoringFunction* scoring,
                               const prj::PlanCoefficients& coeffs,
                               Tracer* tracer, Stack* stack) {
  const int64_t start = NowNs();
  auto live = prj::LiveEngine::Create(in.relations, prj::AccessKind::kDistance,
                                      scoring,
                                      PlannedFactory(scoring, coeffs, tracer));
  if (!live.ok()) return live.status();
  stack->live = std::move(*live);
  const prj::QueryEngine* below_cache = stack->live.get();
  if (tracer != nullptr) {
    stack->live_seam = std::make_unique<TracedEngine>(below_cache,
                                                      Layer::kLive, tracer);
    below_cache = stack->live_seam.get();
  }
  stack->cached = std::make_unique<prj::CachedEngine>(below_cache);
  const prj::QueryEngine* top = stack->cached.get();
  if (tracer != nullptr) {
    stack->cache_seam =
        std::make_unique<TracedEngine>(top, Layer::kCache, tracer);
    top = stack->cache_seam.get();
  }
  prj::ServerOptions server_options;
  server_options.num_workers = kWorkers;
  stack->server = std::make_unique<prj::Server>(top, server_options);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

// ----------------------------------------------------------------------
// The generator: one thread that sends reads on schedule, collects their
// completions from the futures (see kSpinNs for how it waits between
// events), and applies the write tail's update batches synchronously.

class LoadGenerator {
 public:
  LoadGenerator(const Inputs& in, Stack* stack, Tracer* tracer, ResultLog* log)
      : in_(in), stack_(stack), tracer_(tracer), log_(log) {
    const size_t reads = in.warmup.size() + in.arrivals.size() +
                         in.capacity.size();
    records_.reserve(5 * reads + in.batches.size() + 16);
    log_->Reserve(2 * reads);
  }

  void Warmup() { ClosedLoop(in_.warmup, Phase::kWarmup); }

  /// Poisson arrivals for `seconds`; sessions' next pages a think time
  /// after the previous page returned.
  void OpenLoop(double seconds) {
    const int64_t start = NowNs() + 1'000'000;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t think = static_cast<int64_t>(in_.traffic.think_s * 1e9);
    size_t arrival = 0;
    std::priority_queue<std::pair<int64_t, uint32_t>,
                        std::vector<std::pair<int64_t, uint32_t>>,
                        std::greater<>>
        pages;
    std::vector<std::pair<uint32_t, int64_t>> continuing;
    for (;;) {
      continuing.clear();
      Poll(&continuing);
      for (const auto& [session, done] : continuing) {
        if (done + think < end) pages.push({done + think, session});
      }
      int64_t due = INT64_MAX;
      bool page = false;
      if (arrival < in_.arrivals.size()) {
        due = start + static_cast<int64_t>(in_.arrival_s[arrival] * 1e9);
      }
      if (!pages.empty() && pages.top().first < due) {
        due = pages.top().first;
        page = true;
      }
      if (due == INT64_MAX && inflight_.empty()) break;
      if (due > NowNs()) {
        Wait(due);
        continue;
      }
      if (page) {
        const uint32_t session = pages.top().second;
        pages.pop();
        SendPage(session, due, Phase::kOpen);
      } else {
        Send(in_.arrivals[arrival++], due, Phase::kOpen);
      }
    }
  }

  /// Closed loop over the whole capacity stream with kReadsInFlight reads
  /// outstanding; returns reads completed per second.
  double Capacity() {
    const int64_t start = NowNs();
    ClosedLoop(in_.capacity, Phase::kCapacity);
    uint64_t reads = 0;
    int64_t last = start;
    for (const OpRecord& rec : records_) {
      if (rec.phase == Phase::kCapacity && rec.ok) {
        ++reads;
        last = std::max(last, rec.done_ns);
      }
    }
    return last > start ? static_cast<double>(reads) /
                              (static_cast<double>(last - start) * 1e-9)
                        : 0.0;
  }

  /// Write tail, after every read has completed: Apply batches at the
  /// tail rate, in cycles that stay just under the compaction threshold,
  /// each followed by an untimed synchronous Compact(). It times the bare
  /// Apply path; a background compaction racing the applies made their
  /// cost differ by 2x from one process to the next.
  void Tail() {
    const size_t per_batch = 2 * in_.relations.size();  // 1 insert, 1 delete
    const size_t cycle =
        (prj::LiveEngineOptions{}.compact_threshold - 1) / per_batch;
    int64_t start = NowNs();
    for (size_t j = 0; next_batch_ < in_.batches.size(); ++j) {
      if (j > 0 && j % cycle == 0) {
        const prj::Status compacted = stack_->live->Compact();
        if (!compacted.ok()) {
          throw std::runtime_error("Compact: " + compacted.ToString());
        }
        start = NowNs() - static_cast<int64_t>(static_cast<double>(j) * 1e9 /
                                               in_.traffic.tail_rate);
      }
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(j + 1) * 1e9 /
                                       in_.traffic.tail_rate);
      while (NowNs() < due) Wait(due);
      ApplyNext(due);
    }
  }

  const std::vector<OpRecord>& records() const { return records_; }

 private:
  struct Session {
    uint32_t point = 0;
    uint16_t k = 0;
    uint8_t pages = 0;
    uint8_t done = 0;
    std::string token;
    std::shared_ptr<SessionTag> tag;
    uint64_t partial_hits = 0;
    uint64_t resumes = 0;
  };
  struct InFlight {
    uint32_t record = 0;
    uint32_t session = 0;
    bool page = false;
    std::future<prj::QueryResult> topk;
    std::future<prj::PageResult> next;
  };

  /// Waits for `due` or for the oldest in-flight read, whichever comes
  /// first, without holding the CPU; see kSpinNs.
  void Wait(int64_t due) const {
    const int64_t now = NowNs();
    const int64_t wake = due == INT64_MAX ? INT64_MAX : due - kSpinNs;
    if (wake <= now) return;
    if (inflight_.empty()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      return;
    }
    const auto limit = std::chrono::nanoseconds(std::min(wake - now, kSliceNs));
    const InFlight& oldest = inflight_.front();
    if (oldest.page) {
      oldest.next.wait_for(limit);
    } else {
      oldest.topk.wait_for(limit);
    }
  }

  prj::QueryRequest Request(uint32_t point, int k) const {
    prj::QueryRequest request;
    request.query = in_.points[point];
    request.options.k = k;
    return request;
  }

  uint32_t NewRecord(OpType type, Phase phase, int64_t due, uint32_t point,
                     uint16_t k) {
    OpRecord rec;
    rec.type = type;
    rec.phase = phase;
    rec.due_ns = due;
    rec.point = point;
    rec.k = k;
    records_.push_back(rec);
    return static_cast<uint32_t>(records_.size() - 1);
  }

  void Send(const ReadSpec& spec, int64_t due, Phase phase) {
    if (spec.pages > 0) {
      Session session;
      session.point = spec.point;
      session.k = spec.k;
      session.pages = spec.pages;
      if (tracer_ != nullptr) session.tag = std::make_shared<SessionTag>();
      sessions_.push_back(std::move(session));
      SendPage(static_cast<uint32_t>(sessions_.size() - 1), due, phase);
      return;
    }
    const uint32_t id =
        NewRecord(OpType::kTopK, phase, due, spec.point, spec.k);
    prj::QueryRequest request = Request(spec.point, spec.k);
    if (tracer_ != nullptr) {
      tracer_->Register(RequestContentKey(request.query, spec.k, false), id,
                        nullptr);
    }
    InFlight f;
    f.record = id;
    records_[id].send_ns = NowNs();
    f.topk = stack_->server->Submit(std::move(request));
    inflight_.push_back(std::move(f));
  }

  void SendPage(uint32_t s, int64_t due, Phase phase) {
    Session& session = sessions_[s];
    const uint32_t id =
        NewRecord(session.done == 0 ? OpType::kFirstPage : OpType::kNextPage,
                  phase, due, session.point, session.k);
    prj::QueryRequest request = Request(session.point, session.k);
    if (tracer_ != nullptr) {
      session.tag->current.store(id, std::memory_order_release);
      if (session.done == 0) {
        tracer_->Register(RequestContentKey(request.query, session.k, true),
                          id, session.tag);
      }
    }
    InFlight f;
    f.record = id;
    f.session = s;
    f.page = true;
    records_[id].send_ns = NowNs();
    f.next = stack_->server->SubmitPage(std::move(request), session.token);
    inflight_.push_back(std::move(f));
  }

  void ApplyNext(int64_t due) {
    const uint32_t id = NewRecord(OpType::kApply, Phase::kTail, due, 0, 0);
    records_[id].send_ns = NowNs();
    const prj::Status status = stack_->live->Apply(in_.batches[next_batch_]);
    records_[id].done_ns = NowNs();
    records_[id].ok = status.ok();
    ++next_batch_;
  }

  /// Collects every completed read, keeping the rest in send order;
  /// sessions with pages left are returned in `continuing` with their
  /// completion time.
  void Poll(std::vector<std::pair<uint32_t, int64_t>>* continuing) {
    size_t kept = 0;
    for (size_t i = 0; i < inflight_.size(); ++i) {
      InFlight& f = inflight_[i];
      const bool ready =
          f.page ? f.next.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready
                 : f.topk.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
      if (!ready) {
        if (kept != i) inflight_[kept] = std::move(f);
        ++kept;
        continue;
      }
      const int64_t done = NowNs();
      OpRecord& rec = records_[f.record];
      rec.done_ns = done;
      if (!f.page) {
        const prj::QueryResult qr = f.topk.get();
        rec.ok = qr.ok();
        if (rec.ok) {
          rec.result = log_->Intern(qr.combinations);
          rec.has_result = true;
          rec.epoch = qr.stats.data_epoch;
        }
      } else {
        const prj::PageResult page = f.next.get();
        Session& session = sessions_[f.session];
        rec.ok = page.result.ok();
        if (rec.ok) {
          const prj::ExecStats& stats = page.result.stats;
          rec.result = log_->Intern(page.result.combinations);
          rec.has_result = true;
          rec.epoch = stats.data_epoch;
          rec.offset = static_cast<uint32_t>(page.page_start);
          rec.page_cost_depths = page.page_cost_depths;
          // View counters are cumulative per cursor; a reopened session
          // (stale token) starts a new cursor from zero.
          rec.partial_hits = stats.cursor_partial_hits >= session.partial_hits
                                 ? stats.cursor_partial_hits -
                                       session.partial_hits
                                 : stats.cursor_partial_hits;
          rec.resumes = stats.cursor_resumes >= session.resumes
                            ? stats.cursor_resumes - session.resumes
                            : stats.cursor_resumes;
          session.partial_hits = stats.cursor_partial_hits;
          session.resumes = stats.cursor_resumes;
          session.token = page.next_page_token;
          ++session.done;
          if (session.done < session.pages && !session.token.empty()) {
            continuing->push_back({f.session, done});
          }
        }
      }
    }
    inflight_.resize(kept);
  }

  /// Plays `specs` to the end with kReadsInFlight reads outstanding; a
  /// session's next page goes out as soon as its previous page returns.
  void ClosedLoop(const std::vector<ReadSpec>& specs, Phase phase) {
    size_t next = 0;
    std::vector<uint32_t> ready;
    std::vector<std::pair<uint32_t, int64_t>> continuing;
    for (;;) {
      continuing.clear();
      Poll(&continuing);
      for (const auto& entry : continuing) ready.push_back(entry.first);
      if (inflight_.size() >= kReadsInFlight) {
        Wait(INT64_MAX);
      } else if (!ready.empty()) {
        const uint32_t session = ready.back();
        ready.pop_back();
        SendPage(session, NowNs(), phase);
      } else if (next < specs.size()) {
        Send(specs[next++], NowNs(), phase);
      } else if (!inflight_.empty()) {
        Wait(INT64_MAX);
      } else {
        break;
      }
    }
  }

  const Inputs& in_;
  Stack* stack_;
  Tracer* tracer_;
  ResultLog* log_;
  std::vector<OpRecord> records_;
  std::vector<Session> sessions_;
  std::vector<InFlight> inflight_;  ///< in send order
  size_t next_batch_ = 0;
};

// ----------------------------------------------------------------------
// Statistics and output.

struct Quantile {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;  ///< samples above the rank
};

/// Nearest-rank quantile.
Quantile QuantileOf(std::vector<double> v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double exact = q * static_cast<double>(v.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(exact)), 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

/// A diagnostic beside each gated p99, which is the plain p99 of the run:
/// the samples (in time order) are cut into consecutive windows of at
/// least kWindowSamples, and the median of the windows' p99s is returned.
/// A p99 well above this median was set by a few stalls, not by a tail
/// that recurs through the run. With fewer than 2 * kWindowSamples
/// samples this is the plain p99.
double WindowedP99(const std::vector<double>& samples) {
  const size_t n = samples.size();
  const size_t windows = std::max<size_t>(1, n / kWindowSamples);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const auto at = [&](size_t i) {
      return samples.begin() + static_cast<std::ptrdiff_t>(n * i / windows);
    };
    p99s.push_back(
        QuantileOf(std::vector<double>(at(w), at(w + 1)), 0.99).value);
  }
  std::sort(p99s.begin(), p99s.end());
  const size_t mid = p99s.size() / 2;
  return p99s.size() % 2 == 1 ? p99s[mid] : (p99s[mid - 1] + p99s[mid]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An insertion-ordered list of named metrics with units and, for
/// quantiles, the sample counts behind them.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit, false, {}});
  }
  void AddQuantile(const std::string& name, const Quantile& q,
                   const char* unit) {
    entries_.push_back({name, q.value, unit, true, q});
  }
  /// The metrics object of the result line.
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(entries_[i].name) + ": {\"value\": " +
             Num(entries_[i].value) + ", \"unit\": " +
             Quote(entries_[i].unit) + "}";
    }
    return out + "}";
  }
  /// Sample count and samples beyond the rank of every quantile.
  std::string SamplesJson() const {
    std::string out = "{";
    bool first = true;
    for (const Entry& e : entries_) {
      if (!e.quantile) continue;
      if (!first) out += ", ";
      first = false;
      out += Quote(e.name) + ": {\"n\": " + std::to_string(e.q.n) +
             ", \"beyond\": " + std::to_string(e.q.beyond) + "}";
    }
    return out + "}";
  }
  /// Quantiles that rest on fewer than 10 samples beyond their rank
  /// (empty quantiles are reported as 0 and listed too).
  std::vector<std::string> Thin() const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) {
      if (e.quantile && e.q.beyond < 10) out.push_back(e.name);
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    bool quantile;
    Quantile q;
  };
  std::vector<Entry> entries_;
};

std::vector<double> Latencies(const std::vector<OpRecord>& records,
                              OpType type, Phase phase) {
  std::vector<double> out;
  for (const OpRecord& rec : records) {
    if (rec.type == type && rec.phase == phase && rec.ok) {
      out.push_back(static_cast<double>(rec.done_ns - rec.due_ns) * 1e-6);
    }
  }
  return out;
}

Quantile GeneratorLagP99(const std::vector<OpRecord>& records) {
  std::vector<double> lag;
  for (const OpRecord& rec : records) {
    if (rec.phase == Phase::kOpen) {
      lag.push_back(static_cast<double>(rec.send_ns - rec.due_ns) * 1e-6);
    }
  }
  return QuantileOf(lag, 0.99);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Appends the reads of one run to the gate's input.
void GateInput(const std::vector<OpRecord>& records, const ResultLog& log,
               std::vector<ReadCheck>* reads) {
  for (size_t i = 0; i < records.size(); ++i) {
    const OpRecord& rec = records[i];
    if (!IsRead(rec.type) || !rec.has_result) continue;
    ReadCheck check;
    check.read = i;
    check.kind = OpTypeName(rec.type);
    check.point = rec.point;
    check.offset = rec.offset;
    check.count = rec.k;
    check.epoch = rec.epoch;
    check.served = log.Find(rec.result);
    reads->push_back(check);
  }
}

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Counts CountOps(const std::vector<OpRecord>& records) {
  Counts c;
  for (const OpRecord& rec : records) {
    ++c.attempted;
    if (!rec.ok) ++c.failed;
  }
  return c;
}

/// Adds the latency percentiles of the open loop's reads and the write
/// tail's applies; returns the windowed-p99 diagnostic as a JSON object.
std::string AddEndToEnd(const std::vector<OpRecord>& records, Metrics* m) {
  const std::pair<const char*, std::vector<double>> kinds[] = {
      {"topk", Latencies(records, OpType::kTopK, Phase::kOpen)},
      {"first_page", Latencies(records, OpType::kFirstPage, Phase::kOpen)},
      {"next_page", Latencies(records, OpType::kNextPage, Phase::kOpen)},
      {"apply", Latencies(records, OpType::kApply, Phase::kTail)},
  };
  std::string windowed = "{";
  for (const auto& [kind, samples] : kinds) {
    const std::string name = kind;
    m->AddQuantile(name + "_p50_ms", QuantileOf(samples, 0.5), "ms");
    m->AddQuantile(name + "_p99_ms", QuantileOf(samples, 0.99), "ms");
    windowed += (windowed.size() > 1 ? ", " : "") + Quote(name + "_p99_ms") +
                ": " + Num(WindowedP99(samples));
  }
  return windowed + "}";
}

// ----------------------------------------------------------------------
// Per-layer attribution of the traced run.

struct TracedPhase {
  std::vector<OpRecord> records;
  prj::CacheCounters query_before, query_after;
  prj::CacheCounters cursor_before, cursor_after;
  uint64_t compactions_before = 0, compactions_after = 0;
  size_t queue_high_water = 0;
};

void AddPerLayer(const TracedPhase& phase, const Tracer& tracer,
                 double untraced_topk_p50, Metrics* m) {
  const std::vector<OpRecord>& records = phase.records;
  const size_t n = records.size();
  std::vector<int64_t> top_first(n, INT64_MAX), top_busy(n, 0),
      live_busy(n, 0), plan_busy(n, 0);
  std::vector<char> has_live(n, 0);

  std::vector<double> plan_self_us, cost_ratio, exec_ms, bound_ms,
      pull_form_ms, prune_rate, gather_ms, delta_tuples, tombstones;
  double picks[5] = {0, 0, 0, 0, 0};
  double live_topk = 0, base_calls = 0, delta_shards = 0, delta_pruned = 0;
  double depths = 0, formed = 0, results = 0;
  const double base_fan_out = static_cast<double>(tracer.base_fan_out());

  for (size_t i = 0; i < tracer.num_spans(); ++i) {
    const Span& s = tracer.span(i);
    const int64_t dur = s.end_ns - s.start_ns;
    if (s.request < n) {
      const uint32_t r = s.request;
      if (s.layer == Layer::kCache) {
        top_first[r] = std::min(top_first[r], s.start_ns);
        top_busy[r] += dur;
      } else if (s.layer == Layer::kLive) {
        live_busy[r] += dur;
        has_live[r] = 1;
      } else {
        plan_busy[r] += dur;
      }
    }
    if (s.stats < 0) continue;
    const SeamStats& st = tracer.seam_stats(static_cast<size_t>(s.stats));
    if (s.layer == Layer::kPlan) {
      if (st.pick != PlanPick::kNone) picks[static_cast<int>(st.pick)] += 1;
      if (s.op != SpanOp::kTopK || !s.ok) continue;
      plan_self_us.push_back(static_cast<double>(dur) * 1e-3 -
                             (st.total_s + st.gather_s) * 1e6);
      if (st.cost_estimate > 0) {
        cost_ratio.push_back(st.total_s / st.cost_estimate);
      }
      exec_ms.push_back(st.total_s * 1e3);
      bound_ms.push_back(st.bound_s * 1e3);
      pull_form_ms.push_back((st.total_s - st.bound_s) * 1e3);
      if (st.pick == PlanPick::kShardedPrune ||
          st.pick == PlanPick::kShardedNoPrune) {
        prune_rate.push_back(
            Ratio(static_cast<double>(st.shards_pruned), base_fan_out));
        gather_ms.push_back(st.gather_s * 1e3);
      }
      if (s.parent >= 0 &&
          tracer.span(static_cast<size_t>(s.parent)).layer == Layer::kLive &&
          tracer.span(static_cast<size_t>(s.parent)).op == SpanOp::kTopK) {
        base_calls += 1;
      }
    } else if (s.layer == Layer::kLive) {
      delta_tuples.push_back(static_cast<double>(st.delta_tuples));
      tombstones.push_back(static_cast<double>(st.tombstones));
      if (s.op != SpanOp::kTopK || !s.ok) continue;
      live_topk += 1;
      delta_shards += std::max(0.0, static_cast<double>(st.fan_out) -
                                        base_fan_out);
      delta_pruned += static_cast<double>(st.delta_shards_pruned);
      depths += static_cast<double>(st.sum_depths);
      formed += static_cast<double>(st.combinations_formed);
      results += static_cast<double>(st.results);
    }
  }

  std::vector<double> queue_wait_ms, server_self_us, hit_us, miss_self_us,
      live_self_ms, next_depths, lag_ms;
  double partial = 0, resumes = 0;
  for (size_t r = 0; r < n; ++r) {
    const OpRecord& rec = records[r];
    if (rec.phase != Phase::kOpen || !IsRead(rec.type) || !rec.ok) continue;
    if (top_first[r] != INT64_MAX) {
      const int64_t wait = top_first[r] - rec.due_ns;
      queue_wait_ms.push_back(static_cast<double>(wait) * 1e-6);
      server_self_us.push_back(
          static_cast<double>(rec.done_ns - rec.due_ns - wait - top_busy[r]) *
          1e-3);
    }
    if (rec.type == OpType::kTopK && top_first[r] != INT64_MAX) {
      if (has_live[r]) {
        miss_self_us.push_back(
            static_cast<double>(top_busy[r] - live_busy[r]) * 1e-3);
      } else {
        hit_us.push_back(static_cast<double>(top_busy[r]) * 1e-3);
      }
    }
    if (has_live[r]) {
      live_self_ms.push_back(
          static_cast<double>(live_busy[r] - plan_busy[r]) * 1e-6);
    }
    if (rec.type == OpType::kNextPage) {
      next_depths.push_back(static_cast<double>(rec.page_cost_depths));
    }
    if (rec.type != OpType::kTopK) {
      partial += static_cast<double>(rec.partial_hits);
      resumes += static_cast<double>(rec.resumes);
    }
  }

  auto hit_rate = [](const prj::CacheCounters& a, const prj::CacheCounters& b) {
    const double hits = static_cast<double>(b.hits - a.hits);
    const double misses = static_cast<double>(b.misses - a.misses);
    return Ratio(hits, hits + misses);
  };
  const double total_picks =
      picks[0] + picks[1] + picks[2] + picks[3] + picks[4];
  const std::vector<int64_t> builds = tracer.build_nanos();
  std::vector<double> compaction_ms;
  for (size_t i = 1; i < builds.size(); ++i) {
    compaction_ms.push_back(static_cast<double>(builds[i]) * 1e-6);
  }
  const auto traced_topk = Latencies(records, OpType::kTopK, Phase::kOpen);

  m->AddQuantile("server.queue_wait_ms.p50", QuantileOf(queue_wait_ms, 0.5),
                 "ms");
  m->AddQuantile("server.queue_wait_ms.p99", QuantileOf(queue_wait_ms, 0.99), "ms");
  m->AddQuantile("server.self_us.p50", QuantileOf(server_self_us, 0.5), "us");
  m->Add("server.queue_high_water",
         static_cast<double>(phase.queue_high_water), "count");
  m->AddQuantile("generator.lag_ms.p99", GeneratorLagP99(records), "ms");
  m->Add("cache.query.hit_rate",
         hit_rate(phase.query_before, phase.query_after), "ratio");
  m->Add("cache.query.evictions",
         static_cast<double>(phase.query_after.evictions -
                             phase.query_before.evictions),
         "count");
  m->Add("cache.query.coalesced",
         static_cast<double>(phase.query_after.coalesced -
                             phase.query_before.coalesced),
         "count");
  m->Add("cache.cursor.hit_rate",
         hit_rate(phase.cursor_before, phase.cursor_after), "ratio");
  m->Add("cache.cursor.replay_share", Ratio(partial, partial + resumes),
         "ratio");
  m->AddQuantile("cache.hit_us.p50", QuantileOf(hit_us, 0.5), "us");
  m->AddQuantile("cache.hit_us.p99", QuantileOf(hit_us, 0.99), "us");
  m->AddQuantile("cache.miss_self_us.p50", QuantileOf(miss_self_us, 0.5),
                 "us");
  m->AddQuantile("live.self_ms.p50", QuantileOf(live_self_ms, 0.5), "ms");
  m->AddQuantile("live.self_ms.p99", QuantileOf(live_self_ms, 0.99), "ms");
  m->Add("live.base_calls_per_read", Ratio(base_calls, live_topk), "calls");
  m->Add("live.delta_tuples.mean", Mean(delta_tuples), "count");
  m->Add("live.tombstones.mean", Mean(tombstones), "count");
  m->Add("live.delta_shards_pruned_rate", Ratio(delta_pruned, delta_shards),
         "ratio");
  m->Add("live.compactions",
         static_cast<double>(phase.compactions_after -
                             phase.compactions_before),
         "count");
  m->AddQuantile("live.compaction_build_ms.p50", QuantileOf(compaction_ms, 0.5),
                 "ms");
  m->Add("plan.build_s", builds.empty() ? 0.0 : builds[0] * 1e-9, "s");
  m->AddQuantile("plan.self_us.p50", QuantileOf(plan_self_us, 0.5), "us");
  m->Add("plan.pick_share.mono_rtree", Ratio(picks[0], total_picks), "ratio");
  m->Add("plan.pick_share.mono_presorted", Ratio(picks[1], total_picks),
         "ratio");
  m->Add("plan.pick_share.sharded_prune", Ratio(picks[2], total_picks),
         "ratio");
  m->Add("plan.pick_share.sharded_noprune", Ratio(picks[3], total_picks),
         "ratio");
  m->AddQuantile("plan.cost_ratio.p50", QuantileOf(cost_ratio, 0.5), "ratio");
  m->AddQuantile("plan.cost_ratio.p90", QuantileOf(cost_ratio, 0.9), "ratio");
  m->Add("shard.prune_rate", Mean(prune_rate), "ratio");
  m->AddQuantile("shard.gather_ms.p50", QuantileOf(gather_ms, 0.5), "ms");
  m->AddQuantile("core.exec_ms.p50", QuantileOf(exec_ms, 0.5), "ms");
  m->AddQuantile("core.exec_ms.p99", QuantileOf(exec_ms, 0.99), "ms");
  m->AddQuantile("core.bound_ms.p50", QuantileOf(bound_ms, 0.5), "ms");
  m->AddQuantile("core.pull_form_ms.p50", QuantileOf(pull_form_ms, 0.5), "ms");
  m->Add("core.sum_depths_per_read", Ratio(depths, live_topk), "count");
  m->Add("core.combinations_per_result", Ratio(formed, results), "ratio");
  m->Add("core.next_page_depths", Mean(next_depths), "count");
  m->Add("trace.overhead_ratio",
         Ratio(QuantileOf(traced_topk, 0.5).value, untraced_topk_p50),
         "ratio");
}

// ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  if (!have_workload) return false;
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), args->workload) != names.end();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "e2e_bench: %s\n", message.c_str());
  return 2;
}

int Run(const Args& args) {
  // The generator's timed waits (LoadGenerator::Wait) must wake within
  // microseconds, not the default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  PhaseSeconds phases;
  if (args.trace) {
    phases.open = 0.45 * args.seconds;
    phases.tail = 0.1 * args.seconds;
  } else {
    phases.open = 0.6 * args.seconds;
    phases.capacity = 0.15 * args.seconds;
    phases.tail = 0.25 * args.seconds;
  }
  const Inputs in = MakeInputs(args.workload, args.seed, phases, args.tiny);
  auto coeffs = prj::PlanCoefficients::LoadFile("plan_coefficients.json");
  if (!coeffs.ok()) {
    return Fail("plan_coefficients.json: " + coeffs.status().ToString());
  }
  const prj::SumLogEuclideanScoring scoring(1.0, 1.0, 1.0);

  Metrics metrics;
  std::vector<ReadCheck> gate_reads;
  ResultLog log;
  Counts counts;
  Quantile lag;
  std::string mode_report;

  if (!args.trace) {
    std::vector<double> setups;
    auto stack = std::make_unique<Stack>();
    for (int i = 0; i < (args.tiny ? 1 : kSetupRepeats); ++i) {
      stack = std::make_unique<Stack>();  // tears the previous one down
      auto setup = BuildStack(in, &scoring, *coeffs, nullptr, stack.get());
      if (!setup.ok()) return Fail("set-up: " + setup.status().ToString());
      setups.push_back(*setup);
    }
    LoadGenerator generator(in, stack.get(), nullptr, &log);
    generator.Warmup();
    generator.OpenLoop(phases.open);
    const double capacity = generator.Capacity();
    generator.Tail();
    const prj::ServerStats server_stats = stack->server->Stats();
    stack.reset();
    counts = CountOps(generator.records());
    lag = GeneratorLagP99(generator.records());
    GateInput(generator.records(), log, &gate_reads);
    const double rss = PeakRssMb();

    metrics.AddQuantile("setup_s", QuantileOf(setups, 0.5), "s");
    const std::string windowed = AddEndToEnd(generator.records(), &metrics);
    metrics.Add("read_capacity_qps", capacity, "reads/s");
    metrics.Add("peak_rss_mb", rss, "MB");
    mode_report = "\"windowed_p99\": " + windowed +
                  ", \"queue_high_water\": " +
                  std::to_string(server_stats.queue_high_water) +
                  ", \"compactions\": " +
                  std::to_string(server_stats.compactions);
  } else {
    // Untraced reference for the overhead ratio.
    double untraced_p50 = 0.0;
    {
      auto stack = std::make_unique<Stack>();
      auto setup = BuildStack(in, &scoring, *coeffs, nullptr, stack.get());
      if (!setup.ok()) return Fail("set-up: " + setup.status().ToString());
      LoadGenerator generator(in, stack.get(), nullptr, &log);
      generator.Warmup();
      generator.OpenLoop(phases.open);
      stack.reset();
      untraced_p50 =
          QuantileOf(
              Latencies(generator.records(), OpType::kTopK, Phase::kOpen), 0.5)
              .value;
      counts = CountOps(generator.records());
      GateInput(generator.records(), log, &gate_reads);
    }
    // Pages record a span per result per seam; TopK reads one per seam.
    Tracer tracer(48 * (in.warmup.size() + in.arrivals.size()) + 65536);
    auto stack = std::make_unique<Stack>();
    auto setup = BuildStack(in, &scoring, *coeffs, &tracer, stack.get());
    if (!setup.ok()) return Fail("set-up: " + setup.status().ToString());
    LoadGenerator generator(in, stack.get(), &tracer, &log);
    generator.Warmup();
    tracer.Reset();
    TracedPhase phase;
    phase.query_before = stack->cached->cache().counters();
    phase.cursor_before = stack->cached->cursor_cache().counters();
    phase.compactions_before = stack->live->live_counters().compactions;
    generator.OpenLoop(phases.open);
    phase.query_after = stack->cached->cache().counters();
    phase.cursor_after = stack->cached->cursor_cache().counters();
    phase.queue_high_water = stack->server->Stats().queue_high_water;
    generator.Tail();
    phase.compactions_after = stack->live->live_counters().compactions;
    stack.reset();
    phase.records = generator.records();
    AddPerLayer(phase, tracer, untraced_p50, &metrics);
    const Counts traced = CountOps(generator.records());
    counts.attempted += traced.attempted;
    counts.failed += traced.failed;
    lag = GeneratorLagP99(generator.records());
    GateInput(generator.records(), log, &gate_reads);
    if (!args.spans_out.empty() && !tracer.WriteTsv(args.spans_out)) {
      return Fail("cannot write spans to " + args.spans_out);
    }
    mode_report = "\"spans\": " + std::to_string(tracer.num_spans()) +
                  ", \"spans_dropped\": " + std::to_string(tracer.dropped()) +
                  ", \"spans_file\": " + Quote(args.spans_out);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const GateOutcome gate =
      RunGate(in, gate_reads, static_cast<int>(std::clamp(hw, 1u, 4u)));
  const std::vector<std::string> thin = metrics.Thin();
  std::string thin_json = "[";
  for (size_t i = 0; i < thin.size(); ++i) {
    thin_json += (i ? ", " : "") + Quote(thin[i]);
  }
  thin_json += "]";

  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"tiny\": %s, \"nproc\": %u, "
      "\"cpu_model\": %s, \"kernel_isa\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"read_rate\": %s, \"tail_rate\": %s, "
      "\"think_ms\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"error_frac\": %s, \"generator_lag_p99_ms\": %s, "
      "\"behind_schedule\": %s, \"gate_checked\": %" PRIu64
      ", %s, \"samples\": %s, \"thin_quantiles\": %s}}\n",
      Quote(args.workload).c_str(), args.seed, Num(args.seconds).c_str(),
      args.trace, args.tiny ? "true" : "false", hw, Quote(CpuModel()).c_str(),
      Quote(prj::MbrKernelIsa()).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(Compiler()).c_str(), Num(in.traffic.read_rate).c_str(),
      Num(in.traffic.tail_rate).c_str(), Num(in.traffic.think_s * 1e3).c_str(),
      counts.attempted, counts.failed,
      Num(Ratio(static_cast<double>(counts.failed),
                static_cast<double>(counts.attempted)))
          .c_str(),
      Num(lag.value).c_str(), lag.value > kMaxLagP99Ms ? "true" : "false",
      gate.checked, mode_report.c_str(), metrics.SamplesJson().c_str(),
      thin_json.c_str());
  if (!gate.ok) {
    std::fprintf(stderr, "e2e_bench: correctness gate FAILED: %s\n",
                 gate.first_divergence.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              gate.ok ? "true" : "false", counts.attempted, counts.failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return gate.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload hot_reads|cold_reads "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
