// Benchmark-owned tracing for the traced run: QueryEngine and ResultCursor
// decorators placed at the Server->Cached, Cached->Live and Live->base
// seams. Each call through a seam records one span (layer, operation,
// start, end, parent span, request id) into preallocated memory; the
// run writes the spans out when it ends. Self time of a layer is its span
// time minus the time of the spans nested inside it.
//
// Request ids: Server hands the engine only the request content, so the
// top decorator claims the oldest registered request with the same
// content (the generator registers each TopK read and first page just
// before it submits it, and the server queue is FIFO). Inner decorators
// inherit the id through a thread-local, because every call below the
// server runs synchronously on the worker that popped the request. A
// paging session's later pages are served by the session's existing
// cursor, so they are not registered: the cursor decorator reads the id
// of the page being served from a tag the generator updates before it
// submits each page.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_engine.h"
#include "core/result_cursor.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

/// The seam a span was recorded at, named after the layer whose call it
/// times: "cache" wraps CachedEngine (Server->Cached), "live" wraps
/// LiveEngine (Cached->Live), "plan" wraps the PlannedEngine base that the
/// live layer builds through its factory (Live->base).
enum class Layer : uint8_t { kCache = 0, kLive = 1, kPlan = 2 };
enum class SpanOp : uint8_t { kTopK = 0, kOpen = 1, kNext = 2 };
const char* LayerName(Layer layer);
const char* SpanOpName(SpanOp op);

inline constexpr uint32_t kNoRequest = 0xffffffffu;

/// Plain data without initializers: the store is allocated uninitialized,
/// so only the spans actually recorded become resident memory.
struct Span {
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;   ///< enclosing span on the same thread, -1 if none
  uint32_t request;
  int32_t stats;    ///< index into Tracer::seam_stats(), -1 if none
  Layer layer;
  SpanOp op;
  bool ok;
};

/// Planner roster entries as ExecStats::planned_backend names them.
enum class PlanPick : int8_t {
  kNone = -1,
  kMonoRTree = 0,
  kMonoPresorted = 1,
  kShardedPrune = 2,
  kShardedNoPrune = 3,
  kOther = 4,
};
PlanPick ParsePlanPick(const std::string& planned_backend);

/// ExecStats fields read at a seam (TopK and OpenCursor spans of the live
/// and plan layers), plus live gauges sampled on entry. Plain data like
/// Span; value-initialize (`SeamStats s{}`) before use.
struct SeamStats {
  double total_s;
  double bound_s;
  double gather_s;
  double cost_estimate;
  uint64_t sum_depths;
  uint64_t combinations_formed;
  uint64_t shards_pruned;
  uint64_t delta_shards_pruned;
  uint64_t results;
  uint64_t delta_tuples;  ///< live: live_counters() on entry
  uint64_t tombstones;    ///< live: live_counters() on entry
  uint64_t fan_out;       ///< live: fan_out() on entry
  PlanPick pick;
};

/// Set by the generator before it submits a page, read by the session's
/// cursor decorator when the server serves the page from that cursor.
struct SessionTag {
  std::atomic<uint32_t> current{kNoRequest};
};

/// Content key the top decorator matches requests by.
uint64_t RequestContentKey(const prj::Vec& query, int k, bool page);

class Tracer {
 public:
  /// Preallocates room for `span_capacity` spans and a quarter as many
  /// seam stats; spans past the capacity are counted in dropped() and not
  /// stored.
  explicit Tracer(size_t span_capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Generator side: announces a TopK read or a session's first page
  /// (with the session's tag) just before it is submitted.
  void Register(uint64_t key, uint32_t id, std::shared_ptr<SessionTag> tag);

  struct Claimed {
    uint32_t id = kNoRequest;
    std::shared_ptr<SessionTag> tag;
  };
  /// Top decorator: takes the oldest registered request with this content.
  Claimed Claim(uint64_t key);

  /// Opens a span on the calling thread (nested under the thread's open
  /// span) and returns its index, or -1 when the store is full.
  int32_t Begin(Layer layer, SpanOp op, uint32_t request);
  /// Closes span `index` (no-op for -1) and restores its parent as the
  /// thread's open span.
  void End(int32_t index, bool ok);
  /// Attaches seam stats to a closed span.
  void Attach(int32_t index, const SeamStats& stats);

  /// Factory-call timing: the first call is the setup build, later ones
  /// are compaction rebuilds (run on the compaction thread).
  void RecordBuild(int64_t nanos, size_t base_fan_out);

  /// Forgets everything recorded so far (call while nothing is in flight).
  void Reset();

  size_t num_spans() const;
  const Span& span(size_t i) const { return spans_[i]; }
  const SeamStats& seam_stats(size_t i) const { return stats_[i]; }
  uint64_t dropped() const { return dropped_.load(); }
  std::vector<int64_t> build_nanos() const;
  size_t base_fan_out() const { return base_fan_out_.load(); }

  /// Writes every span as one TSV line; returns false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  size_t span_capacity_;
  size_t stats_capacity_;
  std::unique_ptr<Span[]> spans_;
  std::unique_ptr<SeamStats[]> stats_;
  std::atomic<size_t> next_span_{0};
  std::atomic<size_t> next_stats_{0};
  std::atomic<uint64_t> dropped_{0};

  struct Pending {
    uint32_t id;
    std::shared_ptr<SessionTag> tag;
  };
  std::mutex registry_mu_;
  std::unordered_map<uint64_t, std::deque<Pending>> registry_;

  mutable std::mutex builds_mu_;
  std::vector<int64_t> builds_;
  std::atomic<size_t> base_fan_out_{0};
};

/// QueryEngine decorator recording a span per TopK / OpenCursor call and,
/// through the cursors it returns, per Next call. Forwards everything
/// else unchanged; answers are the inner engine's, untouched.
class TracedEngine final : public prj::QueryEngine {
 public:
  TracedEngine(const prj::QueryEngine* inner, Layer layer, Tracer* tracer);
  /// Owning form, for the base the live layer's factory returns.
  TracedEngine(std::unique_ptr<const prj::QueryEngine> inner, Layer layer,
               Tracer* tracer);

  prj::Result<std::vector<prj::ResultCombination>> TopK(
      const prj::Vec& query, const prj::ProxRJOptions& options,
      prj::ExecStats* stats_out = nullptr) const override;
  prj::Result<std::unique_ptr<prj::ResultCursor>> OpenCursor(
      const prj::QueryRequest& request) const override;

  prj::AccessKind kind() const override { return inner_->kind(); }
  int dim() const override { return inner_->dim(); }
  size_t num_relations() const override { return inner_->num_relations(); }
  size_t fan_out() const override { return inner_->fan_out(); }
  prj::CacheCounters cache_counters() const override {
    return inner_->cache_counters();
  }
  prj::LiveCounters live_counters() const override {
    return inner_->live_counters();
  }
  std::vector<prj::RelationStats> relation_stats() const override {
    return inner_->relation_stats();
  }

 private:
  std::unique_ptr<const prj::QueryEngine> owned_;
  const prj::QueryEngine* inner_;
  Layer layer_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
