#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {
namespace {

// The span open on this thread and the request it serves. Every call
// below Server runs synchronously on the worker that popped the request
// (no scatter pool), so nesting on one thread is exact.
thread_local int32_t tls_open_span = -1;
thread_local uint32_t tls_request = kNoRequest;

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

SeamStats FromExecStats(const prj::ExecStats& s, size_t results) {
  SeamStats out{};
  out.total_s = s.total_seconds;
  out.bound_s = s.bound_seconds;
  out.gather_s = s.gather_seconds;
  out.cost_estimate = s.plan_cost_estimate;
  out.sum_depths = s.sum_depths;
  out.combinations_formed = s.combinations_formed;
  out.shards_pruned = s.shards_pruned;
  out.delta_shards_pruned = s.delta_shards_pruned;
  out.results = results;
  out.pick = s.planned_backend.empty() ? PlanPick::kNone
                                       : ParsePlanPick(s.planned_backend);
  return out;
}

/// Restores the thread's request id when a top-level call returns.
class RequestScope {
 public:
  explicit RequestScope(uint32_t request) : saved_(tls_request) {
    tls_request = request;
  }
  ~RequestScope() { tls_request = saved_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint32_t saved_;
};

/// Cursor decorator: one span per Next. The top (cache-seam) cursor of a
/// paging session learns which page request it is serving from the
/// session tag; inner cursors inherit the id from the enclosing span.
class TracedCursor final : public prj::ResultCursor {
 public:
  TracedCursor(std::unique_ptr<prj::ResultCursor> inner, Layer layer,
               Tracer* tracer, std::shared_ptr<SessionTag> tag)
      : inner_(std::move(inner)),
        layer_(layer),
        tracer_(tracer),
        tag_(std::move(tag)) {}

  prj::Result<std::optional<prj::ResultCombination>> Next() override {
    const uint32_t request =
        tag_ ? tag_->current.load(std::memory_order_acquire) : tls_request;
    const RequestScope scope(request);
    const int32_t span = tracer_->Begin(layer_, SpanOp::kNext, request);
    auto next = inner_->Next();
    tracer_->End(span, next.ok());
    return next;
  }
  prj::ExecStats stats() const override { return inner_->stats(); }
  uint64_t emitted() const override { return inner_->emitted(); }

 private:
  std::unique_ptr<prj::ResultCursor> inner_;
  Layer layer_;
  Tracer* tracer_;
  std::shared_ptr<SessionTag> tag_;  ///< set on the top (cache-seam) cursor
};

}  // namespace

int64_t NowNs() {
  static const auto kOrigin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCache:
      return "cache";
    case Layer::kLive:
      return "live";
    case Layer::kPlan:
      return "plan";
  }
  return "?";
}

const char* SpanOpName(SpanOp op) {
  switch (op) {
    case SpanOp::kTopK:
      return "topk";
    case SpanOp::kOpen:
      return "open";
    case SpanOp::kNext:
      return "next";
  }
  return "?";
}

PlanPick ParsePlanPick(const std::string& name) {
  if (name == "mono[rtree]") return PlanPick::kMonoRTree;
  if (name == "mono[presorted]") return PlanPick::kMonoPresorted;
  if (name.rfind("sharded[prune", 0) == 0) return PlanPick::kShardedPrune;
  if (name.rfind("sharded[noprune", 0) == 0) return PlanPick::kShardedNoPrune;
  return PlanPick::kOther;
}

uint64_t RequestContentKey(const prj::Vec& query, int k, bool page) {
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < query.dim(); ++i) {
    uint64_t bits = 0;
    const double x = query[i];
    std::memcpy(&bits, &x, sizeof(bits));
    h = Mix(h, bits);
  }
  h = Mix(h, static_cast<uint64_t>(k));
  return Mix(h, page ? 1 : 2);
}

Tracer::Tracer(size_t span_capacity)
    : span_capacity_(span_capacity),
      stats_capacity_(span_capacity / 4),
      spans_(std::make_unique_for_overwrite<Span[]>(span_capacity_)),
      stats_(std::make_unique_for_overwrite<SeamStats[]>(stats_capacity_)) {}

void Tracer::Register(uint64_t key, uint32_t id,
                      std::shared_ptr<SessionTag> tag) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_[key].push_back(Pending{id, std::move(tag)});
}

Tracer::Claimed Tracer::Claim(uint64_t key) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(key);
  if (it == registry_.end() || it->second.empty()) return {};
  Claimed out{it->second.front().id, std::move(it->second.front().tag)};
  it->second.pop_front();
  if (it->second.empty()) registry_.erase(it);
  return out;
}

int32_t Tracer::Begin(Layer layer, SpanOp op, uint32_t request) {
  const size_t index = next_span_.fetch_add(1, std::memory_order_relaxed);
  if (index >= span_capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& span = spans_[index];
  span.layer = layer;
  span.op = op;
  span.request = request;
  span.parent = tls_open_span;
  span.stats = -1;
  span.end_ns = 0;
  span.ok = false;
  tls_open_span = static_cast<int32_t>(index);
  span.start_ns = NowNs();
  return static_cast<int32_t>(index);
}

void Tracer::End(int32_t index, bool ok) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.ok = ok;
  tls_open_span = span.parent;
}

void Tracer::Attach(int32_t index, const SeamStats& stats) {
  if (index < 0) return;
  const size_t slot = next_stats_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= stats_capacity_) return;
  stats_[slot] = stats;
  spans_[static_cast<size_t>(index)].stats = static_cast<int32_t>(slot);
}

void Tracer::RecordBuild(int64_t nanos, size_t base_fan_out) {
  std::lock_guard<std::mutex> lock(builds_mu_);
  builds_.push_back(nanos);
  base_fan_out_.store(base_fan_out);
}

void Tracer::Reset() {
  next_span_.store(0);
  next_stats_.store(0);
  dropped_.store(0);
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.clear();
}

size_t Tracer::num_spans() const {
  return std::min(next_span_.load(), span_capacity_);
}

std::vector<int64_t> Tracer::build_nanos() const {
  std::lock_guard<std::mutex> lock(builds_mu_);
  return builds_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "span\tlayer\top\trequest\tparent\tstart_ns\tend_ns\tok\n");
  const size_t n = num_spans();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%s\t%s\t%" PRId64 "\t%d\t%" PRId64 "\t%" PRId64
                      "\t%d\n",
                 i, LayerName(s.layer), SpanOpName(s.op),
                 s.request == kNoRequest ? int64_t{-1}
                                         : static_cast<int64_t>(s.request),
                 s.parent, s.start_ns, s.end_ns, s.ok ? 1 : 0);
  }
  return std::fclose(out) == 0;
}

TracedEngine::TracedEngine(const prj::QueryEngine* inner, Layer layer,
                           Tracer* tracer)
    : inner_(inner), layer_(layer), tracer_(tracer) {}

TracedEngine::TracedEngine(std::unique_ptr<const prj::QueryEngine> inner,
                           Layer layer, Tracer* tracer)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      layer_(layer),
      tracer_(tracer) {}

prj::Result<std::vector<prj::ResultCombination>> TracedEngine::TopK(
    const prj::Vec& query, const prj::ProxRJOptions& options,
    prj::ExecStats* stats_out) const {
  uint32_t request = tls_request;
  if (layer_ == Layer::kCache) {
    request =
        tracer_->Claim(RequestContentKey(query, options.k, false)).id;
  }
  const RequestScope scope(request);
  SeamStats entry{};
  if (layer_ == Layer::kLive) {
    const prj::LiveCounters live = inner_->live_counters();
    entry.delta_tuples = live.delta_tuples;
    entry.tombstones = live.tombstones;
    entry.fan_out = inner_->fan_out();
  }
  prj::ExecStats local;
  prj::ExecStats* stats = stats_out != nullptr ? stats_out : &local;
  const int32_t span = tracer_->Begin(layer_, SpanOp::kTopK, request);
  auto result = inner_->TopK(query, options, stats);
  tracer_->End(span, result.ok());
  if (layer_ != Layer::kCache) {
    SeamStats seam = FromExecStats(*stats, result.ok() ? result->size() : 0);
    seam.delta_tuples = entry.delta_tuples;
    seam.tombstones = entry.tombstones;
    seam.fan_out = entry.fan_out;
    tracer_->Attach(span, seam);
  }
  return result;
}

prj::Result<std::unique_ptr<prj::ResultCursor>> TracedEngine::OpenCursor(
    const prj::QueryRequest& request) const {
  uint32_t id = tls_request;
  std::shared_ptr<SessionTag> tag;
  if (layer_ == Layer::kCache) {
    Tracer::Claimed claimed = tracer_->Claim(
        RequestContentKey(request.query, request.options.k, true));
    id = claimed.id;
    tag = std::move(claimed.tag);
  }
  const RequestScope scope(id);
  SeamStats entry{};
  if (layer_ == Layer::kLive) {
    const prj::LiveCounters live = inner_->live_counters();
    entry.delta_tuples = live.delta_tuples;
    entry.tombstones = live.tombstones;
    entry.fan_out = inner_->fan_out();
  }
  const int32_t span = tracer_->Begin(layer_, SpanOp::kOpen, id);
  auto cursor = inner_->OpenCursor(request);
  tracer_->End(span, cursor.ok());
  if (!cursor.ok()) return cursor.status();
  if (layer_ != Layer::kCache) {
    SeamStats seam = FromExecStats((*cursor)->stats(), 0);
    seam.delta_tuples = entry.delta_tuples;
    seam.tombstones = entry.tombstones;
    seam.fan_out = entry.fan_out;
    tracer_->Attach(span, seam);
  }
  return std::unique_ptr<prj::ResultCursor>(std::make_unique<TracedCursor>(
      std::move(cursor).value(), layer_, tracer_, std::move(tag)));
}

}  // namespace perfbench
