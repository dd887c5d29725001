// Seeded inputs of the end-to-end serving benchmark: relations, request
// points, the read mix, the open-loop arrival schedule and the update
// batches. Everything the library sees is generated here from one seed,
// so two runs with the same seed drive identical traffic.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "access/relation.h"
#include "common/vec.h"
#include "live/live_engine.h"

namespace perfbench {

/// One read a user issues: a one-shot TopK (pages == 0) or a paged
/// session of `pages` pages of `k` results each.
struct ReadSpec {
  uint32_t point = 0;  ///< index into Inputs::points
  uint16_t k = 10;     ///< TopK k, or the page size of a session
  uint8_t pages = 0;   ///< 0 = TopK; > 0 = SubmitPage session length
};

/// Fixed, per-workload traffic parameters (see README.md for why each
/// workload exists and how its rate was chosen).
struct TrafficSpec {
  double read_rate = 0.0;   ///< open-loop Poisson arrivals per second
  double think_s = 0.0;     ///< delay between a page's return and the next
  double tail_rate = 0.0;   ///< Apply batches per second in the write tail
  size_t warmup_reads = 0;  ///< closed-loop reads before timing starts
};

struct Inputs {
  TrafficSpec traffic;
  std::vector<prj::Relation> relations;
  std::vector<prj::Vec> points;
  std::vector<ReadSpec> warmup;
  /// Open-loop arrivals: offsets (seconds from the phase start) and reads.
  std::vector<double> arrival_s;
  std::vector<ReadSpec> arrivals;
  /// Closed-loop capacity stream, played to the end: its length is fixed
  /// by the seed and --seconds, never by the host's throughput.
  std::vector<ReadSpec> capacity;
  /// Update batches in apply order; every delete names an id that is live
  /// after all earlier batches, every insert a never-used id.
  std::vector<prj::UpdateBatch> batches;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// How long each timed phase of a run lasts, in seconds.
struct PhaseSeconds {
  double open = 0.0;
  double capacity = 0.0;
  double tail = 0.0;  ///< write tail
};

/// Generates every input of `workload` for a run with the given phase
/// lengths. `tiny` shrinks data and traffic for the self-check.
Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  const PhaseSeconds& phases, bool tiny);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
