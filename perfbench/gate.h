// The correctness gate: after the timed phases, untimed, every served
// answer is compared with BitIdenticalResults against a plain mono Engine
// over the seed content. Every read completes before the write tail
// applies its first batch, so every read must have observed epoch 1. A
// TopK read is compared with the reference's first k results, a page
// with the matching slice of the reference enumeration.
#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "workload.h"

namespace perfbench {

/// A served answer in compact form: scores and member ids, which is all
/// BitIdenticalResults compares.
struct StoredResult {
  std::vector<double> scores;
  std::vector<int64_t> ids;  ///< num_relations ids per combination
};

StoredResult Compact(const std::vector<prj::ResultCombination>& combos);
/// Order-sensitive FNV-1a over the score bits and member ids.
uint64_t Checksum(const std::vector<prj::ResultCombination>& combos);

/// One answer to check: `served` must equal ranks [offset, offset + count)
/// of the reference enumeration for `point` (fewer when the enumeration
/// ends first), observed at `epoch`.
struct ReadCheck {
  uint64_t read = 0;  ///< the read's index in its run, for the report
  const char* kind = "";
  uint32_t point = 0;
  uint32_t offset = 0;
  uint32_t count = 0;
  uint64_t epoch = 1;
  const StoredResult* served = nullptr;
};

struct GateOutcome {
  bool ok = true;
  uint64_t checked = 0;
  std::string first_divergence;
};

GateOutcome RunGate(const Inputs& inputs, const std::vector<ReadCheck>& reads,
                    int threads);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
