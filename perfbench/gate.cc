#include "gate.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/engine.h"
#include "core/scoring.h"

namespace perfbench {
namespace {

using prj::ResultCombination;

std::vector<ResultCombination> Expand(const StoredResult& stored,
                                      size_t num_relations) {
  std::vector<ResultCombination> out(stored.scores.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].score = stored.scores[i];
    out[i].tuples.resize(num_relations);
    for (size_t j = 0; j < num_relations; ++j) {
      out[i].tuples[j].id = stored.ids[i * num_relations + j];
    }
  }
  return out;
}

/// `relations` with each relation's tuples in ascending id order. The
/// order matters: the R-tree access path breaks exact distance ties by
/// storage position, which equals the (distance, id) contract order only
/// for id-ordered relations.
std::vector<prj::Relation> IdOrdered(
    const std::vector<prj::Relation>& relations) {
  std::vector<prj::Relation> out;
  for (const prj::Relation& rel : relations) {
    std::vector<prj::Tuple> tuples(rel.tuples().begin(), rel.tuples().end());
    std::sort(tuples.begin(), tuples.end(),
              [](const prj::Tuple& a, const prj::Tuple& b) {
                return a.id < b.id;
              });
    prj::Relation sorted(rel.name(), rel.dim(), rel.sigma_max());
    for (const prj::Tuple& t : tuples) sorted.Add(t);
    out.push_back(std::move(sorted));
  }
  return out;
}

/// Collects the first divergence (lowest read index) across threads.
class Verdict {
 public:
  void Fail(uint64_t read, std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_ || read < read_) {
      failed_ = true;
      read_ = read;
      message_ = std::move(message);
    }
  }
  void Count(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    checked_ += n;
  }
  bool failed() const { return failed_; }
  uint64_t checked() const { return checked_; }
  const std::string& message() const { return message_; }

 private:
  std::mutex mu_;
  bool failed_ = false;
  uint64_t read_ = 0;
  uint64_t checked_ = 0;
  std::string message_;
};

/// Runs `work` on a gate thread, turning an escaping exception into a
/// gate failure instead of std::terminate.
template <typename Work>
std::thread GateThread(Verdict* verdict, Work work) {
  return std::thread([verdict, work = std::move(work)] {
    try {
      work();
    } catch (const std::exception& e) {
      verdict->Fail(0, std::string("gate thread failed: ") + e.what());
    }
  });
}

/// Checks every read of `reads` (all at one epoch) against `engine`,
/// computing one reference enumeration per distinct point.
void CheckAgainst(const prj::Engine& engine, const Inputs& inputs,
                  const std::vector<const ReadCheck*>& reads,
                  Verdict* verdict) {
  std::map<uint32_t, std::vector<const ReadCheck*>> by_point;
  for (const ReadCheck* read : reads) by_point[read->point].push_back(read);
  const size_t n = inputs.relations.size();
  for (const auto& [point, group] : by_point) {
    uint32_t depth = 0;
    for (const ReadCheck* read : group) {
      depth = std::max(depth, read->offset + read->count);
    }
    prj::ProxRJOptions options;
    options.k = static_cast<int>(depth);
    auto reference = engine.TopK(inputs.points[point], options);
    if (!reference.ok()) {
      verdict->Fail(group.front()->read,
                    "reference TopK failed: " + reference.status().ToString());
      continue;
    }
    for (const ReadCheck* read : group) {
      const size_t begin = std::min<size_t>(read->offset, reference->size());
      const size_t end =
          std::min<size_t>(read->offset + read->count, reference->size());
      const std::vector<ResultCombination> expected(
          reference->begin() + static_cast<std::ptrdiff_t>(begin),
          reference->begin() + static_cast<std::ptrdiff_t>(end));
      std::string why;
      if (!prj::BitIdenticalResults(Expand(*read->served, n), expected,
                                    &why)) {
        char head[256];
        const prj::Vec& q = inputs.points[point];
        std::snprintf(head, sizeof(head),
                      "read %" PRIu64 " (%s, point %u at (%.17g, %.17g), "
                      "ranks [%u, %u), epoch %" PRIu64 "): ",
                      read->read, read->kind, point, q[0], q[1], read->offset,
                      read->offset + read->count, read->epoch);
        verdict->Fail(read->read, head + why);
      }
    }
    verdict->Count(group.size());
  }
}

}  // namespace

StoredResult Compact(const std::vector<ResultCombination>& combos) {
  StoredResult out;
  out.scores.reserve(combos.size());
  for (const ResultCombination& c : combos) {
    out.scores.push_back(c.score);
    for (const prj::Tuple& t : c.tuples) out.ids.push_back(t.id);
  }
  return out;
}

uint64_t Checksum(const std::vector<ResultCombination>& combos) {
  uint64_t h = 1469598103934665603ull;
  for (const ResultCombination& c : combos) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.score, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
    for (const prj::Tuple& t : c.tuples) {
      h = (h ^ static_cast<uint64_t>(t.id)) * 1099511628211ull;
    }
  }
  return h;
}

GateOutcome RunGate(const Inputs& inputs, const std::vector<ReadCheck>& reads,
                    int threads) {
  for (const ReadCheck& read : reads) {
    if (read.epoch != 1) {
      return {false, 0,
              "read " + std::to_string(read.read) + " observed epoch " +
                  std::to_string(read.epoch) +
                  ", but every read precedes the first update"};
    }
  }
  const prj::SumLogEuclideanScoring scoring(1.0, 1.0, 1.0);
  auto engine = prj::Engine::Create(IdOrdered(inputs.relations),
                                    prj::AccessKind::kDistance, &scoring);
  if (!engine.ok()) {
    return {false, 0, "reference engine: " + engine.status().ToString()};
  }
  // Split by point, so each reference enumeration is computed once.
  Verdict verdict;
  threads = std::max(1, threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.push_back(GateThread(&verdict, [&, t] {
      std::vector<const ReadCheck*> mine;
      for (const ReadCheck& read : reads) {
        if (read.point % static_cast<uint32_t>(threads) ==
            static_cast<uint32_t>(t)) {
          mine.push_back(&read);
        }
      }
      CheckAgainst(*engine, inputs, mine, &verdict);
    }));
  }
  for (std::thread& th : pool) th.join();
  return {!verdict.failed(), verdict.checked(), verdict.message()};
}

}  // namespace perfbench
