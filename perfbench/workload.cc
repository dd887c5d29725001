#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/random.h"
#include "workload/cities.h"

namespace perfbench {
namespace {

using prj::Relation;
using prj::Rng;
using prj::Tuple;
using prj::Vec;

constexpr int kNumRelations = 3;

// Star ratings: five score levels, skewed towards 3-4 stars like review
// sites. Exact score ties are the norm, not the exception.
double StarScore(Rng* rng) {
  static constexpr double kCdf[] = {0.05, 0.15, 0.40, 0.75, 1.0};
  const double u = rng->NextDouble();
  int stars = 1;
  while (stars < 5 && u >= kCdf[stars - 1]) ++stars;
  return stars / 5.0;
}

double Exponential(Rng* rng, double rate) {
  return -std::log(1.0 - rng->NextDouble()) / rate;
}

/// Draws Zipf(s)-distributed ranks in [0, n) by inverting the CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Live content as the update generator tracks it, so that deletes only
/// ever name live ids and inserts never reuse one.
struct LiveSet {
  std::vector<int64_t> ids;
  std::vector<Vec> positions;
  int64_t next_id = 0;
};

struct Layout {
  bool star = false;      ///< star-rated grid data (else the cities map)
  double grid = 0.25;     ///< data grid step (km), star data only
  int cells = 200;        ///< data grid side in cells, star data only
};

/// The five simulated cities of workload/cities.h side by side, 60 km
/// apart, with ids made unique across cities.
std::vector<Relation> CitiesMap(std::vector<Vec>* landmarks) {
  std::vector<Relation> out;
  const auto& codes = prj::CityCodes();
  for (size_t c = 0; c < codes.size(); ++c) {
    const prj::CityDataset city = prj::MakeCityDataset(codes[c]);
    const double dx = 60.0 * static_cast<double>(c);
    landmarks->push_back(Vec{city.query[0] + dx, city.query[1]});
    for (size_t r = 0; r < city.relations.size(); ++r) {
      if (out.size() <= r) {
        out.emplace_back(city.relations[r].name(), 2,
                         city.relations[r].sigma_max());
      }
      for (const Tuple& t : city.relations[r].tuples()) {
        out[r].Add(static_cast<int64_t>(c) * 100000 + t.id, t.score,
                   Vec{t.x[0] + dx, t.x[1]});
      }
    }
  }
  return out;
}

std::vector<Relation> StarRatedGrid(const Layout& layout, int per_relation,
                                    Rng* rng) {
  static const char* kNames[] = {"hotels", "restaurants", "theaters"};
  std::vector<Relation> out;
  for (int r = 0; r < kNumRelations; ++r) {
    Relation rel(kNames[r], 2);
    for (int i = 0; i < per_relation; ++i) {
      const double x = layout.grid * static_cast<double>(rng->NextBounded(
                                         static_cast<uint64_t>(layout.cells)));
      const double y = layout.grid * static_cast<double>(rng->NextBounded(
                                         static_cast<uint64_t>(layout.cells)));
      rel.Add(i, StarScore(rng), Vec{x, y});
    }
    out.push_back(std::move(rel));
  }
  return out;
}

/// `count` distinct request points on the half-step grid over the data
/// extent: every cold read is new, yet distance ties stay common.
std::vector<Vec> DistinctGridPoints(const Layout& layout, size_t count,
                                    Rng* rng) {
  const uint64_t side = static_cast<uint64_t>(layout.cells) * 2;
  const uint64_t total = side * side;
  if (count > total) throw std::runtime_error("request grid too small");
  std::vector<uint32_t> cells(total);
  std::iota(cells.begin(), cells.end(), 0u);
  std::vector<Vec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t j = i + rng->NextBounded(total - i);
    std::swap(cells[i], cells[j]);
    const double step = layout.grid / 2.0;
    out.push_back(Vec{step * static_cast<double>(cells[i] % side),
                      step * static_cast<double>(cells[i] / side)});
  }
  return out;
}

/// One batch: one insert and one delete in every relation.
prj::UpdateBatch NextBatch(const Layout& layout, std::vector<LiveSet>* live,
                           Rng* rng) {
  prj::UpdateBatch batch;
  batch.relations.resize(live->size());
  for (size_t r = 0; r < live->size(); ++r) {
    LiveSet& set = (*live)[r];
    const size_t victim = rng->NextBounded(set.ids.size());
    Vec pos;
    if (layout.star) {
      pos = Vec{layout.grid * static_cast<double>(rng->NextBounded(
                                  static_cast<uint64_t>(layout.cells))),
                layout.grid * static_cast<double>(rng->NextBounded(
                                  static_cast<uint64_t>(layout.cells)))};
    } else {
      const Vec& near = set.positions[rng->NextBounded(set.positions.size())];
      pos = rng->GaussianAround(near, 0.2);
    }
    const int64_t id = set.next_id++;
    batch.relations[r].inserts.push_back(Tuple{id, StarScore(rng), pos});
    batch.relations[r].deletes.push_back(set.ids[victim]);
    // Swap-remove the victim, then add the insert: it becomes deletable
    // by later batches only.
    set.ids[victim] = set.ids.back();
    set.positions[victim] = set.positions.back();
    set.ids.back() = id;
    set.positions.back() = pos;
  }
  return batch;
}

std::vector<LiveSet> TrackLive(const std::vector<Relation>& relations,
                               int64_t first_new_id) {
  std::vector<LiveSet> live(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    for (const Tuple& t : relations[r].tuples()) {
      live[r].ids.push_back(t.id);
      live[r].positions.push_back(t.x);
    }
    live[r].next_id = first_new_id;
  }
  return live;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"hot_reads", "cold_reads"};
  return names;
}

Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  const PhaseSeconds& phases, bool tiny) {
  const bool hot = workload == "hot_reads";
  if (!hot && workload != "cold_reads") {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  Inputs in;
  // Independent streams per input kind: changing how many reads one
  // phase draws never shifts the data or the update batches.
  Rng data_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Rng point_rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  Rng mix_rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  Rng arrival_rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  Rng update_rng(seed * 0x9e3779b97f4a7c15ULL + 5);

  Layout layout;
  TrafficSpec& t = in.traffic;
  t.think_s = 0.005;
  t.tail_rate = 500.0;
  // Reads the closed-loop capacity phase plays per second of its planned
  // length: about the stack's capacity on the reference host when it is
  // quiet, so the phase lasts about as planned there and longer on a
  // slower or busier host.
  double capacity_qps = 0.0;
  if (hot) {
    t.read_rate = tiny ? 400.0 : 4000.0;
    t.warmup_reads = tiny ? 200 : 6000;
    capacity_qps = tiny ? 2000.0 : 40000.0;
  } else {
    layout.star = true;
    layout.cells = tiny ? 40 : 200;
    t.read_rate = tiny ? 100.0 : 400.0;
    t.warmup_reads = tiny ? 20 : 300;
    capacity_qps = tiny ? 500.0 : 4000.0;
  }

  // --- data ---
  std::vector<Vec> landmarks;
  if (hot) {
    in.relations = CitiesMap(&landmarks);
  } else {
    in.relations = StarRatedGrid(layout, tiny ? 400 : 10000, &data_rng);
  }

  // --- read mix: one-shot TopK and paged sessions ---
  // Hot traffic is mostly TopK, the path its result cache serves, which
  // also keeps its many concurrent page sessions well below the server's
  // 64-session cap.
  const double session_share = hot ? 0.2 : 0.5;
  auto draw_mix = [&](uint32_t point) {
    ReadSpec spec;
    spec.point = point;
    if (mix_rng.NextDouble() >= session_share) {
      spec.pages = 0;
      if (hot) {
        spec.k = 10;
      } else {
        const double u = mix_rng.NextDouble();
        spec.k = u < 0.8 ? 10 : (u < 0.9 ? 1 : 50);
      }
    } else {
      spec.k = 10;
      spec.pages =
          hot ? 3 : static_cast<uint8_t>(2 + mix_rng.NextBounded(3));
    }
    return spec;
  };

  // --- arrival schedule ---
  for (double at = Exponential(&arrival_rng, t.read_rate); at < phases.open;
       at += Exponential(&arrival_rng, t.read_rate)) {
    in.arrival_s.push_back(at);
  }
  // Pages count as reads: a session spec stands for `pages` of them.
  const size_t capacity_reads =
      static_cast<size_t>(std::ceil(capacity_qps * phases.capacity));
  auto fill_capacity = [&](auto draw) {
    for (size_t reads = 0; reads < capacity_reads;) {
      in.capacity.push_back(draw());
      reads += std::max<size_t>(1, in.capacity.back().pages);
    }
  };

  if (hot) {
    // ~4k request points near landmarks and POIs (district cores), drawn
    // with Zipf popularity: more keys than the 1024-entry result cache,
    // skewed so most reads hit and misses stay well above 1%.
    const size_t pool = tiny ? 256 : 4096;
    for (size_t i = 0; i < pool; ++i) {
      if (point_rng.NextDouble() < 0.25) {
        const Vec& lm = landmarks[point_rng.NextBounded(landmarks.size())];
        in.points.push_back(point_rng.GaussianAround(lm, 0.4));
      } else {
        const Relation& rel =
            in.relations[point_rng.NextBounded(in.relations.size())];
        const Tuple& poi = rel.tuple(point_rng.NextBounded(rel.size()));
        in.points.push_back(point_rng.GaussianAround(poi.x, 0.3));
      }
    }
    std::vector<uint32_t> popularity(pool);
    std::iota(popularity.begin(), popularity.end(), 0u);
    for (size_t i = pool; i > 1; --i) {
      std::swap(popularity[i - 1], popularity[mix_rng.NextBounded(i)]);
    }
    // Sessions page through a more concentrated set of popular queries,
    // so first pages mostly hit the 64-entry cursor cache (~50% hits
    // would put the first-page median between the hit and miss modes).
    const ZipfSampler topk_zipf(pool, 1.2);
    const ZipfSampler session_zipf(pool, 1.5);
    auto draw = [&]() {
      ReadSpec spec = draw_mix(0);
      const ZipfSampler& zipf = spec.pages > 0 ? session_zipf : topk_zipf;
      spec.point = popularity[zipf.Draw(&mix_rng)];
      return spec;
    };
    for (size_t i = 0; i < t.warmup_reads; ++i) in.warmup.push_back(draw());
    for (size_t i = 0; i < in.arrival_s.size(); ++i) {
      in.arrivals.push_back(draw());
    }
    fill_capacity(draw);
  } else {
    // Every cold read gets a point no earlier read used (the capacity
    // stream has at most `capacity_reads` specs).
    const size_t needed =
        t.warmup_reads + in.arrival_s.size() + capacity_reads;
    in.points = DistinctGridPoints(layout, needed, &point_rng);
    uint32_t next = 0;
    for (size_t i = 0; i < t.warmup_reads; ++i) {
      in.warmup.push_back(draw_mix(next++));
    }
    for (size_t i = 0; i < in.arrival_s.size(); ++i) {
      in.arrivals.push_back(draw_mix(next++));
    }
    fill_capacity([&] { return draw_mix(next++); });
  }

  // --- update batches ---
  // The write tail applies for ~60% of its time; the untimed compactions
  // between its cycles take the rest.
  const size_t batches =
      static_cast<size_t>(std::ceil(0.6 * t.tail_rate * phases.tail));
  std::vector<LiveSet> live =
      TrackLive(in.relations, hot ? 10'000'000 : 1'000'000);
  for (size_t b = 0; b < batches; ++b) {
    in.batches.push_back(NextBatch(layout, &live, &update_rng));
  }
  return in;
}

}  // namespace perfbench
