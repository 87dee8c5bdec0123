// Fig 10(c): index maintenance — average update time on a compressed
// MVBT vs a standard MVBT, under a stream of 68% inserts / 32% deletes
// (the mix the paper measured from the real Wikipedia edit history).
// Paper result: updates on the compressed index cost only ~5% more.
//
// Deletes retract any live triple — the base load's or one the stream
// inserted — so they close entries in the compressed live leaves that
// CompressAll leaves behind, not only in the plain leaves the stream's
// own inserts fill. After each size both graphs must pass
// analysis::ValidateTemporalGraph and return identical full scans of all
// four indices; the bench exits 1 otherwise.
//
// The series is printed first; google-benchmark then measures the
// per-update microcosts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "analysis/invariants.h"
#include "bench_common.h"
#include "util/rng.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;

struct UpdateStream {
  std::vector<TemporalTriple> base;
  Chronon start_time = 0;
};

UpdateStream MakeBase(size_t triples) {
  Fixture f = MakeWikipedia(triples);
  UpdateStream s;
  s.base = f.data.triples;
  s.start_time = f.data.horizon + 1;
  return s;
}

/// The triples live in `graph` now, in SPO order.
std::vector<Triple> LiveTriples(const TemporalGraph& graph) {
  std::vector<Triple> live;
  live.reserve(graph.live_size());
  graph.index(IndexOrder::kSpo)
      .QuerySnapshot(mvbt::KeyRange{}, graph.last_time(),
                     [&](const mvbt::Key3& k) {
                       live.push_back(
                           TemporalGraph::DecodeKey(IndexOrder::kSpo, k));
                     });
  return live;
}

/// Applies `updates` operations (68% insert / 32% delete of a random
/// live triple) and returns average microseconds per update.
double RunUpdates(TemporalGraph* graph, Chronon start_time, size_t updates,
                  uint64_t seed) {
  Rng rng(seed);
  Chronon t = start_time;
  std::vector<Triple> live = LiveTriples(*graph);
  live.reserve(live.size() + updates);
  uint64_t next_id = 1ull << 40;
  size_t applied = 0;
  double seconds = TimeSeconds([&] {
    while (applied < updates) {
      t += rng.Uniform(2);
      if (live.empty() || rng.Bernoulli(0.68)) {
        Triple triple{next_id, next_id + 1, next_id + 2};
        next_id += 3;
        if (graph->Assert(triple, t).ok()) {
          live.push_back(triple);
          ++applied;
        }
      } else {
        size_t pick = rng.Uniform(live.size());
        if (graph->Retract(live[pick], t).ok()) {
          live[pick] = live.back();
          live.pop_back();
          ++applied;
        }
      }
    }
  });
  return seconds * 1e6 / static_cast<double>(updates);
}

using Fragment = std::tuple<mvbt::Key3, Chronon, Chronon>;

/// Every validity fragment of one index, sorted.
std::vector<Fragment> AllFragments(const TemporalGraph& graph,
                                   IndexOrder order) {
  std::vector<Fragment> out;
  graph.index(order).QueryRange(
      mvbt::KeyRange{}, Interval::All(),
      [&](const mvbt::Key3& k, const Interval& iv) {
        out.emplace_back(k, iv.start, iv.end);
      });
  std::sort(out.begin(), out.end());
  return out;
}

/// Both graphs validate and hold the same fragments in every index.
bool GraphsAgree(const TemporalGraph& standard,
                 const TemporalGraph& compressed, size_t updates) {
  bool ok = true;
  for (const TemporalGraph* g : {&standard, &compressed}) {
    const Status st = analysis::ValidateTemporalGraph(*g);
    if (!st.ok()) {
      std::fprintf(stderr, "INVALID GRAPH after %zu updates: %s\n", updates,
                   st.ToString().c_str());
      ok = false;
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto order = static_cast<IndexOrder>(i);
    if (AllFragments(standard, order) != AllFragments(compressed, order)) {
      std::fprintf(stderr,
                   "SCAN MISMATCH after %zu updates: index %d differs "
                   "between the standard and compressed graphs\n",
                   updates, i);
      ok = false;
    }
  }
  return ok;
}

const UpdateStream& SharedBase() {
  static UpdateStream s = MakeBase(Scaled(100000));
  return s;
}

void BM_UpdateStandardMvbt(benchmark::State& state) {
  TemporalGraph graph(TemporalGraphOptions{.compress_leaves = false});
  if (!graph.Load(SharedBase().base).ok()) std::abort();
  Chronon t = SharedBase().start_time;
  uint64_t id = 1ull << 44;
  for (auto _ : state) {
    Triple triple{id, id + 1, id + 2};
    id += 3;
    benchmark::DoNotOptimize(graph.Assert(triple, t));
    benchmark::DoNotOptimize(graph.Retract(triple, ++t));
  }
}
BENCHMARK(BM_UpdateStandardMvbt)->Unit(benchmark::kMicrosecond);

void BM_UpdateCompressedMvbt(benchmark::State& state) {
  TemporalGraph graph(TemporalGraphOptions{.compress_leaves = true});
  if (!graph.Load(SharedBase().base).ok()) std::abort();
  graph.CompressAll();
  Chronon t = SharedBase().start_time;
  uint64_t id = 1ull << 44;
  for (auto _ : state) {
    Triple triple{id, id + 1, id + 2};
    id += 3;
    benchmark::DoNotOptimize(graph.Assert(triple, t));
    benchmark::DoNotOptimize(graph.Retract(triple, ++t));
  }
}
BENCHMARK(BM_UpdateCompressedMvbt)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeriesHeader(
      "Fig 10(c): index maintenance time (68% insert / 32% delete)",
      {"updates", "standard_us_per_update", "compressed_us_per_update",
       "overhead_pct"});
  const UpdateStream& base = SharedBase();
  int failures = 0;
  for (size_t base_updates : {20000u, 40000u, 60000u, 80000u, 100000u}) {
    const size_t updates = Scaled(base_updates);
    TemporalGraph standard(TemporalGraphOptions{.compress_leaves = false});
    if (!standard.Load(base.base).ok()) return 1;
    double std_us = RunUpdates(&standard, base.start_time, updates, 7);

    TemporalGraph compressed(TemporalGraphOptions{.compress_leaves = true});
    if (!compressed.Load(base.base).ok()) return 1;
    compressed.CompressAll();
    double cmp_us = RunUpdates(&compressed, base.start_time, updates, 7);

    PrintSeriesRow({std::to_string(updates), Fmt(std_us), Fmt(cmp_us),
                    Fmt(100.0 * (cmp_us / std_us - 1.0))});
    if (!GraphsAgree(standard, compressed, updates)) ++failures;
  }
  std::printf("\n");
  if (failures != 0) return 1;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
