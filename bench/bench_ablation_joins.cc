// Ablation: temporal join algorithms (paper §5.2.2). The paper uses the
// hash join by default and switches to the optimized synchronized join
// when a query pattern accesses a large portion of the index (the hash
// table becomes the bottleneck). This bench reproduces that crossover:
// hash join vs synchronized join (with and without the record cache
// benefit visible via its stats) on narrow and wide query regions.
// main() prints each join's median time over kTimedRuns runs per window
// and exits 1 if the two joins disagree on the row count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "mvbt/sync_join.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;
using mvbt::Entry;

struct JoinFixture {
  Fixture data;
  std::unique_ptr<TemporalStore> store;
  const TemporalGraph* graph = nullptr;
  TermId pred_a = 0, pred_b = 0;
};

JoinFixture& SharedFixture() {
  static JoinFixture* f = [] {
    auto* out = new JoinFixture();
    out->data = MakeWikipedia(Scaled(120000));
    out->store = BuildStore(System::kRdfTx, out->data);
    out->graph = static_cast<const TemporalGraph*>(out->store.get());
    out->pred_a = out->data.dict->Lookup("population");
    out->pred_b = out->data.dict->Lookup("mayor");
    return out;
  }();
  return *f;
}

// Join facts of two predicates on the shared subject with overlapping
// validity, over a time window covering `fraction` of history.
Interval WindowFor(const JoinFixture& f, double fraction) {
  const Chronon span = f.data.data.horizon - f.data.data.start;
  return Interval(f.data.data.start,
                  f.data.data.start +
                      static_cast<Chronon>(span * fraction) + 1);
}

size_t RunHashJoin(const JoinFixture& f, const Interval& window) {
  // Materialize both scans, hash the smaller on subject, probe.
  using mvbt::Key3;
  const auto& graph = *f.graph;
  auto scan = [&](TermId pred) {
    std::vector<std::pair<Triple, Interval>> rows;
    PatternSpec spec{kInvalidTerm, pred, kInvalidTerm, window};
    graph.ScanPattern(spec, [&](const Triple& t, const Interval& iv) {
      rows.emplace_back(t, iv);
    });
    return rows;
  };
  auto rows_a = scan(f.pred_a);
  auto rows_b = scan(f.pred_b);
  const auto& build = rows_a.size() <= rows_b.size() ? rows_a : rows_b;
  const auto& probe = rows_a.size() <= rows_b.size() ? rows_b : rows_a;
  std::unordered_multimap<TermId, const std::pair<Triple, Interval>*> table;
  table.reserve(build.size());
  for (const auto& row : build) table.emplace(row.first.s, &row);
  size_t out = 0;
  for (const auto& row : probe) {
    auto [lo, hi] = table.equal_range(row.first.s);
    for (auto it = lo; it != hi; ++it) {
      if (!row.second.Intersect(it->second->second).Intersect(window)
               .empty()) {
        ++out;
      }
    }
  }
  return out;
}

size_t RunSyncJoin(const JoinFixture& f, const Interval& window,
                   mvbt::SyncJoinStats* stats = nullptr) {
  using mvbt::Key3;
  const auto& idx = f.graph->index(IndexOrder::kPos);
  mvbt::KeyRange ra{{f.pred_a, 0, 0}, {f.pred_a, UINT64_MAX, UINT64_MAX}};
  mvbt::KeyRange rb{{f.pred_b, 0, 0}, {f.pred_b, UINT64_MAX, UINT64_MAX}};
  // POS keys are (p, o, s): the subject is component c.
  mvbt::SyncJoinSpec spec{2, 2};
  size_t out = 0;
  SynchronizedJoin(idx, ra, window, idx, rb, window, spec,
                   [&](const Entry&, const Entry&, const Interval&) {
                     ++out;
                   },
                   stats);
  return out;
}

void BM_HashJoin(benchmark::State& state) {
  const JoinFixture& f = SharedFixture();
  Interval window =
      WindowFor(f, static_cast<double>(state.range(0)) / 100.0);
  size_t out = 0;
  for (auto _ : state) {
    out = RunHashJoin(f, window);
    benchmark::DoNotOptimize(out);
  }
  state.counters["output_rows"] = static_cast<double>(out);
}
BENCHMARK(BM_HashJoin)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_SyncJoin(benchmark::State& state) {
  const JoinFixture& f = SharedFixture();
  Interval window =
      WindowFor(f, static_cast<double>(state.range(0)) / 100.0);
  size_t out = 0;
  for (auto _ : state) {
    out = RunSyncJoin(f, window);
    benchmark::DoNotOptimize(out);
  }
  state.counters["output_rows"] = static_cast<double>(out);
}
BENCHMARK(BM_SyncJoin)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Median wall time in ms of kTimedRuns calls of `fn`, after one
// untimed warm-up call; one timing per window swung by half between
// back-to-back runs.
constexpr int kTimedRuns = 7;

double MedianMs(const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < kTimedRuns; ++i) ms.push_back(TimeSeconds(fn) * 1000.0);
  std::nth_element(ms.begin(), ms.begin() + kTimedRuns / 2, ms.end());
  return ms[kTimedRuns / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const JoinFixture& f = SharedFixture();
  PrintSeriesHeader(
      "Join ablation: hash vs synchronized join (population x mayor)",
      {"window_pct_of_history", "hash_ms", "sync_ms", "output_rows",
       "node_pairs", "cache_hit_pct"});
  for (double frac : {0.05, 0.25, 1.0}) {
    Interval window = WindowFor(f, frac);
    size_t rows = 0;
    const double hash_ms = MedianMs([&] { rows = RunHashJoin(f, window); });
    mvbt::SyncJoinStats stats;
    size_t sync_rows = 0;
    const double sync_ms = MedianMs([&] {
      stats = {};  // report one run's counters, not the sum
      sync_rows = RunSyncJoin(f, window, &stats);
    });
    if (rows != sync_rows) {
      std::fprintf(stderr, "JOIN MISMATCH: hash=%zu sync=%zu\n", rows,
                   sync_rows);
      return 1;
    }
    double lookups =
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    PrintSeriesRow({Fmt(frac * 100), Fmt(hash_ms), Fmt(sync_ms),
                    std::to_string(rows),
                    std::to_string(stats.node_pairs),
                    Fmt(lookups > 0 ? 100.0 * stats.cache_hits / lookups
                                    : 0)});
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
