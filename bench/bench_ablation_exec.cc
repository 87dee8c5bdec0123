// Execution ablation on the Fig 9 workload families over both histories
// (Wikipedia, GovTrack). Three classes per dataset:
//   point — repeated point-in-time pattern scans (width-1 windows),
//           row-at-a-time ScanToRows vs the columnar VectorizedScan
//   range — repeated windowed range scans with interval filters over
//           the compressed store, same two scans (the headline rows/sec
//           gate)
//   join  — Example 4 subject-star temporal joins through the full
//           engine's scan/join chain (merge join), cross-checked
//           against the same engine over a NaiveStore oracle
// Both sides of each check must produce identical row counts — a
// mismatch is a bug, not a result. Results land in BENCH_exec.json.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/naive_store.h"
#include "bench_common.h"
#include "engine/translate.h"
#include "engine/vectorized.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;

/// One scan-class micro workload: compiled patterns plus the variable
/// table they bind (all patterns share it).
struct ScanWorkload {
  std::vector<engine::CompiledPattern> patterns;
  std::vector<engine::VarInfo> vars;
};

/// Patterns sampled from dataset triples, mixing wide predicate scans
/// with selective subject scans; `point` narrows every window to one
/// chronon at a sampled triple's start (guaranteed hit), otherwise
/// windows cover random mid-history ranges.
ScanWorkload MakeScanWorkload(const Fixture& f, bool point, uint64_t seed) {
  Chronon lo = kChrononMax, hi = 0;
  for (const TemporalTriple& tt : f.data.triples) {
    lo = std::min(lo, tt.iv.start);
    if (tt.iv.end != kChrononNow) hi = std::max(hi, tt.iv.end);
    hi = std::max(hi, tt.iv.start);
  }
  const Chronon span = hi > lo ? hi - lo : 1;
  Rng rng(seed);
  ScanWorkload w;
  w.vars = {{"a", false, false}, {"b", false, false}, {"t", true, false}};
  auto window = [&](const TemporalTriple& tt) {
    if (point) return Interval(tt.iv.start, tt.iv.start + 1);
    const Chronon width = span / 8 + static_cast<Chronon>(
                                         rng.Uniform(span / 4 + 1));
    const Chronon start =
        lo + static_cast<Chronon>(rng.Uniform(span - std::min(span, width) + 1));
    return Interval(start, start + width);
  };
  for (int i = 0; i < 8; ++i) {
    const TemporalTriple& tt =
        f.data.triples[rng.Uniform(f.data.triples.size())];
    engine::CompiledPattern cp;
    cp.spec = PatternSpec{kInvalidTerm, tt.triple.p, kInvalidTerm,
                          window(tt)};
    cp.var_s = 0;
    cp.var_o = 1;
    cp.var_t = 2;
    w.patterns.push_back(cp);
  }
  for (int i = 0; i < 48; ++i) {
    const TemporalTriple& tt =
        f.data.triples[rng.Uniform(f.data.triples.size())];
    engine::CompiledPattern cp;
    cp.spec = PatternSpec{tt.triple.s, kInvalidTerm, kInvalidTerm,
                          window(tt)};
    cp.var_p = 0;
    cp.var_o = 1;
    cp.var_t = 2;
    w.patterns.push_back(cp);
  }
  return w;
}

uint64_t TupleScanPass(const TemporalGraph& store, const ScanWorkload& w) {
  uint64_t rows = 0;
  std::vector<engine::Row> out;
  for (const engine::CompiledPattern& cp : w.patterns) {
    out.clear();
    engine::ScanToRows(store, cp, w.vars.size(), w.vars, &out);
    rows += out.size();
  }
  return rows;
}

uint64_t VectorizedScanPass(const TemporalGraph& store, const ScanWorkload& w,
                            engine::BlockPool* pool) {
  uint64_t rows = 0;
  for (const engine::CompiledPattern& cp : w.patterns) {
    engine::BlockRun run;
    engine::VectorizedScan(store, cp, w.vars.size(), w.vars,
                           /*sort_slot=*/-1, pool, &run, nullptr);
    rows += run.size();
  }
  return rows;
}

/// Total result rows of running every query once (and a correctness
/// fingerprint via row counts).
uint64_t ResultRows(const engine::QueryEngine& eng,
                    const std::vector<std::string>& queries,
                    engine::ExecStats* last_query_stats) {
  uint64_t rows = 0;
  for (const std::string& q : queries) {
    auto r = eng.Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n", r.status().ToString().c_str(),
                   q.c_str());
      std::exit(1);
    }
    rows += r->rows.size();
    if (last_query_stats != nullptr) *last_query_stats = r->stats;
  }
  return rows;
}

constexpr int kRuns = 5;

/// Best (minimum) wall time of three timed repetitions — the
/// least-interference estimate, so shared-machine noise does not decide
/// the mode comparison.
template <typename Fn>
double BestOf3(Fn fn) {
  double best = TimeSeconds(fn);
  for (int i = 0; i < 2; ++i) best = std::min(best, TimeSeconds(fn));
  return best;
}

/// Runs one dataset's classes and returns its range-scan speedup.
double RunDataset(const char* name, Fixture f, JsonReport* report) {
  const std::string ds = name;
  TemporalGraph store(TemporalGraphOptions{.compress_leaves = true});
  if (!store.Load(f.data.triples).ok()) std::exit(1);
  store.CompressAll();
  report->Add(ds + "_triples",
              static_cast<uint64_t>(f.data.triples.size()));

  double range_speedup = 0;
  PrintSeriesHeader(
      "Exec ablation (" + ds + "): ScanToRows vs VectorizedScan (rows/sec)",
      {"class", "rows", "tuple_rows_per_sec", "vec_rows_per_sec",
       "speedup"});

  // --- point / range scan classes ---
  engine::BlockPool pool;
  for (bool point : {true, false}) {
    const char* cls = point ? "point" : "range";
    const ScanWorkload w = MakeScanWorkload(f, point, point ? 7 : 8);
    const uint64_t tuple_rows = TupleScanPass(store, w);
    const uint64_t vec_rows = VectorizedScanPass(store, w, &pool);
    if (tuple_rows != vec_rows || tuple_rows == 0) {
      std::fprintf(stderr, "%s/%s row mismatch: tuple %llu vs vectorized %llu\n",
                   name, cls, static_cast<unsigned long long>(tuple_rows),
                   static_cast<unsigned long long>(vec_rows));
      std::exit(1);
    }
    const double tuple_s = BestOf3([&] {
      for (int r = 0; r < kRuns; ++r) TupleScanPass(store, w);
    });
    const double vec_s = BestOf3([&] {
      for (int r = 0; r < kRuns; ++r) VectorizedScanPass(store, w, &pool);
    });
    const double tuple_rps = tuple_rows * kRuns / tuple_s;
    const double vec_rps = vec_rows * kRuns / vec_s;
    const double speedup = tuple_s / vec_s;
    if (!point) range_speedup = speedup;
    PrintSeriesRow({cls, Fmt(static_cast<double>(tuple_rows)),
                    Fmt(tuple_rps), Fmt(vec_rps), Fmt(speedup)});
    const std::string prefix = ds + "_" + cls;
    report->Add(prefix + "_rows", tuple_rows);
    report->Add(prefix + "_tuple_rows_per_sec", tuple_rps);
    report->Add(prefix + "_vectorized_rows_per_sec", vec_rps);
    report->Add(prefix + "_speedup", speedup);
  }

  // --- join class: full engine, checked against the NaiveStore oracle ---
  Rng rng(9);
  const auto queries = workload::MakeJoinQueries(f.data, *f.dict, 10, &rng);
  engine::QueryEngine vec_eng(&store, f.dict.get());
  NaiveStore oracle_store;
  if (!oracle_store.Load(f.data.triples).ok()) std::exit(1);
  engine::QueryEngine oracle_eng(&oracle_store, f.dict.get());

  engine::ExecStats vec_stats;
  const uint64_t join_rows = ResultRows(vec_eng, queries, &vec_stats);
  if (ResultRows(oracle_eng, queries, nullptr) != join_rows) {
    std::fprintf(stderr, "%s join result mismatch against the oracle\n",
                 name);
    std::exit(1);
  }
  // The index-sorted join workload must actually take the merge path.
  if (vec_stats.merge_join_steps == 0) {
    std::fprintf(stderr, "%s: vectorized engine did not merge join\n", name);
    std::exit(1);
  }
  const double vec_ms = AvgQueryMillis(vec_eng, queries);
  std::printf("  %s join (%llu rows): merge %.3f ms\n", name,
              static_cast<unsigned long long>(join_rows), vec_ms);
  report->Add(ds + "_join_result_rows", join_rows);
  report->Add(ds + "_join_vectorized_ms", vec_ms);
  report->Add(ds + "_merge_join_steps", vec_stats.merge_join_steps);
  std::printf("\n");
  return range_speedup;
}

}  // namespace

int main() {
  JsonReport report("exec");
  report.Add("runs", static_cast<uint64_t>(kRuns));

  const double wiki =
      RunDataset("wikipedia", MakeWikipedia(Scaled(60000)), &report);
  const double gov =
      RunDataset("govtrack", MakeGovTrack(Scaled(60000)), &report);

  // Headline number: best range-scan speedup (the vectorized-execution
  // acceptance gate).
  const double range = std::max(wiki, gov);
  report.Add("range_scan_speedup", range);
  std::printf("range-scan speedup (VectorizedScan vs ScanToRows, best "
              "dataset): %.2fx\n",
              range);
  report.Write();
  return 0;
}
