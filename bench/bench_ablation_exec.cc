// Execution ablation on the Fig 9 workload families over both histories
// (Wikipedia, GovTrack). Four classes per dataset:
//   point — repeated point-in-time pattern scans (width-1 windows),
//           ScanToRun (the scan of stores without MVBT indices: the
//           generic pattern scan, fragments grouped per triple in a hash
//           table) vs the columnar VectorizedScan
//   range — repeated windowed range scans with interval filters over
//           the compressed store, same two scans (the headline rows/sec
//           gate)
//   join  — Example 4 subject-star temporal joins through the full
//           engine's scan/join chain (merge join), rows cross-checked
//           against the same engine over a NaiveStore oracle; also
//           reports the scans' fragments gathered per scanned row
//   full  — full-validity selections through the full engine: TSTART
//           needs each row's whole validity, not its slice of the
//           FILTER window; rows checked against the NaiveStore oracle
// The scan classes must produce identical row counts on both sides, and
// the join and full classes identical rows (sorted fingerprints) — a
// mismatch is a bug, not a result. Results
// land in BENCH_exec.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/naive_store.h"
#include "bench_common.h"
#include "engine/translate.h"
#include "engine/vectorized.h"
#include "util/date.h"
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

uint64_t ScanToRunPass(const TemporalGraph& store, const ScanWorkload& w) {
  uint64_t rows = 0;
  for (const engine::CompiledPattern& cp : w.patterns) {
    engine::BlockRun run;
    engine::ScanToRun(store, cp, w.vars.size(), w.vars, /*sort_slot=*/-1,
                      &run, nullptr);
    rows += run.size();
  }
  return rows;
}

uint64_t VectorizedScanPass(const TemporalGraph& store, const ScanWorkload& w) {
  uint64_t rows = 0;
  for (const engine::CompiledPattern& cp : w.patterns) {
    engine::BlockRun run;
    engine::VectorizedScan(store, cp, w.vars.size(), w.vars,
                           /*sort_slot=*/-1, &run, nullptr);
    rows += run.size();
  }
  return rows;
}

/// Runs every query once and returns each query's rows as sorted
/// fingerprints, in query order: the oracle check compares rows, not
/// counts. `totals` (when given) receives the sum of the queries'
/// counters that the join class reports.
std::vector<std::vector<std::string>> QueryRows(
    const engine::QueryEngine& eng, const std::vector<std::string>& queries,
    engine::ExecStats* totals) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& q : queries) {
    auto r = eng.Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n", r.status().ToString().c_str(),
                   q.c_str());
      std::exit(1);
    }
    rows.push_back(CanonicalRows(*r));
    if (totals != nullptr) {
      totals->rows_scanned += r->stats.rows_scanned;
      totals->key_filtered_fragments += r->stats.key_filtered_fragments;
      totals->merge_join_steps += r->stats.merge_join_steps;
      totals->scan.MergeFrom(r->stats.scan);
    }
  }
  return rows;
}

/// One full-validity query: a windowed selection on one predicate with
/// TSTART(?t) >= 1900-01-01, which every row satisfies but which needs
/// each row's whole validity; `window` is the same query without TSTART.
struct FullValidityQuery {
  std::string label;
  std::string full;
  std::string window;
};

/// The 1st, 4th and 11th most frequent predicate (ties on the smaller
/// id), each under a 1-year and a 1-day window in the middle of history
/// (the year and day of the median start); plus the adverse case: the
/// most frequent predicate under a 1-day window at its earliest start,
/// where few rows match but the key range holds a long history.
std::vector<FullValidityQuery> MakeFullValidityQueries(const Fixture& f) {
  std::unordered_map<TermId, size_t> freq;
  std::vector<Chronon> starts;
  for (const TemporalTriple& tt : f.data.triples) {
    ++freq[tt.triple.p];
    starts.push_back(tt.iv.start);
  }
  std::vector<std::pair<size_t, TermId>> by_freq;
  for (const auto& [p, n] : freq) by_freq.emplace_back(n, p);
  std::sort(by_freq.begin(), by_freq.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  std::nth_element(starts.begin(), starts.begin() + starts.size() / 2,
                   starts.end());
  const Chronon mid = starts[starts.size() / 2];

  auto query = [&](const std::string& label, TermId p,
                   const std::string& window) {
    const std::string head =
        "SELECT ?s ?o ?t { ?s " + f.dict->Decode(p) + " ?o ?t . FILTER(";
    return FullValidityQuery{label,
                             head + window + " && TSTART(?t) >= 1900-01-01) }",
                             head + window + ") }"};
  };
  auto day = [](Chronon d) {
    return "?t >= " + FormatChronon(d) + " && ?t <= " + FormatChronon(d);
  };
  std::vector<FullValidityQuery> out;
  for (size_t rank : {1, 4, 11}) {
    const TermId p = by_freq[std::min(rank, by_freq.size()) - 1].second;
    const std::string r = std::string("p").append(std::to_string(rank));
    out.push_back(query(r + "_year", p,
                        "YEAR(?t) = " + std::to_string(ChrononYear(mid))));
    out.push_back(query(r + "_day", p, day(mid)));
  }
  const TermId top = by_freq[0].second;
  Chronon first = kChrononNow;
  for (const TemporalTriple& tt : f.data.triples) {
    if (tt.triple.p == top) first = std::min(first, tt.iv.start);
  }
  out.push_back(query("adverse", top, day(first)));
  return out;
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
      "Exec ablation (" + ds + "): ScanToRun vs VectorizedScan (rows/sec)",
      {"class", "rows", "scan_to_run_rows_per_sec", "vec_rows_per_sec",
       "speedup"});

  // --- point / range scan classes ---
  for (bool point : {true, false}) {
    const char* cls = point ? "point" : "range";
    const ScanWorkload w = MakeScanWorkload(f, point, point ? 7 : 8);
    const uint64_t hash_rows = ScanToRunPass(store, w);
    const uint64_t vec_rows = VectorizedScanPass(store, w);
    if (hash_rows != vec_rows || hash_rows == 0) {
      std::fprintf(stderr,
                   "%s/%s row mismatch: ScanToRun %llu vs vectorized %llu\n",
                   name, cls, static_cast<unsigned long long>(hash_rows),
                   static_cast<unsigned long long>(vec_rows));
      std::exit(1);
    }
    const double hash_s = BestOf3([&] {
      for (int r = 0; r < kRuns; ++r) ScanToRunPass(store, w);
    });
    const double vec_s = BestOf3([&] {
      for (int r = 0; r < kRuns; ++r) VectorizedScanPass(store, w);
    });
    const double hash_rps = hash_rows * kRuns / hash_s;
    const double vec_rps = vec_rows * kRuns / vec_s;
    const double speedup = hash_s / vec_s;
    if (!point) range_speedup = speedup;
    PrintSeriesRow({cls, Fmt(static_cast<double>(hash_rows)),
                    Fmt(hash_rps), Fmt(vec_rps), Fmt(speedup)});
    const std::string prefix = ds + "_" + cls;
    report->Add(prefix + "_rows", hash_rows);
    report->Add(prefix + "_scan_to_run_rows_per_sec", hash_rps);
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
  const auto join_rows_got = QueryRows(vec_eng, queries, &vec_stats);
  if (QueryRows(oracle_eng, queries, nullptr) != join_rows_got) {
    std::fprintf(stderr, "%s join result mismatch against the oracle\n",
                 name);
    std::exit(1);
  }
  uint64_t join_rows = 0;
  for (const auto& rows : join_rows_got) join_rows += rows.size();
  // The index-sorted join workload must actually take the merge path.
  if (vec_stats.merge_join_steps == 0) {
    std::fprintf(stderr, "%s: vectorized engine did not merge join\n", name);
    std::exit(1);
  }
  const double vec_ms = AvgQueryMillis(vec_eng, queries);
  const uint64_t gathered = vec_stats.scan.fragments_gathered;
  const double fragments_per_row =
      vec_stats.rows_scanned > 0
          ? static_cast<double>(gathered) /
                static_cast<double>(vec_stats.rows_scanned)
          : 0.0;
  std::printf("  %s join (%llu rows): merge %.3f ms, %.2f fragments per "
              "scanned row\n",
              name, static_cast<unsigned long long>(join_rows), vec_ms,
              fragments_per_row);
  report->Add(ds + "_join_result_rows", join_rows);
  report->Add(ds + "_join_vectorized_ms", vec_ms);
  report->Add(ds + "_merge_join_steps", vec_stats.merge_join_steps);
  report->Add(ds + "_join_rows_scanned", vec_stats.rows_scanned);
  report->Add(ds + "_join_key_filtered_fragments",
              vec_stats.key_filtered_fragments);
  report->Add(ds + "_join_fragments_gathered", gathered);
  report->Add(ds + "_join_fragments_per_row", fragments_per_row);
  std::printf("\n");

  // --- full class: full-validity selections, rows checked against the
  // oracle ---
  PrintSeriesHeader("Full validity (" + ds + "): ms per query",
                    {"query", "rows", "window_ms", "full_ms"});
  uint64_t full_rows = 0;
  for (const FullValidityQuery& q : MakeFullValidityQueries(f)) {
    auto got = vec_eng.Execute(q.full);
    auto want = oracle_eng.Execute(q.full);
    if (!got.ok() || !want.ok() ||
        CanonicalRows(*got) != CanonicalRows(*want)) {
      std::fprintf(stderr, "%s full/%s mismatch against the oracle:\n%s\n",
                   name, q.label.c_str(), q.full.c_str());
      std::exit(1);
    }
    const uint64_t rows = got->rows.size();
    full_rows += rows;
    const double window_ms = AvgQueryMillis(vec_eng, {q.window});
    const double full_ms = AvgQueryMillis(vec_eng, {q.full});
    PrintSeriesRow({q.label, Fmt(static_cast<double>(rows)), Fmt(window_ms),
                    Fmt(full_ms)});
    const std::string prefix = ds + "_full_" + q.label;
    report->Add(prefix + "_rows", rows);
    report->Add(prefix + "_window_ms", window_ms);
    report->Add(prefix + "_ms", full_ms);
  }
  if (full_rows == 0) {
    std::fprintf(stderr, "%s full class returned no rows\n", name);
    std::exit(1);
  }
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
  std::printf("range-scan speedup (VectorizedScan vs ScanToRun, best "
              "dataset): %.2fx\n",
              range);
  report.Write();
  return 0;
}
