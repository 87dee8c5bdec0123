// Read-path bench: repeated windowed pattern scans over the same store,
// isolating what the devirtualized cursor and the decoded-leaf cache buy
// on a hot serving loop. Configurations:
//   plain            — uncompressed MVBT, no cache
//   compressed       — delta-compressed leaves, cache off
//   compressed_cache — plus the sharded decoded-leaf cache
// The headline ratio is compressed / compressed_cache on the repeated
// workload. Every config must return the same rows as the first one,
// compared as a fingerprint of the sorted (triple, interval) rows; the
// bench exits 1 on a mismatch or a zero-row workload.
//
// Results are written to BENCH_read_path.json so CI can archive the
// trajectory across PRs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;

struct Config {
  const char* label;
  TemporalGraphOptions opts;
};

/// A repeated serving workload: mid-history windowed scans mixing
/// predicate patterns (wide: many leaves per query) with subject
/// patterns (narrow: selective prefix ranges). The window covers the
/// middle half of the dataset's own event-time span, so scans match
/// real data but not the whole history.
std::vector<PatternSpec> MakeQueries(const Fixture& f) {
  Chronon lo = kChrononMax, hi = 0;
  for (const TemporalTriple& tt : f.data.triples) {
    lo = std::min(lo, tt.iv.start);
    if (tt.iv.end != kChrononNow) hi = std::max(hi, tt.iv.end);
    hi = std::max(hi, tt.iv.start);
  }
  const Chronon span = hi > lo ? hi - lo : 1;
  Rng rng(7);
  const Interval window(lo + span / 4, lo + span / 4 + span / 2);
  std::vector<PatternSpec> queries;
  for (int i = 0; i < 8; ++i) {
    const TemporalTriple& tt =
        f.data.triples[rng.Uniform(f.data.triples.size())];
    queries.push_back(
        PatternSpec{kInvalidTerm, tt.triple.p, kInvalidTerm, window});
  }
  for (int i = 0; i < 64; ++i) {
    const TemporalTriple& tt =
        f.data.triples[rng.Uniform(f.data.triples.size())];
    queries.push_back(
        PatternSpec{tt.triple.s, kInvalidTerm, kInvalidTerm, window});
  }
  return queries;
}

uint64_t RunOnce(const TemporalGraph& store,
                 const std::vector<PatternSpec>& queries, ScanStats* stats) {
  uint64_t rows = 0;
  for (const PatternSpec& spec : queries) {
    store.ScanPattern(
        spec, [&](const Triple&, const Interval&) { ++rows; }, stats);
  }
  return rows;
}

/// Fingerprint of every row the queries return, order-independent: the
/// (triple, interval) rows are sorted before hashing.
uint64_t RowFingerprint(const TemporalGraph& store,
                        const std::vector<PatternSpec>& queries) {
  using Row = std::tuple<TermId, TermId, TermId, Chronon, Chronon>;
  std::vector<Row> rows;
  for (const PatternSpec& spec : queries) {
    store.ScanPattern(spec, [&](const Triple& t, const Interval& iv) {
      rows.emplace_back(t.s, t.p, t.o, iv.start, iv.end);
    });
  }
  std::sort(rows.begin(), rows.end());
  std::vector<uint64_t> words;
  words.reserve(rows.size() * 5);
  for (const auto& [s, p, o, start, end] : rows) {
    words.insert(words.end(), {s, p, o, start, end});
  }
  return util::XxHash64(words.data(), words.size() * sizeof(uint64_t));
}

}  // namespace

int main() {
  const Fixture f = MakeWikipedia(Scaled(60000));
  const int kRuns = 5;

  const Config configs[] = {
      {"plain", {.compress_leaves = false, .leaf_cache_bytes = 0}},
      {"compressed", {.compress_leaves = true, .leaf_cache_bytes = 0}},
      {"compressed_cache",
       {.compress_leaves = true, .leaf_cache_bytes = 32u << 20}},
  };

  JsonReport report("read_path");
  report.Add("dataset_triples", static_cast<uint64_t>(f.data.triples.size()));
  report.Add("runs", static_cast<uint64_t>(kRuns));

  PrintSeriesHeader(
      "Read path: repeated windowed scans (avg ms per pass)",
      {"config", "ms_per_pass", "rows", "leaves_visited", "entries_decoded",
       "cache_hits", "cache_misses"});

  double compressed_ms = 0, cache_ms = 0;
  uint64_t expect_rows = 0;
  uint64_t expect_fingerprint = 0;
  bool have_expect = false;
  for (const Config& cfg : configs) {
    TemporalGraph store(cfg.opts);
    if (!store.Load(f.data.triples).ok()) return 1;
    // Compressed configs finish the live tail; the plain baseline stays
    // fully uncompressed.
    if (cfg.opts.compress_leaves) store.CompressAll();
    const auto queries = MakeQueries(f);

    // Warm-up pass (fills the cache) + counter pass, then timed passes.
    uint64_t rows = RunOnce(store, queries, nullptr);
    ScanStats stats;
    RunOnce(store, queries, &stats);
    double seconds = TimeSeconds([&] {
      for (int r = 0; r < kRuns; ++r) rows = RunOnce(store, queries, nullptr);
    });
    const double ms = seconds * 1000.0 / kRuns;
    const uint64_t fingerprint = RowFingerprint(store, queries);

    if (!have_expect) {
      expect_rows = rows;
      expect_fingerprint = fingerprint;
      have_expect = true;
    }
    if (rows == 0 || rows != expect_rows ||
        fingerprint != expect_fingerprint) {
      // A zero-row workload would make every config trivially "fast";
      // treat it as a harness bug, not a result.
      std::fprintf(stderr,
                   "result mismatch: %s returned %llu rows (fingerprint "
                   "%016llx), want %llu nonzero rows (fingerprint %016llx)\n",
                   cfg.label, static_cast<unsigned long long>(rows),
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(expect_rows),
                   static_cast<unsigned long long>(expect_fingerprint));
      return 1;
    }
    if (std::string(cfg.label) == "compressed") compressed_ms = ms;
    if (std::string(cfg.label) == "compressed_cache") cache_ms = ms;

    PrintSeriesRow({cfg.label, Fmt(ms), Fmt(static_cast<double>(rows)),
                    Fmt(static_cast<double>(stats.leaves_visited)),
                    Fmt(static_cast<double>(stats.entries_decoded)),
                    Fmt(static_cast<double>(stats.cache_hits)),
                    Fmt(static_cast<double>(stats.cache_misses))});

    std::string prefix = cfg.label;
    report.Add(prefix + "_ms_per_pass", ms);
    report.Add(prefix + "_rows", rows);
    report.Add(prefix + "_leaves_visited", stats.leaves_visited);
    report.Add(prefix + "_entries_decoded", stats.entries_decoded);
    report.Add(prefix + "_cache_hits", stats.cache_hits);
    report.Add(prefix + "_cache_misses", stats.cache_misses);
  }

  const double speedup = cache_ms > 0 ? compressed_ms / cache_ms : 0;
  report.Add("speedup_cache_vs_compressed", speedup);
  std::printf("\nspeedup (cache vs none, compressed tree): %.2fx\n",
              speedup);
  report.Write();
  return 0;
}
