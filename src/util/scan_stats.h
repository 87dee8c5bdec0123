// Per-query read-path counters. A ScanStats object is owned by the query
// (or test) that passes it down through TemporalStore::ScanPattern and
// the MVBT query methods, so concurrent queries never share one and the
// counters need no synchronization (the same design as engine::ExecStats).
// Decode work is counted in entries decoded from compressed bytes: plain
// blocks and cache hits contribute nothing, which is exactly what the
// cache ablation measures.
#ifndef RDFTX_UTIL_SCAN_STATS_H_
#define RDFTX_UTIL_SCAN_STATS_H_

#include <cstdint>

namespace rdftx {

/// Read-path counters of one scan (or one query's worth of scans).
struct ScanStats {
  /// Leaves whose entries were actually scanned.
  uint64_t leaves_visited = 0;
  /// Always 0: the scan skips no leaf it reaches. Kept because the
  /// frozen perfbench harness reads it (perfbench/src/query_trace.cc:247).
  uint64_t leaves_pruned = 0;
  /// Entries decoded from compressed leaf bytes (cache hits and plain
  /// blocks decode nothing).
  uint64_t entries_decoded = 0;
  /// Decoded-leaf cache outcomes.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Fragments a columnar scan gathered after its masks and key filter
  /// (leaf fragments plus a live epoch's overlay-born runs), before they
  /// were grouped into rows. Split copies of one run each count.
  uint64_t fragments_gathered = 0;

  void MergeFrom(const ScanStats& o) {
    leaves_visited += o.leaves_visited;
    leaves_pruned += o.leaves_pruned;
    entries_decoded += o.entries_decoded;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    fragments_gathered += o.fragments_gathered;
  }
};

}  // namespace rdftx

#endif  // RDFTX_UTIL_SCAN_STATS_H_
