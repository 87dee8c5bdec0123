// Synchronized temporal join over two MVBT query regions (paper §5.2.2,
// extending Zhang, Tsotras et al., ICDE 2002). Instead of materializing
// both index scans and building one big hash table, the join:
//
//  (i)  finds the leaf-node pairs — one leaf per tree — whose
//       (lifespan x key range) rectangles intersect each other and the
//       two query regions, starting from the right border of each region
//       and following backward links;
//  (ii) joins the record fragments of each pair, by merging the two
//       leaves' region entries sorted on the join key, and
//  (iii) caches decoded records so a node visited in many pairs is
//       decompressed, filtered and sorted only once (the paper's
//       optimization over the original algorithm).
//
// Because RDF-TX's version splits never duplicate a fragment across
// leaves, each matching fragment pair is emitted exactly once. The join
// runs entirely on the calling thread with one record cache per side,
// so every leaf it touches is decoded at most once per side per call.
#ifndef RDFTX_MVBT_SYNC_JOIN_H_
#define RDFTX_MVBT_SYNC_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "mvbt/mvbt.h"

namespace rdftx::mvbt {

/// How entries of the two scans pair up: entries join when key
/// component `comp_a` (0, 1, 2 for a, b, c) of e1 equals component
/// `comp_b` of e2 and their validity intervals intersect within both
/// query regions' time ranges.
struct SyncJoinSpec {
  size_t comp_a = 0;
  size_t comp_b = 0;
};

/// Counters for the join ablation bench and tests.
struct SyncJoinStats {
  uint64_t node_pairs = 0;
  uint64_t cache_hits = 0;
  /// Leaves decoded (one record cache per side per call).
  uint64_t cache_misses = 0;
  uint64_t output_rows = 0;
};

/// Runs the synchronized join between region (ra, ta) of tree `a` and
/// region (rb, tb) of tree `b`. `emit` receives the two fragments and
/// the intersection of their intervals with both time ranges, in node-pair
/// order.
void SynchronizedJoin(
    const Mvbt& a, const KeyRange& ra, const Interval& ta, const Mvbt& b,
    const KeyRange& rb, const Interval& tb, const SyncJoinSpec& spec,
    const std::function<void(const Entry&, const Entry&, const Interval&)>&
        emit,
    SyncJoinStats* stats = nullptr);

}  // namespace rdftx::mvbt

#endif  // RDFTX_MVBT_SYNC_JOIN_H_
