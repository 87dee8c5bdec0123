#include "mvbt/sync_join.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/simd.h"

namespace rdftx::mvbt {
namespace {

using Node = Mvbt::Node;

// Decoded-record cache: one decode per node regardless of how many node
// pairs it participates in. Records are kept columnar so the per-pair
// region filters run as SIMD masks over whole columns.
class RecordCache {
 public:
  explicit RecordCache(SyncJoinStats* stats) : stats_(stats) {}

  const ColumnarEntries& Get(const Node* node) {
    auto it = cache_.find(node);
    if (it != cache_.end()) {
      if (stats_ != nullptr) ++stats_->cache_hits;
      return it->second;
    }
    if (stats_ != nullptr) ++stats_->cache_misses;
    ColumnarEntries cols;
    node->block.DecodeColumnar(&cols);
    return cache_.emplace(node, std::move(cols)).first->second;
  }

 private:
  std::unordered_map<const Node*, ColumnarEntries> cache_;
  SyncJoinStats* stats_;
};

/// Reused buffers of the SIMD prefilter.
struct JoinScratch {
  std::vector<uint64_t> mask;
  std::vector<uint32_t> sel_a, sel_b;
};

/// Writes into `sel` the indices of entries whose interval overlaps
/// `time` and whose key lies in `range` (the checks the scalar join did
/// per entry), filtering whole columns at a time; returns the count.
size_t FilterEntries(const ColumnarEntries& cols, const KeyRange& range,
                     const Interval& time, std::vector<uint64_t>* mask,
                     std::vector<uint32_t>* sel) {
  const size_t n = cols.size();
  if (n == 0) return 0;
  mask->resize(simd::MaskWords(n));
  simd::OverlapMask(cols.start.data(), cols.end.data(), n, time.start,
                    time.end, mask->data());
  // Pattern ranges constrain each key component either to one exact id
  // or not at all, so containment is a conjunction of per-column
  // equalities; any other shape falls back to the lexicographic check.
  bool prefix = true;
  auto refine = [&](const std::vector<uint64_t>& col, uint64_t lo,
                    uint64_t hi) {
    if (lo == 0 && hi == UINT64_MAX) return;
    if (lo == hi) {
      simd::AndEqMask64(col.data(), n, lo, mask->data());
      return;
    }
    prefix = false;
  };
  refine(cols.a, range.lo.a, range.hi.a);
  refine(cols.b, range.lo.b, range.hi.b);
  refine(cols.c, range.lo.c, range.hi.c);
  if (!prefix) {
    for (size_t i = 0; i < n; ++i) {
      if (!range.Contains(Key3{cols.a[i], cols.b[i], cols.c[i]})) {
        (*mask)[i / 64] &= ~(1ull << (i % 64));
      }
    }
  }
  sel->resize(n);
  return simd::MaskToSelection(mask->data(), n, sel->data());
}

struct SweepEvent {
  Chronon time;
  bool is_start;
  bool from_a;
  const Node* node;
};

/// One overlapping leaf pair (na from tree a, nb from tree b).
struct NodePair {
  const Node* na;
  const Node* nb;
};

}  // namespace

void SynchronizedJoin(
    const Mvbt& a, const KeyRange& ra, const Interval& ta, const Mvbt& b,
    const KeyRange& rb, const Interval& tb, const SyncJoinSpec& spec,
    const std::function<void(const Entry&, const Entry&, const Interval&)>&
        emit,
    SyncJoinStats* stats) {
  const Interval shared = ta.Intersect(tb);
  if (shared.empty()) return;

  // Step (i): leaves of each tree intersecting its own query region,
  // restricted to the shared time window (pairs can only match there).
  // Zone-map pruning is sound here because every output row's interval
  // lies inside `shared`, which is exactly the window the summaries are
  // tested against.
  ScanStats prune_stats;
  std::vector<const Node*> leaves_a, leaves_b;
  a.CollectRegionLeaves(ra, ta.Intersect(shared), &leaves_a, &prune_stats,
                        a.options().zone_maps);
  b.CollectRegionLeaves(rb, tb.Intersect(shared), &leaves_b, &prune_stats,
                        b.options().zone_maps);
  if (stats != nullptr) stats->leaves_pruned += prune_stats.leaves_pruned;
  if (leaves_a.empty() || leaves_b.empty()) return;

  // Sweep over node lifespans to enumerate exactly the overlapping
  // node pairs.
  std::vector<SweepEvent> events;
  events.reserve(2 * (leaves_a.size() + leaves_b.size()));
  auto add_events = [&events](const std::vector<const Node*>& leaves,
                              bool from_a) {
    for (const Node* n : leaves) {
      events.push_back({n->created, true, from_a, n});
      events.push_back({n->dead, false, from_a, n});
    }
  };
  add_events(leaves_a, true);
  add_events(leaves_b, false);
  // Ends sort before starts at equal time: lifespans are half-open, so
  // [x, t) and [t, y) do not overlap.
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& x, const SweepEvent& y) {
              if (x.time != y.time) return x.time < y.time;
              return x.is_start < y.is_start;
            });

  std::vector<NodePair> pairs;
  {
    std::vector<const Node*> active_a, active_b;
    for (const SweepEvent& ev : events) {
      std::vector<const Node*>& mine = ev.from_a ? active_a : active_b;
      if (!ev.is_start) {
        mine.erase(std::find(mine.begin(), mine.end(), ev.node));
        continue;
      }
      const std::vector<const Node*>& others =
          ev.from_a ? active_b : active_a;
      for (const Node* other : others) {
        if (ev.from_a) {
          pairs.push_back({ev.node, other});
        } else {
          pairs.push_back({other, ev.node});
        }
      }
      mine.push_back(ev.node);
    }
  }

  // Steps (ii) and (iii): join the record fragments of each pair, in
  // pair order, through one record cache.
  RecordCache cache(stats);
  JoinScratch scratch;
  for (const NodePair& pair : pairs) {
    if (stats != nullptr) ++stats->node_pairs;
    const ColumnarEntries& ca = cache.Get(pair.na);
    const ColumnarEntries& cb = cache.Get(pair.nb);
    // SIMD prefilter: region-qualifying entries of each side, as
    // selection vectors over the columnar records.
    const size_t ka = FilterEntries(ca, ra, ta, &scratch.mask, &scratch.sel_a);
    const size_t kb = FilterEntries(cb, rb, tb, &scratch.mask, &scratch.sel_b);
    if (ka == 0 || kb == 0) continue;
    // Per-pair hash join on the join keys (build on the smaller side).
    const bool build_a = ka <= kb;
    const ColumnarEntries& build = build_a ? ca : cb;
    const ColumnarEntries& probe = build_a ? cb : ca;
    const std::vector<uint32_t>& build_sel =
        build_a ? scratch.sel_a : scratch.sel_b;
    const std::vector<uint32_t>& probe_sel =
        build_a ? scratch.sel_b : scratch.sel_a;
    const size_t nb_ = build_a ? ka : kb;
    const size_t np_ = build_a ? kb : ka;
    const auto& build_key = build_a ? spec.key_a : spec.key_b;
    const auto& probe_key = build_a ? spec.key_b : spec.key_a;

    std::unordered_multimap<uint64_t, uint32_t> table;
    table.reserve(nb_);
    for (size_t i = 0; i < nb_; ++i) {
      table.emplace(build_key(build.At(build_sel[i])), build_sel[i]);
    }
    for (size_t j = 0; j < np_; ++j) {
      const Entry e = probe.At(probe_sel[j]);
      auto [lo, hi] = table.equal_range(probe_key(e));
      for (auto it = lo; it != hi; ++it) {
        const Entry other = build.At(it->second);
        // Each fragment lives in exactly one leaf, and fragment intervals
        // are contained in their leaf's lifespan, so every matching
        // fragment pair is produced by exactly one node pair: no dedup
        // needed.
        Interval iv = e.interval().Intersect(other.interval());
        iv = iv.Intersect(shared);
        if (iv.empty()) continue;
        if (stats != nullptr) ++stats->output_rows;
        if (build_a) {
          emit(other, e, iv);
        } else {
          emit(e, other, iv);
        }
      }
    }
  }
}

}  // namespace rdftx::mvbt
