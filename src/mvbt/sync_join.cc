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
  std::vector<const Node*> leaves_a, leaves_b;
  a.CollectRegionLeaves(ra, ta.Intersect(shared), &leaves_a);
  b.CollectRegionLeaves(rb, tb.Intersect(shared), &leaves_b);
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
  std::vector<uint64_t> mask;
  std::vector<uint32_t> sel_a, sel_b;
  // SIMD prefilter: the region-qualifying entries of one side, as a
  // selection vector over its columnar records.
  auto select = [&mask](const ColumnarEntries& cols, const KeyRange& range,
                        const Interval& time, std::vector<uint32_t>* sel) {
    RegionMask(cols, range, time, &mask);
    sel->resize(cols.size());
    return simd::MaskToSelection(mask.data(), cols.size(), sel->data());
  };
  for (const NodePair& pair : pairs) {
    if (stats != nullptr) ++stats->node_pairs;
    const ColumnarEntries& ca = cache.Get(pair.na);
    const ColumnarEntries& cb = cache.Get(pair.nb);
    const size_t ka = select(ca, ra, ta, &sel_a);
    const size_t kb = select(cb, rb, tb, &sel_b);
    if (ka == 0 || kb == 0) continue;
    // Per-pair hash join on the join keys (build on the smaller side).
    const bool build_a = ka <= kb;
    const ColumnarEntries& build = build_a ? ca : cb;
    const ColumnarEntries& probe = build_a ? cb : ca;
    const std::vector<uint32_t>& build_sel = build_a ? sel_a : sel_b;
    const std::vector<uint32_t>& probe_sel = build_a ? sel_b : sel_a;
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
