#include "mvbt/sync_join.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rdftx::mvbt {
namespace {

using Node = Mvbt::Node;

// One side's records of one leaf: the columnar entries, and the
// entries inside the side's query region as (join key, slot) pairs
// sorted by key, so that a node pair joins by one merge.
struct LeafRecords {
  ColumnarEntries cols;
  std::vector<std::pair<uint64_t, uint32_t>> by_key;
};

// Decoded-record cache of one side: one decode, region filter (RegionMask,
// SIMD over whole columns) and sort per node, however many node pairs it
// participates in.
class RecordCache {
 public:
  RecordCache(const KeyRange& range, const Interval& time, size_t comp,
              SyncJoinStats* stats)
      : range_(range), time_(time), comp_(comp), stats_(stats) {}

  const LeafRecords& Get(const Node* node) {
    auto it = cache_.find(node);
    if (it != cache_.end()) {
      if (stats_ != nullptr) ++stats_->cache_hits;
      return it->second;
    }
    if (stats_ != nullptr) ++stats_->cache_misses;
    LeafRecords& rec = cache_[node];
    node->block.DecodeColumnar(&rec.cols);
    RegionMask(rec.cols, range_, time_, &mask_);
    const std::vector<uint64_t>& keys =
        comp_ == 0 ? rec.cols.a : comp_ == 1 ? rec.cols.b : rec.cols.c;
    for (size_t w = 0; w < mask_.size(); ++w) {
      for (uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1) {
        const auto i = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        rec.by_key.emplace_back(keys[i], i);
      }
    }
    std::sort(rec.by_key.begin(), rec.by_key.end());
    return rec;
  }

 private:
  const KeyRange range_;
  const Interval time_;
  const size_t comp_;
  SyncJoinStats* stats_;
  std::unordered_map<const Node*, LeafRecords> cache_;
  std::vector<uint64_t> mask_;
};

struct SweepEvent {
  Chronon time;
  bool is_start;
  bool from_a;
  const Node* node;
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
  // node pairs, joining each as it is found.
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

  // Steps (ii) and (iii): join the record fragments of each pair (na
  // from tree a, nb from tree b) through one record cache per side, by
  // merging the two leaves' key-sorted region entries.
  RecordCache cache_a(ra, ta, spec.comp_a, stats);
  RecordCache cache_b(rb, tb, spec.comp_b, stats);
  auto join_pair = [&](const Node* na, const Node* nb) {
    if (stats != nullptr) ++stats->node_pairs;
    const LeafRecords& ra_recs = cache_a.Get(na);
    const LeafRecords& rb_recs = cache_b.Get(nb);
    const auto& xs = ra_recs.by_key;
    const auto& ys = rb_recs.by_key;
    size_t i = 0, j = 0;
    while (i < xs.size() && j < ys.size()) {
      if (xs[i].first < ys[j].first) {
        ++i;
        continue;
      }
      if (ys[j].first < xs[i].first) {
        ++j;
        continue;
      }
      const uint64_t key = xs[i].first;
      const size_t j0 = j;
      for (; i < xs.size() && xs[i].first == key; ++i) {
        const Entry x = ra_recs.cols.At(xs[i].second);
        for (j = j0; j < ys.size() && ys[j].first == key; ++j) {
          const Entry y = rb_recs.cols.At(ys[j].second);
          // Each fragment lives in exactly one leaf, and fragment
          // intervals are contained in their leaf's lifespan, so every
          // matching fragment pair is produced by exactly one node pair:
          // no dedup needed.
          Interval iv = x.interval().Intersect(y.interval());
          iv = iv.Intersect(shared);
          if (iv.empty()) continue;
          if (stats != nullptr) ++stats->output_rows;
          emit(x, y, iv);
        }
      }
    }
  };

  std::vector<const Node*> active_a, active_b;
  for (const SweepEvent& ev : events) {
    std::vector<const Node*>& mine = ev.from_a ? active_a : active_b;
    if (!ev.is_start) {
      mine.erase(std::find(mine.begin(), mine.end(), ev.node));
      continue;
    }
    for (const Node* other : ev.from_a ? active_b : active_a) {
      if (ev.from_a) {
        join_pair(ev.node, other);
      } else {
        join_pair(other, ev.node);
      }
    }
    mine.push_back(ev.node);
  }
}

}  // namespace rdftx::mvbt
