// TemporalSet: a coalesced set of chronons, stored as sorted disjoint
// non-adjacent intervals. This realizes the paper's point-based temporal
// model (§3): adjacent physical intervals of the same fact behave as one
// run of consecutive time points, so LENGTH / TSTART / TEND see logical
// runs, and temporal joins are set intersections.
#ifndef RDFTX_TEMPORAL_TEMPORAL_SET_H_
#define RDFTX_TEMPORAL_TEMPORAL_SET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "temporal/interval.h"

namespace rdftx {

/// An immutable-after-normalization set of time points. A set of one
/// run keeps it inline; only two or more runs live on the heap, so
/// copying or building a single-run set never allocates.
class TemporalSet {
 public:
  TemporalSet() = default;
  explicit TemporalSet(Interval iv) {
    if (!iv.empty()) {
      one_ = iv;
      size_ = 1;
    }
  }
  TemporalSet(const TemporalSet& o) { Assign(o.runs()); }
  TemporalSet(TemporalSet&& o) noexcept { Steal(&o); }
  TemporalSet& operator=(const TemporalSet& o) {
    if (this != &o) Assign(o.runs());
    return *this;
  }
  TemporalSet& operator=(TemporalSet&& o) noexcept {
    if (this != &o) {
      Release();
      Steal(&o);
    }
    return *this;
  }
  ~TemporalSet() { Release(); }

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals,
  /// coalescing overlapping and adjacent ones.
  static TemporalSet FromIntervals(std::vector<Interval> intervals);

  /// Normalizes `runs` in place the way FromIntervals does: drops empty
  /// intervals, sorts by start and coalesces overlapping and adjacent
  /// ones.
  static void Coalesce(std::vector<Interval>* runs);

  bool empty() const { return size_ == 0; }

  /// Coalesced runs, sorted by start, pairwise disjoint and non-adjacent.
  /// Valid until the set next changes.
  std::span<const Interval> runs() const {
    return {size_ >= 2 ? heap_ : &one_, size_};
  }

  /// Adds one interval, maintaining normalization. O(n) worst case.
  void Add(Interval iv);

  /// Set intersection.
  TemporalSet Intersect(const TemporalSet& other) const;

  bool Contains(Chronon t) const;

  /// First chronon of the earliest run (paper TSTART over the compact
  /// representation). Precondition: !empty().
  Chronon Start() const { return runs().front().start; }

  /// One past the last chronon of the latest run (exclusive TEND).
  Chronon End() const { return runs().back().end; }

  /// Longest single run, in days (paper LENGTH: "length of max duration").
  uint64_t MaxRunLength(Chronon now_hint = kChrononNow) const;

  /// Sum of all run lengths (paper TOTAL_LENGTH).
  uint64_t TotalLength(Chronon now_hint = kChrononNow) const;

  bool operator==(const TemporalSet& o) const {
    return std::ranges::equal(runs(), o.runs());
  }

  std::string ToString() const;

 private:
  /// Replaces the runs with a copy of `runs` (already normalized).
  void Assign(std::span<const Interval> runs);
  void PushBack(Interval iv);
  /// Takes over `o`'s runs and leaves `o` empty; *this holds none.
  void Steal(TemporalSet* o);
  /// Frees the heap runs, if any, and leaves the set empty.
  void Release();

  // One run sits in `one_`; two or more in `heap_`, which holds `cap_`.
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  union {
    Interval one_{};
    Interval* heap_;
  };
};

}  // namespace rdftx

#endif  // RDFTX_TEMPORAL_TEMPORAL_SET_H_
