// TemporalSet: a coalesced set of chronons, stored as sorted disjoint
// non-adjacent intervals. This realizes the paper's point-based temporal
// model (§3): adjacent physical intervals of the same fact behave as one
// run of consecutive time points, so LENGTH / TSTART / TEND see logical
// runs, and temporal joins are set intersections.
#ifndef RDFTX_TEMPORAL_TEMPORAL_SET_H_
#define RDFTX_TEMPORAL_TEMPORAL_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "temporal/interval.h"

namespace rdftx {

/// An immutable-after-normalization set of time points.
class TemporalSet {
 public:
  TemporalSet() = default;
  explicit TemporalSet(Interval iv) {
    if (!iv.empty()) runs_.push_back(iv);
  }

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals,
  /// coalescing overlapping and adjacent ones.
  static TemporalSet FromIntervals(std::vector<Interval> intervals);

  /// Normalizes `runs` in place the way FromIntervals does: drops empty
  /// intervals, sorts by start and coalesces overlapping and adjacent
  /// ones.
  static void Coalesce(std::vector<Interval>* runs);

  bool empty() const { return runs_.empty(); }

  /// Coalesced runs, sorted by start, pairwise disjoint and non-adjacent.
  const std::vector<Interval>& runs() const { return runs_; }

  /// Adds one interval, maintaining normalization. O(n) worst case.
  void Add(Interval iv);

  /// Set intersection.
  TemporalSet Intersect(const TemporalSet& other) const;

  bool Contains(Chronon t) const;

  /// First chronon of the earliest run (paper TSTART over the compact
  /// representation). Precondition: !empty().
  Chronon Start() const { return runs_.front().start; }

  /// One past the last chronon of the latest run (exclusive TEND).
  Chronon End() const { return runs_.back().end; }

  /// Longest single run, in days (paper LENGTH: "length of max duration").
  uint64_t MaxRunLength(Chronon now_hint = kChrononNow) const;

  /// Sum of all run lengths (paper TOTAL_LENGTH).
  uint64_t TotalLength(Chronon now_hint = kChrononNow) const;

  bool operator==(const TemporalSet& o) const = default;

  std::string ToString() const;

 private:
  std::vector<Interval> runs_;
};

}  // namespace rdftx

#endif  // RDFTX_TEMPORAL_TEMPORAL_SET_H_
