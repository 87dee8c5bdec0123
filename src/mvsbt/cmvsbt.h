// Compressed Multiversion SB-Tree (paper §6.2): a temporal aggregate
// index for COUNT dominance-sum queries over (key, time) points,
// tolerating bounded approximation in exchange for a small footprint.
//
// The key-time plane is tiled with rectangles. Each live rectangle
// absorbs up to `cm` points, tracking only (count, max key, max time);
// reaching the threshold splits it at (km, tm) into up to three
// rectangles, carrying dominance bases forward with the uniform-
// distribution approximation of the paper's leafEntrySplit (Fig. 6).
// Estimation combines the frozen base value v with the current count c
// scaled by the covered-area ratio (§6.3). Only the whole-domain count
// is exact, because every split conserves the shares. Per-key counts
// stay approximate even at cm = 1 with strictly increasing times: each
// split spreads the carried base over its key range.
//
// Like MVSBT, points must arrive in nondecreasing time order, which the
// transaction-time setting guarantees.
//
// Once every point is in, Seal() freezes the tree and sorts the
// rectangles by key, so exact-key queries for a batch of ascending keys
// are answered together in one sweep over the rectangles.
#ifndef RDFTX_MVSBT_CMVSBT_H_
#define RDFTX_MVSBT_CMVSBT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/date.h"

namespace rdftx::mvsbt {

/// Tuning for one CMVSBT.
struct CmvsbtOptions {
  /// Points absorbed by a leaf rectangle before it splits (the paper's
  /// cm). Larger => smaller histogram, coarser estimates.
  uint32_t cm = 16;
  /// Soft cap on the number of rectangles. When exceeded, cm doubles
  /// and time-adjacent frozen rectangles merge (§6.2.2's size control).
  size_t max_entries = 1u << 20;
};

/// COUNT dominance-sum index over (uint64 key, chronon time) points.
class Cmvsbt {
 public:
  explicit Cmvsbt(const CmvsbtOptions& options = {});

  /// Adds a point. Times must be nondecreasing across calls. Inserting
  /// into a sealed tree is an error (aborts).
  void Insert(uint64_t key, Chronon t);

  /// Ends insertion and sorts the rectangles by key for QueryExact.
  /// Call exactly once, after the last Insert.
  void Seal();

  /// Estimated number of points with key <= k and time <= t. A linear
  /// scan over every rectangle; the reference QueryExact must agree with.
  double Query(uint64_t k, Chronon t) const;

  /// For every i, out[i] = estimated number of points with key ==
  /// keys[i] and time <= t (Query(k, t) - Query(k - 1, t), clamped to
  /// >= 0). `keys` must be ascending (repeats allowed) and `out` as long
  /// as `keys`. One sweep over the rectangles answers the whole batch.
  /// Requires Seal().
  void QueryExact(std::span<const uint64_t> keys, Chronon t,
                  std::span<double> out) const;

  size_t entry_count() const { return entries_.size() + live_.size(); }
  size_t point_count() const { return points_; }
  size_t MemoryUsage() const;

 private:
  struct Entry {
    uint64_t ks = 0, ke = 0;  // key range [ks, ke)
    Chronon ts = 0;           // time range [ts, te); te open = kChrononNow
    Chronon te = kChrononNow;
    uint64_t kmin = 0, km = 0;  // key bounding box of current points
    Chronon tmin = 0, tm = 0;   // time bounding box of current points
    double v = 0;   // this column's share of points before ts (see .cc)
    uint64_t vks = 0;  // effective key floor of the carried mass
    uint64_t vke = 0;  // effective key ceiling of the carried mass
    uint32_t c = 0;  // current points in this rectangle

    bool live() const { return te == kChrononNow; }
  };

  static double Contribution(const Entry& e, uint64_t k, Chronon t);
  /// Largest key whose prefix count `e` can change: for every k above
  /// it, Contribution(e, k, t) == Contribution(e, k - 1, t).
  static uint64_t SpanEnd(const Entry& e);

  void TimeFreeze(size_t live_index);
  void KeySplit(size_t live_index);
  void Compact();
  void CompactLive();
  size_t FindLive(uint64_t key) const;
  static uint64_t SplitBoundary(const Entry& e);
  static double CarriedFractionBelow(const Entry& e, uint64_t m);

  CmvsbtOptions options_;
  uint32_t cm_;
  size_t points_ = 0;
  size_t last_frozen_compact_ = 0;
  Chronon last_time_ = 0;
  // Before Seal(): frozen entries in any order, and the live column
  // tiling sorted by ks. After Seal(): every entry in entries_, sorted
  // by (ks, ts), and live_ empty.
  std::vector<Entry> entries_;
  std::vector<Entry> live_;
  bool sealed_ = false;

  friend class CmvsbtPeer;  // tests read rectangle time bounds
};

}  // namespace rdftx::mvsbt

#endif  // RDFTX_MVSBT_CMVSBT_H_
