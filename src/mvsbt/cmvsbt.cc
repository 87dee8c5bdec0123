#include "mvsbt/cmvsbt.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace rdftx::mvsbt {

// Estimation model (paper §6.2-6.3). The key-time plane is tiled; at any
// time t the entries whose time range contains t form a "row" of key
// columns. Each entry carries:
//   v   — its share of the points inserted before its rectangle began;
//         shares along a row always sum to the points inserted before
//         the row, so full-domain queries are exact;
//   vke — the effective key ceiling of that carried mass (sharpens
//         prefix queries over unbounded columns);
//   c   — points currently absorbed, with their observed bounding box
//         [kmin,km] x [tmin,tm] for the area-ratio estimate.
// A query (k, t) accumulates, over row entries with ks <= k:
//   v * key-fraction + c * ratio_k * ratio_t.
//
// Deviations from the paper's leafEntrySplit, for sharper estimates at
// equal size (documented in DESIGN.md): splits happen *before* a point
// that would overflow a saturated rectangle, so frozen rectangles
// contain their points exactly; and key splits cut at the midpoint of
// the observed key box rather than at the maximum, so columns converge
// to per-key resolution under repeated insertion.

Cmvsbt::Cmvsbt(const CmvsbtOptions& options)
    : options_(options), cm_(std::max<uint32_t>(1, options.cm)) {
  live_.push_back(Entry{0, UINT64_MAX, 0, kChrononNow});
}

size_t Cmvsbt::FindLive(uint64_t key) const {
  // live_ is sorted by ks and tiles the key space.
  size_t lo = 0, hi = live_.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (live_[mid].ks <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Cmvsbt::Insert(uint64_t key, Chronon t) {
  if (sealed_) {
    std::fprintf(stderr, "Cmvsbt::Insert after Seal\n");
    std::abort();
  }
  assert(t >= last_time_);
  last_time_ = t;
  ++points_;
  size_t idx = FindLive(key);
  if (live_[idx].c >= cm_) {
    if (t > live_[idx].tm) {
      TimeFreeze(idx);
    } else if (live_[idx].km > live_[idx].ks) {
      KeySplit(idx);
    }
    // else: a same-version burst on a single key cell; keep absorbing
    // (the bounding box stays exact).
    idx = FindLive(key);
  }
  Entry& e = live_[idx];
  assert(key >= e.ks && key < e.ke);
  if (e.c == 0) {
    e.kmin = e.km = key;
    e.tmin = e.tm = t;
  } else {
    e.kmin = std::min(e.kmin, key);
    e.km = std::max(e.km, key);
    e.tm = std::max(e.tm, t);  // times are nondecreasing; tmin fixed
  }
  ++e.c;
  // Size control (§6.2.2): frozen entries merge along time; live columns
  // merge along keys. Each pool is checked against half the budget, and
  // compaction runs only when it can actually shrink the pool (otherwise
  // a budget smaller than the working set would trigger a quadratic
  // re-sort on every insert).
  const size_t half_budget = std::max<size_t>(32, options_.max_entries / 2);
  if (entries_.size() > half_budget &&
      entries_.size() > last_frozen_compact_ * 3 / 2) {
    Compact();
    last_frozen_compact_ = entries_.size();
  }
  if (live_.size() > half_budget) CompactLive();
}

void Cmvsbt::CompactLive() {
  cm_ *= 2;
  // Merge adjacent key columns pairwise: shares add, point boxes union.
  std::vector<Entry> merged;
  merged.reserve(live_.size() / 2 + 1);
  for (size_t i = 0; i < live_.size(); i += 2) {
    if (i + 1 == live_.size()) {
      merged.push_back(live_[i]);
      break;
    }
    const Entry& a = live_[i];
    const Entry& b = live_[i + 1];
    Entry m;
    m.ks = a.ks;
    m.ke = b.ke;
    m.ts = std::min(a.ts, b.ts);
    m.te = kChrononNow;
    m.v = a.v + b.v;
    m.vks = a.v > 0 ? a.vks : b.vks;
    m.vke = std::max(a.vke, b.vke);
    m.c = a.c + b.c;
    if (a.c > 0 && b.c > 0) {
      m.kmin = std::min(a.kmin, b.kmin);
      m.km = std::max(a.km, b.km);
      m.tmin = std::min(a.tmin, b.tmin);
      m.tm = std::max(a.tm, b.tm);
    } else if (a.c > 0) {
      m.kmin = a.kmin;
      m.km = a.km;
      m.tmin = a.tmin;
      m.tm = a.tm;
    } else if (b.c > 0) {
      m.kmin = b.kmin;
      m.km = b.km;
      m.tmin = b.tmin;
      m.tm = b.tm;
    }
    merged.push_back(m);
  }
  live_ = std::move(merged);
}

// Key boundary for splitting a column: midpoint of the observed key box
// when it spans more than one key, else the single key itself (isolated
// into the upper column). Requires e.km > e.ks.
uint64_t Cmvsbt::SplitBoundary(const Entry& e) {
  if (e.kmin < e.km) return e.kmin + (e.km - e.kmin) / 2 + 1;
  return e.km;
}

// Fraction of the carried mass of `e` (spanning [vks, vke)) lying below
// key boundary `m`.
double Cmvsbt::CarriedFractionBelow(const Entry& e, uint64_t m) {
  if (e.vke <= e.vks) return m > e.vks ? 1.0 : 0.0;  // point mass at vks
  if (m >= e.vke) return 1.0;
  if (m <= e.vks) return 0.0;
  return static_cast<double>(m - e.vks) /
         static_cast<double>(e.vke - e.vks);
}

void Cmvsbt::TimeFreeze(size_t live_index) {
  Entry e = live_[live_index];
  const Chronon cut = e.tm + 1;  // all points lie strictly below cut
  Entry frozen = e;
  frozen.te = cut;
  entries_.push_back(frozen);
  // Mass span of v + c combined, for the successors.
  Entry carried = e;
  if (e.c > 0) {
    if (e.v > 0) {
      carried.vks = std::min(e.vks, e.kmin);
      carried.vke = std::max(e.vke, e.km + 1);
    } else {
      carried.vks = e.kmin;
      carried.vke = e.km + 1;
    }
  }
  if (e.km > e.ks) {
    const uint64_t m = SplitBoundary(e);
    double c_low, c_high;
    if (e.kmin < e.km) {
      c_low = c_high = static_cast<double>(e.c) / 2.0;
    } else {
      c_low = 0.0;
      c_high = static_cast<double>(e.c);
    }
    const double frac = CarriedFractionBelow(e, m);
    Entry r1{e.ks, m, cut, kChrononNow};
    r1.v = e.v * frac + c_low;
    r1.vks = std::max(e.ks, std::min(carried.vks, m));
    r1.vke = std::min(m, carried.vke);
    Entry r2{m, e.ke, cut, kChrononNow};
    r2.v = e.v * (1.0 - frac) + c_high;
    r2.vks = std::max(m, carried.vks);
    r2.vke = std::min(e.ke, std::max(carried.vke, r2.vks));
    live_[live_index] = r1;
    live_.insert(live_.begin() + static_cast<ptrdiff_t>(live_index) + 1,
                 r2);
  } else {
    Entry r{e.ks, e.ke, cut, kChrononNow};
    r.v = e.v + static_cast<double>(e.c);
    r.vks = carried.vks;
    r.vke = std::min(e.ke, carried.vke);
    live_[live_index] = r;
  }
}

void Cmvsbt::KeySplit(size_t live_index) {
  Entry e = live_[live_index];
  const uint64_t m = SplitBoundary(e);
  assert(m > e.ks && m < e.ke);
  double c_low, c_high;
  if (e.kmin < e.km) {
    c_low = c_high = static_cast<double>(e.c) / 2.0;
  } else {
    c_low = 0.0;
    c_high = static_cast<double>(e.c);
  }
  const double frac = CarriedFractionBelow(e, m);
  Entry r1 = e, r2 = e;
  r1.ke = m;
  r1.v = e.v * frac;
  r1.vks = std::min(e.vks, m);
  r1.vke = std::min(m, e.vke);
  r1.c = static_cast<uint32_t>(c_low);
  r1.km = std::min(e.km, m - 1);
  r1.kmin = std::min(e.kmin, r1.km);
  // Track any rounding loss in the carried share so row sums stay exact
  // (attributed to this column's point box).
  r1.v += c_low - static_cast<double>(r1.c);
  if (c_low > 0 && r1.v > e.v * frac) {
    r1.vks = std::min(r1.vks, r1.kmin);
    r1.vke = std::max(r1.vke, std::min(m, r1.km + 1));
  }
  r2.ks = m;
  r2.v = e.v * (1.0 - frac);
  r2.vks = std::max(m, e.vks);
  r2.vke = std::max(r2.vks, e.vke);
  r2.c = static_cast<uint32_t>(c_high);
  r2.kmin = std::max(e.kmin, m);
  r2.km = std::max(e.km, r2.kmin);
  r2.v += c_high - static_cast<double>(r2.c);
  if (c_high > 0 && r2.v > e.v * (1.0 - frac)) {
    r2.vks = std::min(r2.vks, r2.kmin);
    r2.vke = std::max(r2.vke, r2.km + 1);
  }
  live_[live_index] = r1;
  live_.insert(live_.begin() + static_cast<ptrdiff_t>(live_index) + 1, r2);
}

void Cmvsbt::Compact() {
  cm_ *= 2;
  // Merge frozen entries that are time-adjacent within the same key
  // column: [ks,ke) x [t1,t2) + [ks,ke) x [t2,t3) -> [ks,ke) x [t1,t3).
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.ks != b.ks) return a.ks < b.ks;
              if (a.ke != b.ke) return a.ke < b.ke;
              return a.ts < b.ts;
            });
  std::vector<Entry> merged;
  merged.reserve(entries_.size() / 2 + 1);
  for (const Entry& e : entries_) {
    if (!merged.empty()) {
      Entry& last = merged.back();
      if (last.ks == e.ks && last.ke == e.ke && last.te == e.ts) {
        last.te = e.te;
        last.c += e.c;
        last.kmin = std::min(last.kmin, e.kmin);
        last.km = std::max(last.km, e.km);
        last.tm = std::max(last.tm, e.tm);
        last.vks = std::min(last.vks, e.vks);
        last.vke = std::max(last.vke, e.vke);
        // v of the earlier rectangle stays the base of the merge.
        continue;
      }
    }
    merged.push_back(e);
  }
  entries_ = std::move(merged);
}

double Cmvsbt::Contribution(const Entry& e, uint64_t k, Chronon t) {
  if (t < e.ts || t >= e.te || e.ks > k) return 0.0;
  double sum;
  if (e.vke <= e.vks || k >= e.vke - 1) {
    sum = k >= e.vks ? e.v : 0.0;  // mass fully at or below k (or above)
  } else if (k < e.vks) {
    sum = 0.0;
  } else {
    sum = e.v * (static_cast<double>(k - e.vks + 1) /
                 static_cast<double>(e.vke - e.vks));
  }
  if (e.c > 0) {
    double ratio_k;
    if (k >= e.km) {
      ratio_k = 1.0;
    } else if (k < e.kmin) {
      ratio_k = 0.0;
    } else {
      ratio_k = static_cast<double>(k - e.kmin + 1) /
                static_cast<double>(e.km - e.kmin + 1);
    }
    double ratio_t;
    if (t >= e.tm) {
      ratio_t = 1.0;
    } else if (t < e.tmin) {
      ratio_t = 0.0;
    } else {
      ratio_t = static_cast<double>(t - e.tmin + 1) /
                static_cast<double>(e.tm - e.tmin + 1);
    }
    sum += static_cast<double>(e.c) * ratio_k * ratio_t;
  }
  return sum;
}

// Contribution(e, k, t) is 0 below ks. Its carried part is constant from
// vks on (point mass) or from vke - 1 on (spread mass), and its point
// part from km on. So it is flat for every k past the largest of these.
uint64_t Cmvsbt::SpanEnd(const Entry& e) {
  uint64_t end = e.ks;
  if (e.v != 0.0) end = std::max(end, e.vke > e.vks ? e.vke - 1 : e.vks);
  if (e.c > 0) end = std::max(end, e.km);
  return end;
}

double Cmvsbt::Query(uint64_t k, Chronon t) const {
  double total = 0.0;
  for (const Entry& e : entries_) total += Contribution(e, k, t);
  for (const Entry& e : live_) total += Contribution(e, k, t);
  return total;
}

void Cmvsbt::Seal() {
  assert(!sealed_);
  sealed_ = true;
  entries_.insert(entries_.end(), live_.begin(), live_.end());
  live_.clear();
  live_.shrink_to_fit();
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.ks != b.ks) return a.ks < b.ks;
              return a.ts < b.ts;
            });
  entries_.shrink_to_fit();
}

void Cmvsbt::QueryExact(std::span<const uint64_t> keys, Chronon t,
                        std::span<double> out) const {
  assert(sealed_);
  assert(out.size() == keys.size());
  assert(std::is_sorted(keys.begin(), keys.end()));
  // Only entries with ks <= k <= SpanEnd can make Query(k, t) and
  // Query(k - 1, t) differ; every other entry adds the same to both.
  // Of those, entries not alive at t add exactly 0.0 to both. The sweep
  // keeps the rest in `active`, in entries_ order: an entry joins when
  // the keys reach its ks and leaves once they pass its SpanEnd.
  struct Active {
    const Entry* e;
    uint64_t span_end;
  };
  std::vector<Active> active;
  size_t next = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t k = keys[i];
    for (; next < entries_.size() && entries_[next].ks <= k; ++next) {
      const Entry& e = entries_[next];
      if (t < e.ts || t >= e.te) continue;
      const uint64_t span_end = SpanEnd(e);
      if (span_end >= k) active.push_back({&e, span_end});
    }
    std::erase_if(active, [k](const Active& a) { return a.span_end < k; });
    double hi = 0.0, lo = 0.0;
    for (const Active& a : active) {
      hi += Contribution(*a.e, k, t);
      if (k > 0) lo += Contribution(*a.e, k - 1, t);
    }
    out[i] = std::max(0.0, hi - lo);
  }
}

size_t Cmvsbt::MemoryUsage() const {
  return (entries_.capacity() + live_.capacity()) * sizeof(Entry) +
         sizeof(*this);
}

}  // namespace rdftx::mvsbt
