#include "temporal/temporal_set.h"

#include <algorithm>

namespace rdftx {

void TemporalSet::Coalesce(std::vector<Interval>* runs) {
  std::erase_if(*runs, [](const Interval& iv) { return iv.empty(); });
  std::sort(runs->begin(), runs->end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start || (a.start == b.start && a.end < b.end);
            });
  size_t kept = 0;
  for (const Interval& iv : *runs) {
    if (kept > 0 && iv.start <= (*runs)[kept - 1].end) {
      (*runs)[kept - 1].end = std::max((*runs)[kept - 1].end, iv.end);
    } else {
      (*runs)[kept++] = iv;
    }
  }
  runs->resize(kept);
}

TemporalSet TemporalSet::FromIntervals(std::vector<Interval> intervals) {
  Coalesce(&intervals);
  TemporalSet out;
  out.Assign(intervals);
  return out;
}

void TemporalSet::Assign(std::span<const Interval> runs) {
  const auto n = static_cast<uint32_t>(runs.size());
  if (n < 2) {
    Release();
    if (n == 1) {
      one_ = runs[0];
      size_ = 1;
    }
    return;
  }
  if (size_ < 2 || cap_ < n) {
    Release();
    heap_ = new Interval[n];
    cap_ = n;
  }
  std::copy(runs.begin(), runs.end(), heap_);
  size_ = n;
}

void TemporalSet::PushBack(Interval iv) {
  if (size_ == 0) {
    one_ = iv;
    size_ = 1;
    return;
  }
  if (size_ == 1) {
    const Interval first = one_;
    heap_ = new Interval[4];
    cap_ = 4;
    heap_[0] = first;
  } else if (size_ == cap_) {
    auto* grown = new Interval[2 * cap_];
    std::copy(heap_, heap_ + size_, grown);
    delete[] heap_;
    heap_ = grown;
    cap_ *= 2;
  }
  heap_[size_++] = iv;
}

void TemporalSet::Steal(TemporalSet* o) {
  size_ = o->size_;
  cap_ = o->cap_;
  if (size_ >= 2) {
    heap_ = o->heap_;
  } else if (size_ == 1) {
    one_ = o->one_;
  }
  o->size_ = 0;
  o->cap_ = 0;
}

void TemporalSet::Release() {
  if (size_ >= 2) delete[] heap_;
  size_ = 0;
  cap_ = 0;
}

void TemporalSet::Add(Interval iv) {
  if (iv.empty()) return;
  // Fast path: append or extend at the back (the common case when runs
  // arrive in time order from an index scan).
  if (empty() || iv.start > End()) {
    PushBack(iv);
    return;
  }
  const std::span<const Interval> r = runs();
  if (iv.start >= r.front().start && iv.end >= r.back().end) {
    // iv reaches the last run, so it swallows a suffix of the runs.
    size_t keep = r.size();
    while (keep > 0 && iv.start <= r[keep - 1].end &&
           iv.end >= r[keep - 1].start) {
      iv.start = std::min(iv.start, r[keep - 1].start);
      iv.end = std::max(iv.end, r[keep - 1].end);
      --keep;
    }
    if (keep == 0) {
      Release();
      PushBack(iv);
    } else {  // the last run went, so two or more runs stay on the heap
      heap_[keep] = iv;
      size_ = static_cast<uint32_t>(keep + 1);
    }
    return;
  }
  // General path: rebuild.
  std::vector<Interval> all(r.begin(), r.end());
  all.push_back(iv);
  Coalesce(&all);
  Assign(all);
}

TemporalSet TemporalSet::Intersect(const TemporalSet& other) const {
  TemporalSet out;
  const std::span<const Interval> a = runs();
  const std::span<const Interval> b = other.runs();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    Interval x = a[i].Intersect(b[j]);
    if (!x.empty()) out.PushBack(x);
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

bool TemporalSet::Contains(Chronon t) const {
  const std::span<const Interval> r = runs();
  auto it = std::upper_bound(
      r.begin(), r.end(), t,
      [](Chronon v, const Interval& iv) { return v < iv.start; });
  if (it == r.begin()) return false;
  --it;
  return it->Contains(t);
}

uint64_t TemporalSet::MaxRunLength(Chronon now_hint) const {
  uint64_t best = 0;
  for (const Interval& iv : runs()) best = std::max(best, iv.Length(now_hint));
  return best;
}

uint64_t TemporalSet::TotalLength(Chronon now_hint) const {
  uint64_t sum = 0;
  for (const Interval& iv : runs()) sum += iv.Length(now_hint);
  return sum;
}

std::string TemporalSet::ToString() const {
  if (empty()) return "{}";
  std::string out;
  const std::span<const Interval> r = runs();
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) out += ", ";
    out += r[i].ToString();
  }
  return out;
}

}  // namespace rdftx
