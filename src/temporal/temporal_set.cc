#include "temporal/temporal_set.h"

#include <algorithm>
#include <utility>

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
  out.runs_ = std::move(intervals);
  return out;
}

void TemporalSet::Add(Interval iv) {
  if (iv.empty()) return;
  // Fast path: append or extend at the back (the common case when runs
  // arrive in time order from an index scan).
  if (runs_.empty() || iv.start > runs_.back().end) {
    runs_.push_back(iv);
    return;
  }
  if (iv.start >= runs_.front().start && iv.start <= runs_.back().end &&
      iv.end >= runs_.back().end) {
    // Might merge with a suffix of runs; handle the common back-merge.
    while (!runs_.empty() && iv.start <= runs_.back().end &&
           iv.end >= runs_.back().start) {
      iv.start = std::min(iv.start, runs_.back().start);
      iv.end = std::max(iv.end, runs_.back().end);
      runs_.pop_back();
    }
    runs_.push_back(iv);
    return;
  }
  // General path: rebuild.
  std::vector<Interval> all = runs_;
  all.push_back(iv);
  *this = FromIntervals(std::move(all));
}

TemporalSet TemporalSet::Intersect(const TemporalSet& other) const {
  TemporalSet out;
  size_t i = 0, j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    Interval x = runs_[i].Intersect(other.runs_[j]);
    if (!x.empty()) out.runs_.push_back(x);
    if (runs_[i].end < other.runs_[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

bool TemporalSet::Contains(Chronon t) const {
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), t,
      [](Chronon v, const Interval& iv) { return v < iv.start; });
  if (it == runs_.begin()) return false;
  --it;
  return it->Contains(t);
}

uint64_t TemporalSet::MaxRunLength(Chronon now_hint) const {
  uint64_t best = 0;
  for (const Interval& iv : runs_) best = std::max(best, iv.Length(now_hint));
  return best;
}

uint64_t TemporalSet::TotalLength(Chronon now_hint) const {
  uint64_t sum = 0;
  for (const Interval& iv : runs_) sum += iv.Length(now_hint);
  return sum;
}

std::string TemporalSet::ToString() const {
  if (runs_.empty()) return "{}";
  std::string out;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += runs_[i].ToString();
  }
  return out;
}

}  // namespace rdftx
