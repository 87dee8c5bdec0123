#include "optimizer/histogram.h"

#include <algorithm>
#include <unordered_map>

namespace rdftx::optimizer {
namespace {

struct Point {
  uint64_t key;
  Chronon t;
};

void BulkInsert(mvsbt::Cmvsbt* tree, std::vector<Point>* points) {
  std::sort(points->begin(), points->end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  for (const Point& p : *points) tree->Insert(p.key, p.t);
}

// Records alive somewhere in [t1, t2) = started by t2-1 minus ended at
// or before t1 (§6.3 query reduction).
double RangeCount(const mvsbt::Cmvsbt& starts, const mvsbt::Cmvsbt& ends,
                  uint64_t key, const Interval& window) {
  if (window.empty()) return 0.0;
  const Chronon border =
      window.end == kChrononNow ? kChrononMax : window.end - 1;
  double started = starts.QueryExact(key, border);
  double ended = window.start == 0 ? 0.0 : ends.QueryExact(key, window.start);
  return std::max(0.0, started - ended);
}

mvsbt::CmvsbtOptions TreeOptions(const HistogramOptions& options,
                                 size_t raw_bytes) {
  mvsbt::CmvsbtOptions out;
  out.cm = options.cm;
  // Four trees share the size budget.
  size_t budget =
      static_cast<size_t>(options.max_fraction_of_raw *
                          static_cast<double>(raw_bytes));
  out.max_entries = std::max<size_t>(64, budget / 4 / 96);
  return out;
}

}  // namespace

TemporalHistogram::TemporalHistogram(
    const CharSetCatalog* catalog,
    const std::vector<TemporalTriple>& triples, size_t raw_bytes,
    HistogramOptions options)
    : catalog_(catalog),
      subj_starts_(TreeOptions(options, raw_bytes)),
      subj_ends_(TreeOptions(options, raw_bytes)),
      occ_starts_(TreeOptions(options, raw_bytes)),
      occ_ends_(TreeOptions(options, raw_bytes)) {
  for (const TemporalTriple& tt : triples) {
    horizon_ = std::max(horizon_, tt.iv.start);
    if (tt.iv.end != kChrononNow) horizon_ = std::max(horizon_, tt.iv.end);
  }
  if (horizon_ == 0) horizon_ = 1;

  std::vector<Point> occ_start_points, occ_end_points;
  occ_start_points.reserve(triples.size());
  occ_end_points.reserve(triples.size());
  struct Span {
    Chronon start = kChrononMax;
    Chronon end = 0;
  };
  std::unordered_map<TermId, Span> subject_spans;
  // Dense occurrence keys: sorted by (cs, p) so related predicates of
  // one characteristic set stay adjacent in the CMVSBT key dimension.
  for (const TemporalTriple& tt : triples) {
    CharSetId cs = catalog_->SetOf(tt.triple.s);
    if (cs != kNoCharSet) occ_keys_.emplace_back(cs, tt.triple.p);
  }
  std::sort(occ_keys_.begin(), occ_keys_.end());
  occ_keys_.erase(std::unique(occ_keys_.begin(), occ_keys_.end()),
                  occ_keys_.end());
  occ_keys_.shrink_to_fit();
  for (const TemporalTriple& tt : triples) {
    CharSetId cs = catalog_->SetOf(tt.triple.s);
    if (cs == kNoCharSet) continue;
    const uint64_t key = DenseOccKey(cs, tt.triple.p);
    const Chronon end =
        tt.iv.end == kChrononNow ? horizon_ : tt.iv.end;
    occ_start_points.push_back({key, tt.iv.start});
    occ_end_points.push_back({key, end});
    Span& span = subject_spans[tt.triple.s];
    span.start = std::min(span.start, tt.iv.start);
    span.end = std::max(span.end, end);
  }
  BulkInsert(&occ_starts_, &occ_start_points);
  BulkInsert(&occ_ends_, &occ_end_points);

  std::vector<Point> subj_start_points, subj_end_points;
  subj_start_points.reserve(subject_spans.size());
  for (const auto& [subject, span] : subject_spans) {
    CharSetId cs = catalog_->SetOf(subject);
    subj_start_points.push_back({cs, span.start});
    subj_end_points.push_back({cs, span.end});
  }
  BulkInsert(&subj_starts_, &subj_start_points);
  BulkInsert(&subj_ends_, &subj_end_points);
  for (mvsbt::Cmvsbt* tree :
       {&subj_starts_, &subj_ends_, &occ_starts_, &occ_ends_}) {
    tree->Seal();
  }
}

uint64_t TemporalHistogram::DenseOccKey(CharSetId cs, TermId p) const {
  const std::pair<CharSetId, TermId> composite(cs, p);
  auto it = std::lower_bound(occ_keys_.begin(), occ_keys_.end(), composite);
  if (it == occ_keys_.end() || *it != composite) return ~0ull;
  return static_cast<uint64_t>(it - occ_keys_.begin());
}

double TemporalHistogram::EstimateOccurrences(CharSetId cs, TermId p,
                                              const Interval& window) const {
  uint64_t key = DenseOccKey(cs, p);
  if (key == ~0ull) return 0.0;
  return RangeCount(occ_starts_, occ_ends_, key, window);
}

double TemporalHistogram::EstimateSubjects(CharSetId cs,
                                           const Interval& window) const {
  return RangeCount(subj_starts_, subj_ends_, cs, window);
}

double TemporalHistogram::EstimatePredicateTriples(
    TermId p, const Interval& window) const {
  double total = 0.0;
  for (CharSetId cs : catalog_->SetsWithPredicate(p)) {
    total += EstimateOccurrences(cs, p, window);
  }
  return total;
}

size_t TemporalHistogram::MemoryUsage() const {
  return subj_starts_.MemoryUsage() + subj_ends_.MemoryUsage() +
         occ_starts_.MemoryUsage() + occ_ends_.MemoryUsage() +
         occ_keys_.capacity() * sizeof(occ_keys_[0]);
}

}  // namespace rdftx::optimizer
