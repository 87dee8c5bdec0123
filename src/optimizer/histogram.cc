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

// out[i] = records of key keys[i] alive somewhere in [t1, t2) = started
// by t2-1 minus ended at or before t1 (§6.3 query reduction). `keys`
// ascending; one sweep per tree.
void RangeCounts(const mvsbt::Cmvsbt& starts, const mvsbt::Cmvsbt& ends,
                 std::span<const uint64_t> keys, const Interval& window,
                 std::span<double> out) {
  if (window.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const Chronon border =
      window.end == kChrononNow ? kChrononMax : window.end - 1;
  starts.QueryExact(keys, border, out);
  std::vector<double> ended(keys.size(), 0.0);
  if (window.start != 0) ends.QueryExact(keys, window.start, ended);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::max(0.0, out[i] - ended[i]);
  }
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
  occ_first_.assign(catalog_->set_count() + 1, 0);
  for (const auto& [cs, p] : occ_keys_) ++occ_first_[cs + 1];
  for (size_t cs = 1; cs < occ_first_.size(); ++cs) {
    occ_first_[cs] += occ_first_[cs - 1];
  }
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
  if (static_cast<size_t>(cs) + 1 >= occ_first_.size()) return ~0ull;
  const auto first = occ_keys_.begin() + occ_first_[cs];
  const auto last = occ_keys_.begin() + occ_first_[cs + 1];
  auto it = std::lower_bound(
      first, last, p, [](const std::pair<CharSetId, TermId>& composite,
                         TermId pred) { return composite.second < pred; });
  if (it == last || it->second != p) return ~0ull;
  return static_cast<uint64_t>(it - occ_keys_.begin());
}

void TemporalHistogram::EstimateOccurrences(std::span<const CharSetId> sets,
                                            TermId p, const Interval& window,
                                            std::span<double> out) const {
  // Dense keys ascend with the set id for a fixed predicate; a set that
  // never held `p` has no key and estimates 0.
  std::vector<uint64_t> keys;
  std::vector<size_t> slots;
  keys.reserve(sets.size());
  slots.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    const uint64_t key = DenseOccKey(sets[i], p);
    out[i] = 0.0;
    if (key == ~0ull) continue;
    keys.push_back(key);
    slots.push_back(i);
  }
  std::vector<double> counts(keys.size());
  RangeCounts(occ_starts_, occ_ends_, keys, window, counts);
  for (size_t j = 0; j < slots.size(); ++j) out[slots[j]] = counts[j];
}

void TemporalHistogram::EstimateSubjects(std::span<const CharSetId> sets,
                                         const Interval& window,
                                         std::span<double> out) const {
  const std::vector<uint64_t> keys(sets.begin(), sets.end());
  RangeCounts(subj_starts_, subj_ends_, keys, window, out);
}

double TemporalHistogram::EstimatePredicateTriples(
    TermId p, const Interval& window) const {
  const std::vector<CharSetId>& sets = catalog_->SetsWithPredicate(p);
  std::vector<double> occurrences(sets.size());
  EstimateOccurrences(sets, p, window, occurrences);
  double total = 0.0;
  for (double n : occurrences) total += n;
  return total;
}

size_t TemporalHistogram::MemoryUsage() const {
  return subj_starts_.MemoryUsage() + subj_ends_.MemoryUsage() +
         occ_starts_.MemoryUsage() + occ_ends_.MemoryUsage() +
         occ_keys_.capacity() * sizeof(occ_keys_[0]) +
         occ_first_.capacity() * sizeof(occ_first_[0]);
}

}  // namespace rdftx::optimizer
