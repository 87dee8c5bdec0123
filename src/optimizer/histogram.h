// The temporal histogram (paper §6.2): four compressed MVSBTs — one
// {start, end} pair for distinct-subject counts and one pair for
// predicate occurrences — keyed by (characteristic set, predicate)
// composites, plus the characteristic-set schema. Range statistics come
// from the §6.3 query reduction: the count of records in key range K
// alive during [t1, t2) equals starts(K, <= t2-1) - ends(K, <= t1).
#ifndef RDFTX_OPTIMIZER_HISTOGRAM_H_
#define RDFTX_OPTIMIZER_HISTOGRAM_H_

#include <span>
#include <utility>
#include <vector>

#include "mvsbt/cmvsbt.h"
#include "optimizer/char_set.h"
#include "temporal/interval.h"

namespace rdftx::optimizer {

/// Options for the histogram.
struct HistogramOptions {
  /// CMVSBT leaf threshold.
  uint32_t cm = 16;
  /// Target ceiling for the histogram as a fraction of raw-data bytes
  /// (the paper caps it at 10%). Enforced by growing cm and merging.
  double max_fraction_of_raw = 0.10;
};

/// Time-varying statistics of a temporal RDF graph. Immutable once
/// constructed, so concurrent queries share it without locking.
class TemporalHistogram {
 public:
  /// Builds the histogram (and uses `catalog` for cs membership).
  /// `raw_bytes` is the raw dataset size used for the 10% size cap.
  TemporalHistogram(const CharSetCatalog* catalog,
                    const std::vector<TemporalTriple>& triples,
                    size_t raw_bytes, HistogramOptions options = {});

  /// out[i] = estimated occurrences of predicate `p` in characteristic
  /// set sets[i] on triples alive somewhere in `window`. `sets` must be
  /// ascending and `out` as long as `sets`. One sweep of each tree of
  /// the start/end pair answers the whole batch.
  void EstimateOccurrences(std::span<const CharSetId> sets, TermId p,
                           const Interval& window,
                           std::span<double> out) const;

  /// out[i] = estimated number of distinct subjects of sets[i] alive in
  /// `window`. Same batch contract as EstimateOccurrences.
  void EstimateSubjects(std::span<const CharSetId> sets,
                        const Interval& window, std::span<double> out) const;

  /// Estimated triples with predicate `p` alive in `window` (summed over
  /// every characteristic set containing `p`).
  double EstimatePredicateTriples(TermId p, const Interval& window) const;

  size_t MemoryUsage() const;

 private:
  /// Dense id of an occurrence composite (CMVSBT columns stay tight when
  /// the key space has no sparse gaps); ~0ull when never seen.
  uint64_t DenseOccKey(CharSetId cs, TermId p) const;

  const CharSetCatalog* catalog_;
  mvsbt::Cmvsbt subj_starts_;
  mvsbt::Cmvsbt subj_ends_;
  mvsbt::Cmvsbt occ_starts_;
  mvsbt::Cmvsbt occ_ends_;
  Chronon horizon_ = 0;  // substitute for `now` on live records
  // Every (cs, p) composite seen, sorted; an index is the dense key.
  std::vector<std::pair<CharSetId, TermId>> occ_keys_;
  // occ_keys_[occ_first_[cs], occ_first_[cs + 1]) are the composites of
  // set cs.
  std::vector<uint32_t> occ_first_;
};

}  // namespace rdftx::optimizer

#endif  // RDFTX_OPTIMIZER_HISTOGRAM_H_
