// Characteristic sets (Neumann & Moerkotte, ICDE 2011; paper §6.1):
// semantically similar subjects share the same set of predicates. The
// catalog maps each subject to its characteristic set and each set to
// its predicates, and keeps per-predicate distinct subjects and objects.
// The per-set subject and occurrence counts of the paper's
// join-cardinality formula vary with time, so they come from the
// temporal histogram (histogram.h), keyed by the catalog's set ids.
#ifndef RDFTX_OPTIMIZER_CHAR_SET_H_
#define RDFTX_OPTIMIZER_CHAR_SET_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rdf/triple.h"

namespace rdftx::optimizer {

/// Identifier of one characteristic set.
using CharSetId = uint32_t;

inline constexpr CharSetId kNoCharSet = 0xFFFFFFFFu;

/// Static (time-independent) characteristic-set statistics of a loaded
/// temporal RDF graph.
class CharSetCatalog {
 public:
  /// Builds the catalog from the full triple history. Like Neumann &
  /// Moerkotte, only the `max_sets` most populous characteristic sets
  /// are kept distinct; subjects with rarer predicate combinations fall
  /// into one overflow set, which bounds both the catalog and the
  /// optimizer's per-query work on heavy-tailed schemas.
  void Build(const std::vector<TemporalTriple>& triples,
             size_t max_sets = 2048);

  /// The characteristic set of a subject, or kNoCharSet.
  CharSetId SetOf(TermId subject) const;

  /// Characteristic sets whose predicate set contains `p`.
  const std::vector<CharSetId>& SetsWithPredicate(TermId p) const;

  /// The predicates of a characteristic set, sorted.
  const std::vector<TermId>& predicates(CharSetId id) const {
    return sets_[id];
  }
  size_t set_count() const { return sets_.size(); }

  /// Global per-predicate statistics (for object-bound patterns).
  struct PredStats {
    uint64_t distinct_subjects = 0;
    uint64_t distinct_objects = 0;
  };
  const PredStats* pred_stats(TermId p) const;

  uint64_t total_triples() const { return total_triples_; }
  uint64_t total_subjects() const { return subject_to_set_.size(); }
  uint64_t total_objects() const { return total_objects_; }
  uint64_t total_predicates() const { return pred_stats_.size(); }
  size_t MemoryUsage() const;

 private:
  std::vector<std::vector<TermId>> sets_;  // predicates per set
  std::unordered_map<TermId, CharSetId> subject_to_set_;
  std::unordered_map<TermId, std::vector<CharSetId>> pred_to_sets_;
  std::unordered_map<TermId, PredStats> pred_stats_;
  std::vector<CharSetId> empty_;
  uint64_t total_triples_ = 0;
  uint64_t total_objects_ = 0;
};

}  // namespace rdftx::optimizer

#endif  // RDFTX_OPTIMIZER_CHAR_SET_H_
