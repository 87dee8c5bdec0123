// The RDF-TX query optimizer (paper §6): cost-based join ordering via
// bottom-up dynamic programming [Moerkotte & Neumann], with cardinality
// estimates that combine characteristic sets and the temporal histogram.
// Plans are join orders only: left-deep, avoiding cross products when the
// query graph allows. The executor picks merge or hash join per step.
#ifndef RDFTX_OPTIMIZER_OPTIMIZER_H_
#define RDFTX_OPTIMIZER_OPTIMIZER_H_

#include <vector>

#include "engine/executor.h"
#include "optimizer/char_set.h"
#include "optimizer/histogram.h"

namespace rdftx::optimizer {

/// Cost-based join-order optimizer over a loaded graph's statistics.
class QueryOptimizer {
 public:
  QueryOptimizer(const CharSetCatalog* catalog,
                 const TemporalHistogram* histogram);

  /// Estimated result cardinality of one pattern scan.
  double EstimatePattern(const engine::CompiledPattern& cp) const;

  /// Estimated cardinality of joining the given patterns (subset of the
  /// query). Subject-star subsets use the characteristic-set formula.
  double EstimateSubsetCard(const engine::CompiledQuery& cq,
                            uint32_t mask) const;

  /// Estimated cost of executing the patterns in `order` left-deep.
  double EstimateOrderCost(const engine::CompiledQuery& cq,
                           const std::vector<int>& order) const;

  /// Cost-optimal left-deep order via dynamic programming.
  std::vector<int> ChooseOrder(const engine::CompiledQuery& cq) const;

  /// Adapter for QueryEngine::set_join_order_provider.
  engine::JoinOrderProvider AsProvider() const;

 private:
  /// Every planning fact one call's estimates read (optimizer.cc).
  struct Table;

  /// The table of the patterns in `mask`, with their scan estimates.
  Table MakeTable(const engine::CompiledQuery& cq, uint32_t mask) const;
  /// EstimatePattern, reading counts from `table`.
  double PatternCard(const engine::CompiledPattern& cp, Table* table) const;
  /// EstimateSubsetCard over a table built for a superset of `mask`.
  double SubsetCard(const engine::CompiledQuery& cq, uint32_t mask,
                    Table* table) const;
  static double JoinSelectivity(const engine::CompiledQuery& cq,
                                const Table& table, uint32_t mask, int next);

  const CharSetCatalog* catalog_;
  const TemporalHistogram* histogram_;
};

}  // namespace rdftx::optimizer

#endif  // RDFTX_OPTIMIZER_OPTIMIZER_H_
