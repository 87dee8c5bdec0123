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

/// Estimation/search knobs.
struct OptimizerOptions {
  /// Selectivity charged for each shared temporal variable between two
  /// joined patterns (chance two validity elements intersect).
  double temporal_selectivity = 0.25;
  /// Queries with more patterns than this use the greedy order (the DP
  /// table is 2^n).
  size_t max_dp_patterns = 14;
};

/// Top-k pushdown rule (DESIGN.md §14.2): an ORDER BY + LIMIT query may
/// bypass duplicate elimination and bound its sort to a heap select of
/// offset+limit rows when the scan output provably contains no
/// duplicate projected rows and no later operator can reorder or drop
/// rows. Conditions: a single pattern (no joins, no synchronized-join
/// shape), no FILTER / OPTIONAL / EXISTS / aggregation, a bound time
/// variable (so scan rows are distinct), and a projection covering
/// every variable the pattern binds (so projection cannot collapse
/// rows). The executor consults this and counts topk_pushdowns.
bool TopKPushdownEligible(const sparqlt::Query& query,
                          const engine::CompiledQuery& cq);

/// Cost-based join-order optimizer over a loaded graph's statistics.
class QueryOptimizer {
 public:
  QueryOptimizer(const CharSetCatalog* catalog,
                 const TemporalHistogram* histogram,
                 OptimizerOptions options = {});

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
  /// EstimateSubsetCard given every pattern's EstimatePattern in `scan`
  /// (only the entries in `mask` are read).
  double SubsetCard(const engine::CompiledQuery& cq, uint32_t mask,
                    const std::vector<double>& scan) const;
  double DistinctOfVar(const engine::CompiledPattern& cp, int slot) const;
  double JoinSelectivity(const engine::CompiledQuery& cq, uint32_t mask,
                         int next) const;

  const CharSetCatalog* catalog_;
  const TemporalHistogram* histogram_;
  OptimizerOptions options_;
};

}  // namespace rdftx::optimizer

#endif  // RDFTX_OPTIMIZER_OPTIMIZER_H_
