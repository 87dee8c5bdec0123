// The SPARQLt query engine: parse -> compile -> plan -> execute against
// any TemporalStore (paper §5). Join order comes from the optimizer hook
// when installed (§6), else from a greedy connected order.
#ifndef RDFTX_ENGINE_EXECUTOR_H_
#define RDFTX_ENGINE_EXECUTOR_H_

#include <functional>
#include <string_view>
#include <vector>

#include "engine/binding.h"
#include "engine/block.h"
#include "engine/operators.h"
#include "engine/translate.h"
#include "engine/vectorized.h"
#include "rdf/store_interface.h"
#include "sparqlt/parser.h"

namespace rdftx::engine {

/// Engine configuration.
struct EngineOptions {
  /// "now" for measuring live runs; 0 means "use store->last_time()".
  Chronon now = 0;
};

/// Chooses a join order (a permutation of pattern indices) for a
/// compiled query. Installed by the query optimizer.
using JoinOrderProvider =
    std::function<std::vector<int>(const CompiledQuery&)>;

/// A query engine over an immutable-after-load store. A query runs
/// entirely on the thread that calls Execute(). Execute() is safe to
/// call concurrently from any number of threads: every query carries its
/// own ExecStats (returned in ResultSet::stats) and the engine mutates no
/// shared state on the read path.
class QueryEngine {
 public:
  QueryEngine(const TemporalStore* store, const Dictionary* dict,
              EngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Parses and runs a SPARQLt query.
  Result<ResultSet> Execute(std::string_view text) const;

  /// Runs a parsed query with the configured join-order policy.
  Result<ResultSet> Execute(const sparqlt::Query& query) const;

  /// Runs a parsed query with an explicit join order (used by the
  /// optimizer-effectiveness experiment, Fig 10(a)).
  Result<ResultSet> ExecutePlan(const sparqlt::Query& query,
                                const std::vector<int>& order) const;

  /// Installs the optimizer's join-order callback. Not thread-safe;
  /// call during setup, before the engine serves queries.
  void set_join_order_provider(JoinOrderProvider provider) {
    join_order_provider_ = std::move(provider);
  }

  /// Fallback order: starts from the most selective-looking pattern
  /// (most constants) and greedily appends connected patterns.
  static std::vector<int> GreedyOrder(const CompiledQuery& cq);

 private:
  Result<ResultSet> Run(const sparqlt::Query& query,
                        const CompiledQuery& cq,
                        const std::vector<int>& order) const;

  /// The scan/join chain: scans `patterns` in `order` into columnar
  /// BlockRuns and joins them left-deep — sort-merge when a step shares
  /// exactly one key variable with the bound ones, columnar hash join
  /// otherwise. This is the only place merge vs hash is chosen. Each
  /// step after the first scans under a key filter built from the
  /// accumulated run; `first_filter`, when given, filters the first
  /// scan.
  BlockRun RunChain(const std::vector<CompiledPattern>& patterns,
                    const std::vector<int>& order,
                    const std::vector<VarInfo>& vars,
                    const KeyFilter* first_filter, ExecStats* stats) const;

  /// Evaluates one OPTIONAL (or EXISTS) group for the outer solutions:
  /// its patterns through RunChain in declaration order, then the
  /// group-local filters. The first scan keeps only the keys that the
  /// outer rows `outer_rows` of `outer` (all rows when null) hold in the
  /// first of `shared_key_slots` that the group's first pattern binds —
  /// unless some outer row leaves that slot unbound. Only the group's
  /// scan counters reach `stats`; its internal joins are not plan steps.
  BlockRun EvalGroup(const CompiledOptional& group, const CompiledQuery& cq,
                     const EvalContext& ctx, const BlockRun& outer,
                     const RowSelection* outer_rows,
                     const std::vector<int>& shared_key_slots,
                     ExecStats* stats) const;

  const TemporalStore* store_;
  const Dictionary* dict_;
  EngineOptions options_;
  JoinOrderProvider join_order_provider_;
  /// Recycles binding blocks across queries (internally synchronized,
  /// so concurrent Execute calls share it safely). It is shared rather
  /// than made per query because warm blocks are what make it pay: a
  /// pool per Run was slower on wiki-mix (DESIGN.md §13, "Pooling
  /// discipline").
  mutable BlockPool block_pool_;
};

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_EXECUTOR_H_
