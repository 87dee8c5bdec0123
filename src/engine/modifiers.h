// The SPARQLt solution modifiers (DESIGN.md §14): grouped aggregation
// over the surviving rows of the final columnar run, and ORDER BY /
// LIMIT / OFFSET over the projected result. They run at the end of
// QueryEngine::Run's tail, on every store alike.
#ifndef RDFTX_ENGINE_MODIFIERS_H_
#define RDFTX_ENGINE_MODIFIERS_H_

#include <vector>

#include "engine/binding.h"
#include "engine/block.h"
#include "engine/translate.h"
#include "engine/vectorized.h"
#include "util/status.h"

namespace rdftx::engine {

/// Total-order comparison of two result cells of the same column:
/// numeric-aware on term cells (both sides parsing fully as numbers
/// compare numerically; numbers sort before other strings; unbound
/// cells sort first), runs-lexicographic on time cells. Returns <0, 0,
/// or >0.
int CompareCells(const Cell& a, const Cell& b);

/// Applies ORDER BY, then OFFSET/LIMIT, to a projected result. Sort
/// keys resolve against `rs->columns` (aggregate aliases included);
/// ties break on the canonical row fingerprint, and a LIMIT/OFFSET
/// without ORDER BY slices the canonical fingerprint order, so the
/// output is deterministic across stores. When a LIMIT
/// bounds the output, the sort runs as a heap select over offset+limit
/// rows instead of a full sort.
Status ApplyOrderAndSlice(const std::vector<sparqlt::OrderKey>& order_by,
                          int64_t limit, int64_t offset, ResultSet* rs);

/// Top-k pushdown rule (DESIGN.md §14.2): an ORDER BY + LIMIT query may
/// bypass duplicate elimination and bound its sort to a heap select of
/// offset+limit rows when the scan output provably contains no
/// duplicate projected rows and no later operator can reorder or drop
/// rows. Conditions: a single pattern (no joins), no FILTER / OPTIONAL
/// / EXISTS / aggregation, a bound time variable (so scan rows are
/// distinct), and a projection covering every variable the pattern
/// binds (so projection cannot collapse rows). The executor consults
/// this and counts topk_pushdowns.
bool TopKPushdownEligible(const sparqlt::Query& query,
                          const CompiledQuery& cq);

/// Grouped aggregation (DESIGN.md §14) over the rows `rows` of `run`:
/// deduplicates the solutions on their full binding (set semantics,
/// matching the engine's output duplicate elimination), partitions them
/// by the GROUP BY slots (one global group when none), and evaluates
/// the compiled aggregates. Groups emit in canonical key order.
/// COUNT/SUM/DCOUNT/DSUM of an empty ungrouped input produce one row of
/// zeros (MIN/MAX unbound).
ResultSet AggregateRows(const CompiledQuery& cq, const BlockRun& run,
                        RowSelection rows, const Dictionary& dict,
                        Chronon now, ExecStats* stats);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_MODIFIERS_H_
