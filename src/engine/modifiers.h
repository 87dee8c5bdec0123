// Row-level implementations of the SPARQLt solution modifiers and the
// EXISTS semi/anti-join (DESIGN.md §14). These run in the row tail of
// QueryEngine::Run, after the scan/join chain, on every store alike.
#ifndef RDFTX_ENGINE_MODIFIERS_H_
#define RDFTX_ENGINE_MODIFIERS_H_

#include <set>
#include <vector>

#include "engine/binding.h"
#include "engine/translate.h"
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

/// Semi-joins (anti-joins when `ex.negated`) `rows` against the
/// evaluated EXISTS group: a row survives iff some (no) group row is
/// compatible — equal terms on every key slot bound on both sides, and
/// non-empty temporal intersection on every time slot bound on both
/// sides. `outer_bound` holds the slots bound by the main block (and
/// OPTIONAL groups); a row-side slot left unbound (via OPTIONAL)
/// constrains nothing. Counts one exists_probe per input row.
void FilterExistsRows(const CompiledExists& ex,
                      const std::set<int>& outer_bound,
                      const std::vector<Row>& group, std::vector<Row>* rows,
                      ExecStats* stats);

/// Grouped aggregation (DESIGN.md §14): deduplicates the solutions on
/// their full binding (set semantics, matching the engine's output
/// duplicate elimination), partitions them by the GROUP BY slots (one
/// global group when none), and evaluates the compiled aggregates.
/// Groups emit in canonical key order. COUNT/SUM/DCOUNT/DSUM of an
/// empty ungrouped input produce one row of zeros (MIN/MAX unbound).
ResultSet AggregateRows(const CompiledQuery& cq, const std::vector<Row>& rows,
                        const Dictionary& dict, Chronon now,
                        ExecStats* stats);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_MODIFIERS_H_
