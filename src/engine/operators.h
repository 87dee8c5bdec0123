// Physical operators of the SPARQLt engine (paper §5.2): index-scan to
// binding rows, hash join with temporal-set intersection, and FILTER
// predicate evaluation under the point-based semantics.
#ifndef RDFTX_ENGINE_OPERATORS_H_
#define RDFTX_ENGINE_OPERATORS_H_

#include <string>
#include <string_view>
#include <vector>

#include "engine/binding.h"
#include "engine/translate.h"
#include "rdf/store_interface.h"

namespace rdftx::engine {

/// Evaluation environment for FILTER expressions.
struct EvalContext {
  const std::vector<VarInfo>* vars = nullptr;
  const Dictionary* dict = nullptr;
  /// "now" used when measuring live runs (LENGTH/TOTAL_LENGTH).
  Chronon now = kChrononMax;
};

/// Evaluates a FILTER expression as a predicate over one row.
/// Comparisons involving a temporal element follow the point-based
/// semantics: range conditions (?t <= d, YEAR(?t) = c, ...) hold if some
/// point of the element satisfies them; TSTART/TEND/LENGTH/TOTAL_LENGTH
/// are scalar functions of the whole element.
bool EvalPredicate(const sparqlt::Expr& expr, const Row& row,
                   const EvalContext& ctx);

/// True when `s` parses in full as a number (strtod), which is then
/// stored in `out`; FILTER comparisons, ORDER BY and the numeric
/// aggregates all read term text through it.
bool ParseNumeric(std::string_view s, double* out);

/// True when `t` holds equal terms wherever the pattern repeats a
/// variable ({?x ?p ?x}, ...).
bool RepeatedSlotsAgree(const CompiledPattern& cp, const Triple& t);

/// What both scans read for `cp`: its constants over all of history
/// when its time variable needs the full element (VarInfo::needs_full),
/// else over the FILTER window cp.spec.time. Either scan keeps a triple
/// when one of its runs meets cp.spec.time (MeetsWindow).
PatternSpec ScanSpec(const CompiledPattern& cp,
                     const std::vector<VarInfo>& vars);

/// True when the run [start, end) shares a chronon with cp.spec.time.
bool MeetsWindow(const CompiledPattern& cp, Chronon start, Chronon end);

/// Scans one compiled pattern into binding rows, one per matching
/// triple, its temporal variable (if any) bound to the triple's
/// coalesced runs. A full-validity pattern scans all of history and
/// keeps a triple when one of its runs meets the window (ScanSpec).
/// When `stats` is given, the scan accounts itself there (one
/// patterns_scanned, rows_scanned += rows produced); stats objects are
/// per-query values, never engine state, so concurrent scans with
/// distinct stats never race.
void ScanToRows(const TemporalStore& store, const CompiledPattern& cp,
                size_t num_vars, const std::vector<VarInfo>& vars,
                std::vector<Row>* out, ExecStats* stats = nullptr);

/// Hash join of two row sets on `shared_key_slots` (term equality).
/// Temporal slots bound on both sides intersect (the temporal join);
/// rows with an empty intersection are dropped. With no shared key
/// slots this degenerates to a cross product filtered by the temporal
/// intersections.
std::vector<Row> HashJoinRows(const std::vector<Row>& left,
                              const std::vector<Row>& right,
                              const std::vector<int>& shared_key_slots);

/// Left outer variant for OPTIONAL groups: every left row survives; when
/// no right row matches (key equality + nonempty temporal
/// intersections), the left row passes through with the group's
/// variables unbound.
std::vector<Row> LeftHashJoinRows(const std::vector<Row>& left,
                                  const std::vector<Row>& right,
                                  const std::vector<int>& shared_key_slots);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_OPERATORS_H_
