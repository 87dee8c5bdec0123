// Query compilation (paper §5.1): translate point-based SPARQLt graph
// patterns into interval-based query regions — a key range on one of the
// four indices plus a time range derived from the FILTER constraints —
// and classify variables.
#ifndef RDFTX_ENGINE_TRANSLATE_H_
#define RDFTX_ENGINE_TRANSLATE_H_

#include <vector>

#include "engine/binding.h"
#include "rdf/triple.h"
#include "sparqlt/ast.h"
#include "util/status.h"

namespace rdftx::engine {

/// A pattern translated to the id level: constants resolved against the
/// dictionary, variable slots assigned, scan window inferred.
struct CompiledPattern {
  PatternSpec spec;        // constants; spec.time is the scan window
  int var_s = -1;          // variable slot per position, -1 if constant
  int var_p = -1;
  int var_o = -1;
  int var_t = -1;
  /// True when a constant did not resolve in the dictionary: the pattern
  /// (and hence the query) has no matches.
  bool never_matches = false;

  /// Variable slots bound in key (subject/predicate/object) positions,
  /// in s, p, o order.
  std::vector<int> KeySlots() const;
  /// True when this pattern and `other` share any variable, key or
  /// temporal.
  bool SharesVariable(const CompiledPattern& other) const;
};

/// A compiled OPTIONAL group: its patterns left-join onto the main
/// block's solutions.
struct CompiledOptional {
  std::vector<CompiledPattern> patterns;
  std::vector<const sparqlt::Expr*> filters;  // evaluated on the group
};

/// A compiled FILTER [NOT] EXISTS group: the group evaluates like an
/// OPTIONAL block (scans + inner joins + group-local filters) and then
/// semi-joins (anti-joins when negated) the main block's solutions.
struct CompiledExists {
  bool negated = false;
  CompiledOptional group;
};

/// One aggregate projection item with its argument slots resolved.
struct CompiledAggregate {
  sparqlt::AggregateFn fn = sparqlt::AggregateFn::kCount;
  bool star = false;   // COUNT(*)
  int var = -1;        // argument slot (-1 for COUNT(*))
  int time_var = -1;   // DSUM's time slot
  std::string alias;   // output column name
};

/// A compiled query. Holds non-owning pointers into the parsed Query's
/// filter expressions; the Query must outlive it.
struct CompiledQuery {
  std::vector<VarInfo> vars;
  std::vector<CompiledPattern> patterns;
  std::vector<const sparqlt::Expr*> filters;
  std::vector<CompiledOptional> optionals;
  std::vector<CompiledExists> exists;
  std::vector<int> projection;  // variable slots to output
  /// Aggregation (empty when the query has no aggregates): grouping
  /// slots and the aggregate items. When aggregates are present,
  /// `projection` holds the projected grouping slots instead of the
  /// full SELECT output.
  std::vector<int> group_by;
  std::vector<CompiledAggregate> aggregates;
};

/// Compiles `query` against `dict` (lookup only; constants absent from
/// the dictionary make their pattern unsatisfiable rather than failing).
Result<CompiledQuery> Compile(const sparqlt::Query& query,
                              const Dictionary& dict);

/// Derives from one FILTER expression a conservative window for the
/// points of time variable `time_var`: every point that can satisfy the
/// expression lies inside the returned interval. Conjunctions intersect,
/// disjunctions take the hull, unanalyzable conditions widen to all of
/// time. Used by Compile to build scan regions; exposed for tests.
Interval FilterWindow(const sparqlt::Expr& expr,
                      const std::string& time_var);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_TRANSLATE_H_
