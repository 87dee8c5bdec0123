// Variable bindings and result sets of the SPARQLt execution engine.
// Key variables bind to dictionary term ids; temporal variables bind to
// coalesced sets of time points (the point-based temporal element).
#ifndef RDFTX_ENGINE_BINDING_H_
#define RDFTX_ENGINE_BINDING_H_

#include <string>
#include <vector>

#include "dict/dictionary.h"
#include "temporal/temporal_set.h"
#include "util/scan_stats.h"

namespace rdftx::engine {

/// Compile-time information about one query variable.
struct VarInfo {
  std::string name;
  bool is_time = false;
  /// Time variables only: the full temporal element is required, so a
  /// scan of the variable's patterns reads all of history and keeps a
  /// triple when one of its runs meets the window (ScanSpec).
  bool needs_full = false;
  /// The variable is scoped to a FILTER [NOT] EXISTS group: it shares
  /// the query's slot space (so shared names join against the outer
  /// block) but is invisible to SELECT * and cannot be projected.
  bool local = false;
};

/// One (partial) solution mapping. Both vectors are indexed by variable
/// slot; a term of kInvalidTerm / an empty TemporalSet means unbound.
struct Row {
  std::vector<TermId> terms;
  std::vector<TemporalSet> times;

  explicit Row(size_t num_vars) : terms(num_vars, kInvalidTerm),
                                  times(num_vars) {}
  Row() = default;

  bool operator==(const Row&) const = default;
};

/// One projected result cell: a term or a temporal element.
struct Cell {
  bool is_time = false;
  std::string term;   // decoded term text
  TemporalSet time;

  bool operator==(const Cell&) const = default;
  std::string ToString() const { return is_time ? time.ToString() : term; }

  /// Appends a canonical type-tagged fingerprint (raw term text / raw
  /// run endpoints, never the display rendering) plus a separator to
  /// `out`. All duplicate elimination uses this one encoding, so a term
  /// string that happens to render like a time cell cannot collide with
  /// one.
  void AppendFingerprint(std::string* out) const;
};

/// The concatenated fingerprints of a row's cells: the duplicate
/// elimination and tie-break key for result rows.
std::string RowFingerprint(const std::vector<Cell>& cells);

/// Per-query execution counters, owned by the query that produced them
/// (the engine itself holds no cross-query mutable state).
struct ExecStats {
  uint64_t patterns_scanned = 0;
  /// Rows the pattern scans emitted. On MVBT stores a scan under a
  /// sideways key filter emits only rows whose key may join, so this is
  /// lower there than on the NaiveStore oracle, which ignores filters.
  uint64_t rows_scanned = 0;
  /// Matching fragments that MVBT scans dropped before gathering them
  /// because the sideways key filter showed their key joins nothing.
  uint64_t key_filtered_fragments = 0;
  /// Rows out of the main chain's joins plus the OPTIONAL left joins;
  /// joins inside OPTIONAL / EXISTS groups are not counted.
  uint64_t join_output_rows = 0;
  uint64_t result_rows = 0;
  /// Physical join/sort choices the main chain actually took: joins
  /// executed as sort-merge over index-sorted runs, joins that fell back
  /// to the hash join, and explicit run sorts performed to
  /// establish a merge order.
  uint64_t merge_join_steps = 0;
  uint64_t hash_join_steps = 0;
  uint64_t sort_steps = 0;
  /// Solution-modifier / EXISTS operator counters: GROUP BY groups
  /// emitted (including the single implicit group of an ungrouped
  /// aggregate query), ORDER BY+LIMIT queries that took the top-k
  /// pushdown (bypassing duplicate elimination and bounding the sort),
  /// and outer rows probed against an EXISTS / NOT EXISTS group.
  uint64_t agg_groups = 0;
  uint64_t topk_pushdowns = 0;
  uint64_t exists_probes = 0;
  /// Store read-path counters (leaves visited/pruned, entries decoded,
  /// decoded-leaf cache hits/misses/evictions), accumulated over every
  /// pattern scan of the query. Race-free like the rest of ExecStats:
  /// each query owns its own instance.
  ScanStats scan;
};

/// Query result: named columns over rows of cells, plus the execution
/// counters of the query that produced it.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
  ExecStats stats;

  std::string ToString() const;
};

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_BINDING_H_
