// Variable bindings and result sets of the SPARQLt execution engine.
// Key variables bind to dictionary term ids; temporal variables bind to
// coalesced sets of time points (the point-based temporal element).
#ifndef RDFTX_ENGINE_BINDING_H_
#define RDFTX_ENGINE_BINDING_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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

/// One projected result cell: a term or a temporal element. A cell
/// copies no text: `term` views the Dictionary's copy of the term, or
/// text its ResultSet keeps (ResultSet::Keep).
struct Cell {
  bool is_time = false;
  std::string_view term;  // decoded term text; empty when unbound
  TemporalSet time;

  bool operator==(const Cell&) const = default;
  std::string ToString() const {
    return is_time ? time.ToString() : std::string(term);
  }

  /// Appends a canonical type-tagged fingerprint (raw term text / raw
  /// run endpoints, never the display rendering) plus a separator to
  /// `out`. All duplicate elimination uses this one encoding, so a term
  /// string that happens to render like a time cell cannot collide with
  /// one.
  void AppendFingerprint(std::string* out) const;
};

/// The concatenated fingerprints of a row's cells: the duplicate
/// elimination and tie-break key for result rows.
std::string RowFingerprint(std::span<const Cell> cells);

/// Result rows: one row-major table of `width` cells per row, so a
/// result of any size is one allocation. Row i is the span
/// `(*this)[i]`; a range-for visits the rows in order. The row count is
/// kept apart from the cells, so a zero-width result (a query with no
/// variable) still counts its rows.
class RowTable {
 public:
  class Iterator {
   public:
    Iterator(const RowTable* table, size_t row) : table_(table), row_(row) {}
    std::span<const Cell> operator*() const { return (*table_)[row_]; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const RowTable* table_;
    size_t row_;
  };

  RowTable() = default;
  explicit RowTable(size_t width) : width_(width) {}

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  std::span<const Cell> operator[](size_t i) const {
    return {cells_.data() + i * width_, width_};
  }
  std::span<Cell> operator[](size_t i) {
    return {cells_.data() + i * width_, width_};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, rows_}; }

  /// Appends a row of unbound cells and returns it for filling.
  std::span<Cell> AppendRow() {
    cells_.resize(cells_.size() + width_);
    return (*this)[rows_++];
  }
  void pop_back() {
    cells_.resize(cells_.size() - width_);
    --rows_;
  }
  void reserve(size_t rows) { cells_.reserve(rows * width_); }

  /// Keeps the rows `rows[0]`, `rows[1]`, ... in that order and drops
  /// the others.
  void Reorder(std::span<const uint32_t> rows);

  bool operator==(const RowTable&) const = default;

 private:
  size_t width_ = 0;
  size_t rows_ = 0;
  std::vector<Cell> cells_;  // row i, column c at i * width_ + c
};

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
/// counters of the query that produced it. Term cells view the
/// Dictionary the query was decoded with, so a ResultSet (and any copy
/// of it) is valid for as long as that Dictionary is, whether or not
/// the QueryEngine still exists.
class ResultSet {
 public:
  std::vector<std::string> columns;
  RowTable rows;
  ExecStats stats;

  /// Keeps `text`, a term the engine computed (an aggregate's value),
  /// and returns a view of it that lives as long as this result or any
  /// copy of it. Only the code that builds a result calls it.
  std::string_view Keep(std::string text);

  std::string ToString() const;

 private:
  // Computed term text, shared by copies of the result: once a result
  // is built nothing is added, so the views stay valid in every copy.
  std::shared_ptr<std::deque<std::string>> kept_;
};

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_BINDING_H_
