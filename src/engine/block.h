// The row store of the vectorized execution mode: a BlockRun holds the
// (partial) solutions that operators exchange as one flat, growable
// array of rows. Each cell holds a term id and an interval (start, end),
// and the cell of row i and variable slot v sits at index
// i * num_vars + v, so the operators, which all read whole rows, touch
// one contiguous stretch of memory per row.
//
// Temporal elements are stored inline when they are a single run —
// start/end hold the half-open interval, start == end means empty —
// which covers almost every binding. The rare multi-run element spills
// into a per-run side table, with (index + 1) stashed in the time
// slot's otherwise-unused term cell. All time accessors go through
// SetTime*/TimeAt, which keep the encoding consistent.
#ifndef RDFTX_ENGINE_BLOCK_H_
#define RDFTX_ENGINE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dict/dictionary.h"
#include "temporal/temporal_set.h"
#include "util/date.h"

namespace rdftx::engine {

/// Selection vector: indices of chosen rows of a BlockRun. The tail
/// keeps its selections ascending, so they preserve run order.
using RowSelection = std::vector<uint32_t>;

/// A sequence of rows flowing between vectorized operators. Move-only,
/// so an accidental deep copy fails to compile.
class BlockRun {
 public:
  BlockRun() = default;
  explicit BlockRun(size_t num_vars) : num_vars_(num_vars) {}
  BlockRun(BlockRun&&) = default;
  BlockRun& operator=(BlockRun&&) = default;
  BlockRun(const BlockRun&) = delete;
  BlockRun& operator=(const BlockRun&) = delete;

  /// Key-variable slot whose term column is globally nondecreasing
  /// across the run, or -1 when no ordering is guaranteed. Merge joins
  /// require both inputs sorted by the join slot.
  int sorted_by = -1;

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Makes room for `rows` rows in all, so appends up to there do not
  /// reallocate.
  void Reserve(size_t rows) { cells_.reserve(rows * num_vars_); }

  /// Appends an all-unbound row (terms kInvalidTerm, times empty);
  /// returns its index. Caller fills cells.
  size_t AppendRow() {
    cells_.resize(cells_.size() + num_vars_);
    return rows_++;
  }

  TermId term(size_t i, int v) const { return At(i, v).term; }
  void set_term(size_t i, int v, TermId id) { At(i, v).term = id; }

  // --- temporal element encoding (time-variable slots only) ---

  /// Binds time slot `v` of row `i` to the single run [s, e).
  void SetTimeRun(size_t i, int v, Chronon s, Chronon e) {
    At(i, v) = Cell{0, s, e};
  }

  /// Binds time slot `v` of row `i` to `set` (any number of runs).
  void SetTime(size_t i, int v, const TemporalSet& set) {
    if (set.runs().size() == 1) {
      const Interval& run = set.runs()[0];
      SetTimeRun(i, v, run.start, run.end);
      return;
    }
    if (set.empty()) {
      SetTimeRun(i, v, 0, 0);
      return;
    }
    extra_.push_back(set);
    // Keep the inline interval at the element's hull so cheap overlap
    // prefilters stay sound even for spilled elements.
    At(i, v) = Cell{static_cast<TermId>(extra_.size()), set.Start(),
                    set.End()};
  }

  bool TimeEmpty(size_t i, int v) const {
    const Cell& c = At(i, v);
    return c.term == 0 && c.start == c.end;
  }

  /// True when the element is exactly the inline run (no side table).
  bool TimeIsSingleRun(size_t i, int v) const { return At(i, v).term == 0; }

  /// The inline run's bounds, or a spilled element's hull.
  Chronon TimeStart(size_t i, int v) const { return At(i, v).start; }
  Chronon TimeEnd(size_t i, int v) const { return At(i, v).end; }

  /// Spilled multi-run element; only valid when !TimeIsSingleRun.
  const TemporalSet& TimeExtra(size_t i, int v) const {
    return extra_[At(i, v).term - 1];
  }

  /// The element of time slot `v` at row `i`, read in place: a spilled
  /// element by reference, the inline run rebuilt in `*one` (a one-run
  /// TemporalSet never allocates).
  const TemporalSet& TimeRef(size_t i, int v, TemporalSet* one) const {
    const Cell& c = At(i, v);
    if (c.term != 0) return extra_[c.term - 1];
    *one = InlineTime(c);
    return *one;
  }

  /// Materializes the element of time slot `v` at row `i`.
  TemporalSet TimeAt(size_t i, int v) const {
    const Cell& c = At(i, v);
    if (c.term != 0) return extra_[c.term - 1];
    return InlineTime(c);
  }

 private:
  /// One variable slot of one row. A fresh cell is unbound: term
  /// kInvalidTerm (0) and the empty interval.
  struct Cell {
    TermId term = kInvalidTerm;
    Chronon start = 0;
    Chronon end = 0;
  };

  /// The inline run of a cell that holds no spilled element.
  static TemporalSet InlineTime(const Cell& c) {
    const Chronon s = c.start;
    const Chronon e = c.end;
    // >= (not ==): an inverted pair could only come from a bug in an
    // operator writing the cells, but it must degrade to the empty set
    // rather than construct an inverted Interval — and the widened guard
    // lets rdftx-analyzer prove s < e for the construction below.
    if (s >= e) return TemporalSet();
    return TemporalSet(Interval(s, e));
  }

  Cell& At(size_t i, int v) {
    return cells_[i * num_vars_ + static_cast<size_t>(v)];
  }
  const Cell& At(size_t i, int v) const {
    return cells_[i * num_vars_ + static_cast<size_t>(v)];
  }

  size_t num_vars_ = 0;
  size_t rows_ = 0;
  // Row-major: row i, slot v at i * num_vars_ + v.
  std::vector<Cell> cells_;
  // Multi-run temporal elements (index + 1 lives in the term cell).
  std::vector<TemporalSet> extra_;
};

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_BLOCK_H_
