// Vectorized (batch-at-a-time) physical operators: index scans that
// filter whole leaf columns with util/simd.h masks and emit sorted
// BlockRuns, a sort-merge join over index-sorted runs, a hash join for
// the shapes merge cannot serve, and the run operators of the query tail
// (left join, semi/anti-join, selection, duplicate elimination).
// QueryEngine composes them into the engine's one pipeline. Every
// operator builds its output run itself, so none of them shares state
// with another query.
#ifndef RDFTX_ENGINE_VECTORIZED_H_
#define RDFTX_ENGINE_VECTORIZED_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/binding.h"
#include "engine/block.h"
#include "engine/operators.h"
#include "engine/translate.h"
#include "rdf/store_interface.h"

namespace rdftx::engine {

/// Sideways key filter: a fixed-size bitmap over the term ids that the
/// already bound solutions hold in one key slot. A scan given the filter
/// drops every fragment whose term for that slot hashes to a clear bit.
/// A set bit may be a hash collision, so the filter only ever passes
/// extra fragments to a join that checks key equality anyway: answers
/// never depend on the hash.
class KeyFilter {
 public:
  /// Filter over the `slot` terms of `run`'s rows `rows` (every row when
  /// null). nullopt when some of those rows leave the slot unbound: an
  /// unbound key constrains nothing, so no filter is sound.
  static std::optional<KeyFilter> FromRun(const BlockRun& run, int slot,
                                          const RowSelection* rows);

  explicit KeyFilter(int slot);

  void Add(TermId id);
  /// False only for ids that were never added.
  bool MayContain(TermId id) const;
  /// The variable slot whose terms the filter holds.
  int slot() const { return slot_; }

 private:
  int slot_;
  std::vector<uint64_t> bits_;
};

/// The engine's pattern scan. Collects the MVBT leaves of the pattern's
/// query region, filters each leaf's columnar image with SIMD
/// masks (interval overlap, per-component key equality, repeated-var
/// equality) and, when given and the pattern binds its slot, the key
/// filter; gathers the survivors' variable components and runs through a
/// selection vector, groups fragments per triple with one RadixOrder over
/// the variable components, and fills `out` (replacing what it held) with
/// one row per matching triple, its runs clipped to the scan window and
/// coalesced (one inline run, or a multi-run element only where the runs
/// have gaps); a full-validity pattern scans all of history and keeps a
/// triple when one of its runs meets the window (ScanSpec).
///
/// Rows come out in key order: the term of `sort_slot` leads when this
/// pattern binds it, otherwise the first variable component (s, p, o
/// order) leads, and the remaining variable components break ties.
/// `out->sorted_by` records the leading slot (-1 when the pattern binds
/// no key variable), so a requested merge order is free. Counters
/// accumulate into `stats` with the same semantics as ScanToRun;
/// fragments the key filter drops count in `key_filtered_fragments`,
/// fragments gathered in `scan.fragments_gathered`. A live Epoch scans
/// its base graph and patches the gathered fragments with Epoch::Patch.
/// Stores without MVBT indices (the oracle and the paper's baselines)
/// are scanned by ScanToRun, which orders a requested bound `sort_slot`
/// and ignores the key filter, so results never depend on the store
/// type and the oracle always checks the filtered path.
void VectorizedScan(const TemporalStore& store, const CompiledPattern& cp,
                    size_t num_vars, const std::vector<VarInfo>& vars,
                    int sort_slot, BlockRun* out, ExecStats* stats,
                    const KeyFilter* key_filter = nullptr);

/// Stable LSD radix order over key columns: fills `pos` with 0..n-1
/// arranged so that the tuples (cols[0][i], cols[1][i], ...) ascend, the
/// first column most significant, and equal tuples keep ascending
/// position order. Each column takes one counting pass per 8-bit digit
/// up to the bit width of the OR of its values; a column of zeros, or a
/// digit that every key shares, costs no pass.
void RadixOrder(const std::vector<const uint64_t*>& cols, size_t n,
                std::vector<uint32_t>* pos);

/// Stable-sorts a run by the term column of key slot `slot` (RadixOrder
/// over that column).
BlockRun SortRun(const BlockRun& in, int slot,
                 const std::vector<VarInfo>& vars);

/// Copies rows `rows` of `in`, in that order, into a new run.
BlockRun GatherRun(const BlockRun& in, const RowSelection& rows,
                   const std::vector<VarInfo>& vars);

/// Sort-merge join over two runs sorted by key slot `slot`
/// (sorted_by == slot on both). Within each equal-key group the cross
/// product is emitted with the usual merge semantics: terms come from
/// whichever side binds, temporal slots bound on both sides intersect
/// and an empty intersection drops the row. Output stays sorted by
/// `slot`.
BlockRun MergeJoinRuns(const BlockRun& left, const BlockRun& right, int slot,
                       const std::vector<VarInfo>& vars);

/// Hash join over runs on `shared_key_slots` (term equality; cross
/// product when empty), with the same merge semantics as HashJoinRows.
BlockRun HashJoinRuns(const BlockRun& left, const BlockRun& right,
                      const std::vector<int>& shared_key_slots,
                      const std::vector<VarInfo>& vars);

/// Left outer hash join for OPTIONAL groups, with the semantics of
/// LeftHashJoinRows: a left row joins every right row with equal terms
/// on `shared_key_slots` and non-empty temporal intersections (an
/// unbound left key matches nothing), and a left row without any match
/// is kept once with the right side's variables unbound.
BlockRun LeftHashJoinRuns(const BlockRun& left, const BlockRun& right,
                          const std::vector<int>& shared_key_slots,
                          const std::vector<VarInfo>& vars);

/// Semi-join (anti-join when `negated`) for FILTER [NOT] EXISTS: keeps
/// the rows `sel` of `left` that have (lack) a compatible row in
/// `right` — equal terms on each of `shared_key_slots` bound on both
/// sides and a non-empty intersection on each of `shared_time_slots`
/// bound on both sides. A left slot left unbound (by OPTIONAL) is a
/// wildcard.
void SemiJoinRuns(const BlockRun& left, const BlockRun& right,
                  const std::vector<int>& shared_key_slots,
                  const std::vector<int>& shared_time_slots, bool negated,
                  RowSelection* sel);

/// Writes slot `v` of row `i` into `cell`, which must be unbound: a time
/// cell holds the element, a term cell views `dict`'s text (and stays
/// empty when the slot is unbound).
inline void LoadCell(const BlockRun& run, size_t i, int v,
                     const std::vector<VarInfo>& vars, const Dictionary& dict,
                     Cell* cell) {
  if (vars[static_cast<size_t>(v)].is_time) {
    cell->is_time = true;
    cell->time = run.TimeAt(i, v);
  } else if (const TermId id = run.term(i, v); id != kInvalidTerm) {
    cell->term = dict.Decode(id);
  }
}

/// Keeps the first of the rows `sel` of `run` that agree on every one of
/// `slots` (terms by id, temporal elements by runs, unbound equal to
/// unbound), preserving order.
void DistinctRows(const BlockRun& run, const std::vector<int>& slots,
                  const std::vector<VarInfo>& vars, RowSelection* sel);

// --- Kept only for the frozen end-to-end benchmark (perfbench/) ---
// perfbench still scans, filters and joins Rows, and passes an empty
// block pool to four run operators; tests use the Row code as a
// reference. The engine calls none of it. It goes at the next change to
// the benchmark.

/// Boundary converters between runs and Rows.
std::vector<Row> RunToRows(const BlockRun& run,
                           const std::vector<VarInfo>& vars);
BlockRun RowsToRun(std::span<const Row> rows,
                   const std::vector<VarInfo>& vars);

/// ScanToRun in no particular order, appended to `out` as Rows.
inline void ScanToRows(const TemporalStore& store, const CompiledPattern& cp,
                       size_t num_vars, const std::vector<VarInfo>& vars,
                       std::vector<Row>* out, ExecStats* stats = nullptr) {
  BlockRun run;
  ScanToRun(store, cp, num_vars, vars, /*sort_slot=*/-1, &run, stats);
  for (Row& row : RunToRows(run, vars)) out->push_back(std::move(row));
}

/// FilterRows over one Row.
inline bool EvalPredicate(const sparqlt::Expr& expr, const Row& row,
                          const EvalContext& ctx) {
  RowSelection sel = {0};
  FilterRows({&expr}, RowsToRun({&row, 1}, *ctx.vars), ctx, &sel);
  return !sel.empty();
}

struct BlockPool {};

inline void VectorizedScan(const TemporalStore& store,
                           const CompiledPattern& cp, size_t num_vars,
                           const std::vector<VarInfo>& vars, int sort_slot,
                           BlockPool* /*pool*/, BlockRun* out,
                           ExecStats* stats) {
  VectorizedScan(store, cp, num_vars, vars, sort_slot, out, stats);
}
inline BlockRun SortRun(const BlockRun& in, int slot,
                        const std::vector<VarInfo>& vars,
                        BlockPool* /*pool*/) {
  return SortRun(in, slot, vars);
}
inline BlockRun MergeJoinRuns(const BlockRun& left, const BlockRun& right,
                              int slot, const std::vector<VarInfo>& vars,
                              BlockPool* /*pool*/) {
  return MergeJoinRuns(left, right, slot, vars);
}
inline BlockRun HashJoinRuns(const BlockRun& left, const BlockRun& right,
                             const std::vector<int>& shared_key_slots,
                             const std::vector<VarInfo>& vars,
                             BlockPool* /*pool*/) {
  return HashJoinRuns(left, right, shared_key_slots, vars);
}

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_VECTORIZED_H_
