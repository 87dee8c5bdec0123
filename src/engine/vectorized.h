// Vectorized (batch-at-a-time) physical operators: index scans that
// filter whole leaf columns with util/simd.h masks and emit sorted
// BlockRuns, a sort-merge join over index-sorted runs, a columnar hash
// join for the shapes merge cannot serve, and the run operators of the
// query tail (left join, semi/anti-join, selection, duplicate
// elimination). QueryEngine composes them into the engine's one
// pipeline.
#ifndef RDFTX_ENGINE_VECTORIZED_H_
#define RDFTX_ENGINE_VECTORIZED_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/binding.h"
#include "engine/block.h"
#include "engine/translate.h"
#include "rdf/store_interface.h"

namespace rdftx::engine {

/// Selection vector: indices of chosen rows of a BlockRun. The tail
/// keeps its selections ascending, so they preserve run order.
using RowSelection = std::vector<uint32_t>;

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

/// Vectorized counterpart of ScanToRows. Collects the MVBT leaves of the
/// pattern's query region, filters each leaf's columnar image with SIMD
/// masks (interval overlap, per-component key equality, repeated-var
/// equality) and, when given and the pattern binds its slot, the key
/// filter; gathers the survivors' variable components and runs through a
/// selection vector, groups fragments per triple with one RadixOrder over
/// the variable components, and appends one row per matching triple to
/// `out`, its runs clipped to the scan window and coalesced (one inline
/// run, or a multi-run element only where the runs have gaps); a
/// full-validity pattern scans all of history and keeps a triple when
/// one of its runs meets the window (ScanSpec).
///
/// Rows come out in key order: the term of `sort_slot` leads when this
/// pattern binds it, otherwise the first variable component (s, p, o
/// order) leads, and the remaining variable components break ties.
/// `out->sorted_by` records the leading slot (-1 when the pattern binds
/// no key variable), so a requested merge order is free. Counters
/// accumulate into `stats` with the same semantics as ScanToRows;
/// fragments the key filter drops count in `key_filtered_fragments`,
/// fragments gathered in `scan.fragments_gathered`. A live Epoch scans
/// its base graph and patches the gathered fragments with Epoch::Patch.
/// Stores without MVBT indices (the oracle and the paper's baselines)
/// fall back to ScanToRows plus a sort on a requested bound `sort_slot`
/// and ignore the key filter, so results never depend on the store type
/// and the oracle always checks the filtered path.
void VectorizedScan(const TemporalStore& store, const CompiledPattern& cp,
                    size_t num_vars, const std::vector<VarInfo>& vars,
                    int sort_slot, BlockPool* pool, BlockRun* out,
                    ExecStats* stats, const KeyFilter* key_filter = nullptr);

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
                 const std::vector<VarInfo>& vars, BlockPool* pool);

/// Copies rows `rows` of `in`, in that order, into a new run.
BlockRun GatherRun(const BlockRun& in, const RowSelection& rows,
                   const std::vector<VarInfo>& vars, BlockPool* pool);

/// Sort-merge join over two runs sorted by key slot `slot`
/// (sorted_by == slot on both). Within each equal-key group the cross
/// product is emitted with the usual merge semantics: terms come from
/// whichever side binds, temporal slots bound on both sides intersect
/// and an empty intersection drops the row. Output stays sorted by
/// `slot`.
BlockRun MergeJoinRuns(const BlockRun& left, const BlockRun& right, int slot,
                       const std::vector<VarInfo>& vars, BlockPool* pool);

/// Hash join over runs on `shared_key_slots` (term equality; cross
/// product when empty), with the same merge semantics as HashJoinRows.
BlockRun HashJoinRuns(const BlockRun& left, const BlockRun& right,
                      const std::vector<int>& shared_key_slots,
                      const std::vector<VarInfo>& vars, BlockPool* pool);

/// Left outer hash join for OPTIONAL groups, with the semantics of
/// LeftHashJoinRows: a left row joins every right row with equal terms
/// on `shared_key_slots` and non-empty temporal intersections (an
/// unbound left key matches nothing), and a left row without any match
/// is kept once with the right side's variables unbound.
BlockRun LeftHashJoinRuns(const BlockRun& left, const BlockRun& right,
                          const std::vector<int>& shared_key_slots,
                          const std::vector<VarInfo>& vars, BlockPool* pool);

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

/// Keeps the first of the rows `sel` of `run` that agree on every one of
/// `slots` (terms by id, temporal elements by runs, unbound equal to
/// unbound), preserving order.
void DistinctRows(const BlockRun& run, const std::vector<int>& slots,
                  const std::vector<VarInfo>& vars, RowSelection* sel);

/// Copies row `i` of `run` into `row`, which must have one cell per
/// variable; its vectors are reused, so a scratch row serves a whole
/// run.
void LoadRow(const BlockRun& run, size_t i, const std::vector<VarInfo>& vars,
             Row* row);

/// Boundary converters between the columnar and row representations,
/// for callers of the row operators (the engine itself stays columnar).
std::vector<Row> RunToRows(const BlockRun& run,
                           const std::vector<VarInfo>& vars);
void AppendRowsToRun(const std::vector<Row>& rows,
                     const std::vector<VarInfo>& vars, BlockPool* pool,
                     BlockRun* out);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_VECTORIZED_H_
