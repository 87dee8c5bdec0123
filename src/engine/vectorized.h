// Vectorized (batch-at-a-time) physical operators: index scans that
// filter whole leaf columns with util/simd.h masks and emit sorted
// BlockRuns, a sort-merge join over index-sorted runs, and a columnar
// hash join for the shapes merge cannot serve. QueryEngine::RunChain
// composes them into the engine's one scan/join pipeline.
#ifndef RDFTX_ENGINE_VECTORIZED_H_
#define RDFTX_ENGINE_VECTORIZED_H_

#include <vector>

#include "engine/binding.h"
#include "engine/block.h"
#include "engine/translate.h"
#include "rdf/store_interface.h"

namespace rdftx::engine {

/// Vectorized counterpart of ScanToRows. Collects the MVBT leaves of the
/// pattern's query region, filters each leaf's columnar image with SIMD
/// masks (interval overlap, per-component key equality, repeated-var
/// equality), gathers the survivors through a selection vector, groups
/// fragments per triple, and appends one row per matching triple to
/// `out`.
///
/// `sort_slot` requests an output ordering: when >= 0 and this pattern
/// binds that key variable, rows are emitted sorted by its term (the
/// fragment grouping sorts anyway, so the requested order is free) and
/// `out->sorted_by` records it. Counters accumulate into `stats` with
/// the same semantics as ScanToRows. Stores without MVBT indices (the
/// conformance oracle) fall back to ScanToRows plus a sort, so results
/// never depend on the store type.
void VectorizedScan(const TemporalStore& store, const CompiledPattern& cp,
                    size_t num_vars, const std::vector<VarInfo>& vars,
                    int sort_slot, BlockPool* pool, BlockRun* out,
                    ExecStats* stats);

/// Stable-sorts a run by the term column of key slot `slot`.
BlockRun SortRun(const BlockRun& in, int slot,
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

/// Boundary converters between the columnar and row representations
/// (the OPTIONAL / FILTER / projection tail stays row-at-a-time).
std::vector<Row> RunToRows(const BlockRun& run,
                           const std::vector<VarInfo>& vars);
void AppendRowsToRun(const std::vector<Row>& rows,
                     const std::vector<VarInfo>& vars, BlockPool* pool,
                     BlockRun* out);

}  // namespace rdftx::engine

#endif  // RDFTX_ENGINE_VECTORIZED_H_
