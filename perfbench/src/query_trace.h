// The traced query path. A query is split into the library's public
// steps — sparqlt::Parse, engine::Compile, QueryOptimizer::ChooseOrder,
// QueryEngine::ExecutePlan — each under its own span, and the chosen
// plan is then replayed with the public vectorized operators
// (VectorizedScan, SortRun, MergeJoinRuns, HashJoinRuns, and the row
// operators of the OPTIONAL tail) to time scans and joins separately.
// The replay must reproduce the engine's ExecStats.join_output_rows;
// a difference means the replay no longer mirrors the executor and the
// traced numbers cannot be trusted.
#ifndef RDFTX_PERFBENCH_QUERY_TRACE_H_
#define RDFTX_PERFBENCH_QUERY_TRACE_H_

#include <string>
#include <vector>

#include "engine/executor.h"
#include "harness.h"
#include "optimizer/optimizer.h"

namespace perfbench {

/// Layer timings and counters of one traced query.
struct QueryTrace {
  double root_s = 0;  // parse + compile + choose_order + execute
  double parse_s = 0;
  double compile_s = 0;
  double choose_s = 0;
  double execute_s = 0;
  double scan_s = 0;  // replayed pattern scans
  double join_s = 0;  // replayed sorts and joins
  uint64_t replay_scan_rows = 0;
  uint64_t replay_join_rows = 0;
  uint64_t join_in_rows = 0;  // left + right rows entering join steps
  uint64_t tail_in_rows = 0;  // rows leaving the scan/join chain
  rdftx::engine::ExecStats stats;  // the engine's own counters
  std::vector<double> qerrors;     // per scanned pattern
  bool replay_matches = true;
};

/// Sums of QueryTrace records; turns them into per-layer metrics.
struct LayerTotals {
  uint64_t queries = 0;
  QueryTrace sum;
  std::vector<double> root_samples;
  std::vector<double> qerrors;
  uint64_t replay_mismatches = 0;

  void Add(const QueryTrace& q);
  /// Sets every read-path per-layer metric; `untraced_median_s` is the
  /// untraced end-to-end median used for trace.overhead_frac.
  void SetMetrics(double untraced_median_s, Metrics* m) const;
  /// One human-readable line of mean layer times.
  void Print(const std::string& label) const;
};

/// Runs `text` through the traced path on `engine` (whose store is
/// `store`). `opt` may be null: the order then comes from GreedyOrder,
/// as it does inside an engine without an optimizer. The query and
/// replay spans hang under `parent` (-1: they are roots).
rdftx::Result<rdftx::engine::ResultSet> TracedQuery(
    const rdftx::engine::QueryEngine& engine,
    const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
    const rdftx::optimizer::QueryOptimizer* opt, const std::string& text,
    uint64_t qid, rdftx::engine::BlockPool* pool, Tracer* tracer,
    QueryTrace* out, int parent = -1);

/// Prints per-span-name counts, total and self time of a trace.
void PrintSpanSummary(const Tracer& tracer);

}  // namespace perfbench

#endif  // RDFTX_PERFBENCH_QUERY_TRACE_H_
