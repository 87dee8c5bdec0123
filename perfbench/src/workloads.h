// The benchmark's workloads. Each runs in its own process, fills `m`
// with its end-to-end metrics (untraced run) or per-layer metrics
// (traced run), and counts attempted and failed operations.
#ifndef RDFTX_PERFBENCH_WORKLOADS_H_
#define RDFTX_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// `wiki-mix` and `gov-star`: read-only query streams over a sealed
/// store with the optimizer installed.
void RunReadWorkload(const Options& opt, Metrics* m, Outcome* out);

/// `live-ingest`: durable writes, fresh-epoch queries and checkpoints on
/// one LiveStore.
void RunLiveWorkload(const Options& opt, Metrics* m, Outcome* out);

/// Sets the per-layer metrics only live-ingest produces to 0, for the
/// read workloads' traced runs.
void ZeroLiveLayerMetrics(Metrics* m);

}  // namespace perfbench

#endif  // RDFTX_PERFBENCH_WORKLOADS_H_
