// Deep structural invariant verifier for the MVBT forest and the
// temporal layer (the correctness tooling subsystem; see DESIGN.md
// "Invariant catalog"). Unlike Mvbt::Validate() — the fast structural
// baseline run inside unit tests — these checks walk every node ever
// created, dead or alive, and verify the paper's version conditions,
// the backward-link chain, the delta encoding, and the point-based
// coalescing semantics end to end. Intended for tests, fuzz harnesses,
// and RDFTX_CHECK_INVARIANTS builds; cost is O(total entries).
#ifndef RDFTX_ANALYSIS_INVARIANTS_H_
#define RDFTX_ANALYSIS_INVARIANTS_H_

#include <vector>

#include "mvbt/mvbt.h"
#include "temporal/interval.h"
#include "temporal/temporal_set.h"
#include "util/status.h"

namespace rdftx {
class TemporalGraph;
}  // namespace rdftx

namespace rdftx::analysis {

/// Walks every root in the forest and every arena node, checking:
///  * root directory contiguity and live-root wiring;
///  * per-node capacity, key-range and lifespan containment of entries;
///  * the weak version condition (live non-root nodes keep at least
///    min(d, live-at-creation) live entries, paper §4.1.1);
///  * the strong version condition (restructure outputs carry between d
///    and strong_max live entries unless no merge partner existed);
///  * parent/root references tile each node's lifespan exactly;
///  * backward-link shape (links point to dead temporal predecessors
///    that died exactly when the owner was created) and reachability;
///  * leaf delta-block round-trips;
///  * per-key fragment disjointness and the live-fragment tally.
Status ValidateMvbt(const mvbt::Mvbt& tree);

/// Checks the TemporalSet normal form: runs sorted by start, each
/// nonempty, pairwise disjoint and non-adjacent (fully coalesced).
Status ValidateCoalescedRuns(const std::vector<Interval>& runs);

/// ValidateCoalescedRuns over a TemporalSet's runs.
Status ValidateTemporalSet(const TemporalSet& set);

/// ValidateMvbt on all four indices of a TemporalGraph, plus
/// cross-index consistency (identical live sizes and clocks).
Status ValidateTemporalGraph(const TemporalGraph& graph);

}  // namespace rdftx::analysis

#endif  // RDFTX_ANALYSIS_INVARIANTS_H_
