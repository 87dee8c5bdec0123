// Epoch-based read views for live ingestion (DESIGN.md §11).
//
// The MVBT write path mutates live leaves in place, so readers must
// never traverse the tree the writer is appending to. Instead the live
// store publishes *epochs*: an immutable base TemporalGraph (the last
// checkpoint image) plus an immutable list of committed delta chunks
// (DeltaChunk), each sorted by (triple, LSN). Publishing a commit merges
// the new batch into the newest chunks and allocates one new Epoch;
// existing epochs and chunks are never touched, so a reader keeps a
// consistent view for as long as it holds its shared_ptr. Reclamation
// is the shared_ptr reference count: when the last reader of an old
// epoch drops it, the chunks no newer epoch shares (and, after a
// checkpoint swaps in a new base, the old base graph) are freed.
//
// Correctness of the merge in Epoch::Patch leans on two writer
// invariants (enforced by LiveStore before a delta is logged):
//   1. event times are nondecreasing, and every overlay event is at or
//      after the base graph's clock;
//   2. asserts hit dead triples and retracts hit live ones, so per
//      triple the overlay event list alternates and a leading retract
//      can only close a run that is open ("live") in the base.
#ifndef RDFTX_RDF_EPOCH_H_
#define RDFTX_RDF_EPOCH_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/store_interface.h"
#include "rdf/temporal_graph.h"
#include "rdf/triple.h"
#include "temporal/temporal_set.h"

namespace rdftx {

/// One committed write: assert or retract of a triple at a time point.
struct Delta {
  uint64_t lsn = 0;
  bool is_assert = true;
  Triple triple;
  Chronon time = 0;
};

/// An immutable run of committed deltas sorted by (triple, LSN), plus a
/// link to the next older chunk. Chunks form a persistent list shared
/// structurally between epochs. Push keeps every chunk at least twice
/// as large as its newer neighbour (the logarithmic method of Bentley &
/// Saxe), so a list of n deltas has at most floor(log2 n) + 1 chunks.
class DeltaChunk {
 public:
  /// The list `head` with `batch` published on top: the batch is sorted
  /// and merged with the newest chunks for as long as the next one is
  /// less than twice the merged size. `head` may be null; an empty
  /// batch returns `head`.
  static std::shared_ptr<const DeltaChunk> Push(
      std::shared_ptr<const DeltaChunk> head, std::vector<Delta> batch);

  DeltaChunk(const DeltaChunk&) = delete;
  DeltaChunk& operator=(const DeltaChunk&) = delete;

  /// This chunk's deltas, sorted by (triple, LSN).
  const std::vector<Delta>& deltas() const { return deltas_; }
  const std::shared_ptr<const DeltaChunk>& prev() const { return prev_; }
  /// Number of deltas in this chunk and all chunks before it.
  uint64_t total() const { return total_; }
  /// LSN of the newest delta in this chunk and all chunks before it.
  uint64_t last_lsn() const { return last_lsn_; }

 private:
  DeltaChunk(std::vector<Delta> sorted, std::shared_ptr<const DeltaChunk> prev);

  std::vector<Delta> deltas_;
  std::shared_ptr<const DeltaChunk> prev_;
  uint64_t total_ = 0;
  uint64_t last_lsn_ = 0;
};

/// What the overlay changes in one pattern's scan of the base graph.
struct OverlayPatch {
  /// Triples whose first overlay event is a retract, sorted by triple,
  /// with that retract's time: it closes the triple's run that is live
  /// in the base.
  std::vector<std::pair<Triple, Chronon>> closes;
  /// Runs born in the overlay that overlap the pattern's window.
  std::vector<std::pair<Triple, Interval>> runs;

  /// End of `t`'s base-live run: its close time, or kChrononNow when
  /// the overlay leaves the run open.
  Chronon CloseOf(const Triple& t) const;
};

/// A consistent, immutable read view: base graph + committed overlay.
/// Implements TemporalStore, so the query engine and the conformance
/// harness run against a live store exactly as against a sealed one.
/// Holds no lock: any number of threads may scan one epoch concurrently.
class Epoch : public TemporalStore {
 public:
  /// `base` must no longer be written to; `head` may be null (no
  /// overlay). `last_time` is the store clock at publish.
  Epoch(std::shared_ptr<const TemporalGraph> base,
        std::shared_ptr<const DeltaChunk> head, Chronon last_time);

  // TemporalStore:
  Status Load(const std::vector<TemporalTriple>& triples) override;
  using TemporalStore::ScanPattern;
  void ScanPattern(const PatternSpec& spec, const ScanCallback& visit,
                   ScanStats* stats) const override;
  size_t MemoryUsage() const override;
  std::string name() const override { return "RDF-TX-live"; }
  Chronon last_time() const override { return last_time_; }

  /// The overlay's effect on a scan of `spec` over the base graph. A
  /// scan closes each base-live fragment at OverlayPatch::CloseOf (and
  /// drops it if it then misses the window), and adds the patch's runs.
  /// Binary-searches each chunk when `spec.s` is bound and filters it
  /// otherwise.
  OverlayPatch Patch(const PatternSpec& spec) const;

  /// Full coalesced validity of one triple, base and overlay merged.
  TemporalSet Validity(const Triple& t) const;

  const std::shared_ptr<const TemporalGraph>& base() const { return base_; }
  const std::shared_ptr<const DeltaChunk>& head() const { return head_; }
  /// LSN of the newest committed delta visible in this epoch (0 if the
  /// overlay is empty — then the view is exactly the base graph).
  uint64_t last_lsn() const { return head_ ? head_->last_lsn() : 0; }
  /// Number of overlay deltas in this view.
  uint64_t delta_count() const { return head_ ? head_->total() : 0; }

 private:
  std::shared_ptr<const TemporalGraph> base_;
  std::shared_ptr<const DeltaChunk> head_;
  Chronon last_time_ = 0;
};

}  // namespace rdftx

#endif  // RDFTX_RDF_EPOCH_H_
