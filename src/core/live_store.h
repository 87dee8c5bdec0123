// LiveStore: a durable, concurrently-readable temporal RDF store —
// write-ahead logging, group commit, crash recovery, and incremental
// checkpoints over the TemporalGraph/Epoch machinery (DESIGN.md §11).
//
// Guarantee: when Assert/Retract/InternTerm returns OK with
// sync_writes on, the write is on stable storage — reopening the
// directory after a crash (OpenOrRecover) reproduces it. Readers obtain
// immutable Epoch views (Snapshot()) and are never blocked by, and
// never observe a partial effect of, the writer.
//
// Directory layout:
//   <dir>/snapshot.rtxsnap   last checkpoint (RTXSNAP1 + wal-state)
//   <dir>/wal-%08d.log       WAL segments; rotated at each checkpoint
//
// Recovery = read the snapshot (if any), replay every segment in
// sequence order skipping records the snapshot already covers, truncate
// the torn tail of the newest segment (the residue of a mid-write
// crash), and resume appending to it.
#ifndef RDFTX_CORE_LIVE_STORE_H_
#define RDFTX_CORE_LIVE_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dict/dictionary.h"
#include "rdf/epoch.h"
#include "rdf/temporal_graph.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rdftx {

struct LiveStoreOptions {
  TemporalGraphOptions graph;
  /// fsync the log before acknowledging a write. Off trades the
  /// durability guarantee for throughput (data since the last explicit
  /// sync can be lost; recovery still converges to a consistent prefix).
  bool sync_writes = true;
  /// Batch concurrent commits into one fsync (leader/follower): while
  /// the leader's fsync is in flight, other writers append and wait,
  /// and the next fsync covers them all. Off = every commit holds the
  /// writer lock across its own fsync (the classic non-grouped
  /// discipline, the bench baseline).
  bool group_commit = true;
  /// Fold the log into a new checkpoint snapshot, on a background
  /// thread, once this many deltas accumulated since the last one. 0
  /// disables automatic checkpoints (Checkpoint() is always available).
  uint64_t checkpoint_after_deltas = 0;
};

/// Points during Checkpoint() where the test fault hook fires, in
/// execution order. Aborting at any of them must leave a directory that
/// OpenOrRecover brings back to a consistent state.
enum class CheckpointPhase {
  /// New WAL segment created and swapped in; snapshot not yet written.
  kAfterRotate,
  /// New snapshot durable on disk; old segments not yet deleted.
  kAfterSnapshotWrite,
  /// New epoch installed in memory; old segments not yet deleted.
  kBeforeSegmentDelete,
};

class LiveStore {
 public:
  /// Opens the store in `dir` (created if missing), recovering from the
  /// snapshot + WAL found there. An empty directory yields an empty
  /// store with a fresh log.
  static Result<std::unique_ptr<LiveStore>> OpenOrRecover(
      const std::string& dir, const LiveStoreOptions& options = {});

  ~LiveStore();
  LiveStore(const LiveStore&) = delete;
  LiveStore& operator=(const LiveStore&) = delete;

  /// Durable writes, string level: terms are interned (and logged)
  /// as needed, then the delta is logged and — with sync_writes —
  /// fsynced before the call returns OK. Times must be nondecreasing
  /// across all writes; an Assert requires the triple to be currently
  /// dead, a Retract requires it live.
  Status Assert(std::string_view s, std::string_view p, std::string_view o,
                Chronon at);
  Status Retract(std::string_view s, std::string_view p, std::string_view o,
                 Chronon at);

  /// Durable writes, id level. Ids must come from this store's
  /// dictionary (InternTerm / LookupTerm).
  Status AssertId(const Triple& t, Chronon at);
  Status RetractId(const Triple& t, Chronon at);

  /// Interns a term durably: a new term is logged (and synced under the
  /// same policy as deltas) before its id is returned.
  Result<TermId> InternTerm(std::string_view term);
  /// Id of `term`, or kInvalidTerm when absent.
  TermId LookupTerm(std::string_view term) const;
  Result<std::string> DecodeTerm(TermId id) const;

  /// The current committed view: an immutable TemporalStore snapshot.
  /// With sync_writes, contains exactly the durable (acked) prefix;
  /// readers keep their view consistent for as long as they hold it.
  std::shared_ptr<const Epoch> Snapshot() const;

  /// Folds the committed log into a new snapshot.rtxsnap, swaps the
  /// folded graph in as the new epoch base, and deletes the WAL
  /// segments the snapshot covers. Serialized against itself; writers
  /// and readers proceed concurrently except for two brief exclusive
  /// windows (log sync + capture, epoch install).
  Status Checkpoint();

  /// Highest LSN known durable (acked). Writes beyond it are in flight.
  uint64_t last_durable_lsn() const;
  /// Committed deltas not yet folded into the checkpoint base.
  uint64_t delta_backlog() const;
  const std::string& dir() const { return dir_; }

  using CheckpointFaultHook = std::function<Status(CheckpointPhase)>;
  /// Test-only: called between checkpoint phases; returning an error
  /// aborts the checkpoint at that point, simulating a crash (the
  /// in-memory store stays consistent; on-disk state is whatever the
  /// completed phases left). Set before the first checkpoint runs; not
  /// synchronized against a concurrent Checkpoint().
  void SetCheckpointFaultHookForTest(CheckpointFaultHook hook) {
    checkpoint_fault_hook_ = std::move(hook);
  }

 private:
  LiveStore(std::string dir, const LiveStoreOptions& options);

  /// Shared write path. When `terms` is non-null it holds {s, p, o}
  /// strings to intern; otherwise `t` is used as-is.
  Status Write(bool is_assert, const std::string_view* terms, Triple t,
               Chronon at);

  /// Rejects a non-finite or backdated write time; every write checks
  /// this first. REQUIRES(mu_).
  Status CheckTimeLocked(Chronon at) const REQUIRES(mu_);
  /// Term-id and liveness validation of a delta over known terms.
  /// REQUIRES(mu_).
  Status ValidateLocked(bool is_assert, const Triple& t) REQUIRES(mu_);
  /// Current liveness of `t`: overlay map first, base graph fallback
  /// (memoized). REQUIRES(mu_).
  bool IsLiveLocked(const Triple& t) REQUIRES(mu_);
  /// Moves the pending deltas with lsn <= `upto` into a published
  /// chunk + epoch. REQUIRES(mu_).
  void PublishLocked(uint64_t upto) REQUIRES(mu_);
  /// Wakes the background checkpointer when the published backlog has
  /// crossed the checkpoint threshold.
  void MaybeSignalCheckpointLocked() REQUIRES(mu_);
  /// Blocks until every LSN <= `target` is durable, running or joining
  /// the group-commit protocol. Called with mu_ held; returns with mu_
  /// held. (Lock juggling inside makes this inexpressible to the
  /// static analysis, hence NO_THREAD_SAFETY_ANALYSIS; the
  /// Lock/Unlock pairing is local to the function body.)
  Status CommitSyncLocked(uint64_t target) NO_THREAD_SAFETY_ANALYSIS;

  void BackgroundCheckpointLoop();

  const std::string dir_;
  const LiveStoreOptions options_;
  CheckpointFaultHook checkpoint_fault_hook_;  // test-only, set pre-run

  /// Interior: base-graph scans under it (IsLiveLocked's liveness
  /// fallback) may take the decoded-leaf cache's shard leaf mutexes.
  mutable util::Mutex mu_ ACQUIRED_AFTER(ckpt_mu_){"LiveStore::mu_"};
  mutable util::CondVar cv_;

  Dictionary dict_ GUARDED_BY(mu_);
  std::shared_ptr<const TemporalGraph> base_ GUARDED_BY(mu_);
  std::shared_ptr<const DeltaChunk> head_ GUARDED_BY(mu_);
  std::shared_ptr<const Epoch> epoch_ GUARDED_BY(mu_);
  /// Logged but not yet published deltas (awaiting durability).
  std::vector<Delta> pending_ GUARDED_BY(mu_);
  /// Liveness of triples touched since the base graph was installed;
  /// misses fall back to base_->Validity.
  std::unordered_map<Triple, bool, TripleHash> liveness_ GUARDED_BY(mu_);

  storage::WalWriter wal_ GUARDED_BY(mu_);
  uint64_t wal_seq_ GUARDED_BY(mu_) = 1;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  uint64_t appended_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;
  /// LSN folded into base_ (records <= it live only in the snapshot).
  uint64_t base_lsn_ GUARDED_BY(mu_) = 0;
  /// Clock of the newest published delta (epoch last_time).
  Chronon published_time_ GUARDED_BY(mu_) = 0;
  /// Clock of the newest appended delta (validation bound).
  Chronon last_time_ GUARDED_BY(mu_) = 0;
  /// A group-commit leader's fsync is in flight: wal_ must not be
  /// rotated and no second fsync started.
  bool sync_in_flight_ GUARDED_BY(mu_) = false;
  /// A log append or sync failed: durability is unknowable from here
  /// on, so every further write is refused until reopen.
  bool poisoned_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;

  /// Serializes checkpoints. Lock order: ckpt_mu_ is always acquired
  /// before mu_, never the other way around (and the annotation makes
  /// both the static and the runtime lock-order checks enforce it).
  util::Mutex ckpt_mu_ ACQUIRED_BEFORE(mu_){"LiveStore::ckpt_mu_"};
  std::thread checkpointer_;
};

}  // namespace rdftx

#endif  // RDFTX_CORE_LIVE_STORE_H_
