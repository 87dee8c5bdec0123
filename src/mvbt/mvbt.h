// Multiversion B+ Tree (Becker et al., VLDB Journal 1996), the index at
// the core of RDF-TX (paper §4.1). The tree is a forest: each root covers
// a temporal partition of the data. Updates arrive in nondecreasing time
// order (transaction time). Node structure changes — version split, key
// split, merge, merge + key split — keep every live node within the weak
// version condition so that a query in any version touches O(log n_v)
// nodes of the B+ tree that "exists" at that version.
//
// Deviations from the original, chosen for interval-exact query results
// (see DESIGN.md §4):
//  * At a version split, the live entries of the dying node are capped at
//    the split version and re-inserted into the successor with that start
//    version. Entries are therefore never duplicated across nodes, and a
//    range-interval scan emits each validity fragment exactly once; the
//    query layer coalesces fragments per key.
//  * Same-version structure changes reorganize in place instead of
//    producing zero-lifespan nodes.
//
// Leaf nodes carry backward links to their temporal predecessors, which
// the link-based range-interval scan of van den Bercken & Seeger (VLDB
// 1996) follows from the query rectangle's right border (paper §5.2.1).
//
// Updates do not descend the live tree. A live-leaf directory, ordered by
// each live leaf's range.lo, finds the leaf covering a key in O(log n),
// and a 16-bit fingerprint per leaf slot finds the key's live slot,
// reading only the slots whose fingerprint matches (see DESIGN.md §4).
#ifndef RDFTX_MVBT_MVBT_H_
#define RDFTX_MVBT_MVBT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mvbt/key.h"
#include "mvbt/leaf_block.h"
#include "temporal/interval.h"
#include "util/scan_stats.h"
#include "util/sharded_lru_cache.h"
#include "util/status.h"

namespace rdftx::mvbt {

/// Tuning knobs for one MVBT index.
struct MvbtOptions {
  /// Max entries per node (the paper's block capacity b). >= 8.
  size_t block_capacity = 64;
  /// When true, leaf nodes are delta-compressed as soon as they die
  /// (dead leaves are immutable) and CompressAllLeaves() compresses the
  /// live ones too. When false the tree is the "standard MVBT" baseline.
  bool compress_leaves = false;
  /// Byte budget of the decoded-leaf cache, which holds decoded Entry
  /// vectors of hot dead compressed leaves. 0 disables the cache.
  size_t leaf_cache_bytes = 0;
};

/// Structure-change and size counters, exposed for tests and benches.
struct MvbtStats {
  uint64_t version_splits = 0;
  uint64_t key_splits = 0;
  uint64_t merges = 0;
  uint64_t inplace_splits = 0;
  uint64_t leaf_nodes = 0;
  uint64_t inner_nodes = 0;
  uint64_t roots = 0;
};

/// An MVBT over Key3 records with chronon versions.
class Mvbt {
 public:
  explicit Mvbt(const MvbtOptions& options = {});

  Mvbt(const Mvbt&) = delete;
  Mvbt& operator=(const Mvbt&) = delete;

  /// Inserts `key` as live at version `t`. Versions must be
  /// nondecreasing and within the temporal domain. Fails with
  /// AlreadyExists if `key` is live.
  Status Insert(const Key3& key, Chronon t);

  /// Logically deletes `key` at version `t` (sets its end version).
  /// Versions must be nondecreasing and within the temporal domain.
  /// Fails with NotFound if `key` is not live.
  Status Erase(const Key3& key, Chronon t);

  /// Emits every validity fragment (key, [start,end)) with key in
  /// `range` (inclusive) and interval overlapping `time`. Fragments of
  /// one logical record are emitted exactly once and can be coalesced by
  /// the caller. Uses the backward-link range-interval scan.
  ///
  /// This is the devirtualized scan: `visit(key, interval)` is a direct
  /// call, and hot dead compressed leaves are served from the
  /// decoded-leaf cache. Per-query counters land in `stats` when
  /// non-null.
  template <typename Visitor>
  void QueryRangeT(const KeyRange& range, const Interval& time,
                   Visitor&& visit, ScanStats* stats = nullptr) const {
    std::vector<const Node*> leaves;
    CollectRegionLeaves(range, time, &leaves);
    for (const Node* n : leaves) {
      ScanLeaf(*n, stats, [&](const Entry& e) {
        if (range.Contains(e.key) && e.interval().Overlaps(time)) {
          visit(e.key, e.interval());
        }
        return true;
      });
    }
  }

  /// Keys alive at version `t` within `range` (timeslice query),
  /// devirtualized like QueryRangeT.
  template <typename Visitor>
  void QuerySnapshotT(const KeyRange& range, Chronon t, Visitor&& visit,
                      ScanStats* stats = nullptr) const {
    std::vector<const Node*> leaves;
    CollectBorderLeaves(range, t, &leaves);
    for (const Node* leaf : leaves) {
      ScanLeaf(*leaf, stats, [&](const Entry& e) {
        if (range.Contains(e.key) && e.interval().Contains(t)) visit(e.key);
        return true;
      });
    }
  }

  /// Type-erased boundary wrapper over QueryRangeT.
  void QueryRange(
      const KeyRange& range, const Interval& time,
      const std::function<void(const Key3&, const Interval&)>& visit) const;

  /// Type-erased boundary wrapper over QuerySnapshotT.
  void QuerySnapshot(const KeyRange& range, Chronon t,
                     const std::function<void(const Key3&)>& visit) const;

  /// Liveness probe: true iff `key` is live now. `start` receives the
  /// start version of the live *fragment* (>= the logical insertion
  /// version when version splits have fragmented the record); use
  /// QueryRange over the full time domain to reconstruct the complete
  /// validity interval.
  bool FindLive(const Key3& key, Chronon* start) const;

  /// Number of live records.
  size_t live_size() const { return live_size_; }

  /// Latest version seen by an update.
  Chronon last_time() const { return last_time_; }

  /// Total bytes of all nodes (the Fig 8 index-size quantity).
  size_t MemoryUsage() const;

  /// Delta-compresses every uncompressed leaf (paper §4.2 / Fig 3(b)).
  /// Returns the number of leaves compressed.
  size_t CompressAllLeaves(CompressionStats* stats = nullptr);

  /// Structural invariant check for tests. Also checks that the
  /// live-leaf directory holds exactly the live leaves and that every
  /// fingerprint matches its slot.
  Status Validate() const;

  /// The live-leaf directory's fingerprint of a live slot holding `key`;
  /// never 0, which marks a closed slot. Public so tests can construct
  /// colliding keys.
  static uint16_t KeyFingerprint(const Key3& key);

  const MvbtStats& stats() const { return stats_; }
  const MvbtOptions& options() const { return options_; }

  /// Lifetime totals of the decoded-leaf cache (all zero when the cache
  /// is disabled). Thread-safe.
  util::CacheCounters leaf_cache_counters() const;

  // --- internal node structure, public for white-box tests and the
  // synchronized join (sync_join.cc) ---

  struct Node;

  /// Router entry of an inner node: child covers keys >= min_key within
  /// the parent's range, during [start, end).
  struct IndexEntry {
    Key3 min_key;
    Chronon start = 0;
    Chronon end = kChrononNow;
    Node* child = nullptr;

    bool live() const { return end == kChrononNow; }
  };

  struct Node {
    bool is_leaf = true;
    Chronon created = 0;
    Chronon dead = kChrononNow;  // version-split time
    KeyRange range;              // inclusive key range
    Node* parent = nullptr;      // live parent (meaningful while alive)
    size_t live_count = 0;

    // Leaf state.
    LeafBlock block;
    std::vector<Node*> backlinks;  // temporal predecessors

    // Inner state.
    std::vector<IndexEntry> entries;

    // Analysis instrumentation (analysis/invariants.cc): the live entry
    // count at the end of the structure change that produced (or last
    // same-version-reorganized) this node, whether it was installed as a
    // root, and whether the strong version condition was unenforceable
    // (no live sibling to merge with, or the merge partner was itself
    // below the weak minimum).
    size_t created_live = 0;
    bool root_at_creation = false;
    bool strong_exempt = false;

    bool alive() const { return dead == kChrononNow; }
    // created <= dead is a node invariant: a node dies (version split /
    // merge) at the current version, never before its creation.
    // rdftx-analyzer: allow(interval-soundness)
    Interval lifespan() const { return Interval(created, dead); }
  };

  /// Collects the leaves intersecting the rectangle's right border
  /// (step (i) of the link-based scan); used by the synchronized join.
  void CollectBorderLeaves(const KeyRange& range, Chronon border,
                           std::vector<const Node*>* out) const;

  /// Collects every leaf whose (key range x lifespan) rectangle
  /// intersects the query region, via the border search plus the
  /// backward-link walk (steps (i)+(ii) of §5.2.1). Used by the scans,
  /// the structural validator and the synchronized join.
  void CollectRegionLeaves(const KeyRange& range, const Interval& time,
                           std::vector<const Node*>* out) const;

  /// Columnar image of a leaf's entries for the vectorized scan
  /// (engine/vectorized.cc). Dead compressed leaves come from the
  /// decoded-leaf cache — `*keepalive` pins the cache entry and the
  /// returned pointer aliases it; everything else is decoded into
  /// `*scratch` (cleared first) and the pointer aliases that. Counters
  /// (leaves_visited, entries_decoded, cache hits/misses) accumulate
  /// into `stats` exactly as ScanLeaf would.
  const ColumnarEntries* LeafColumns(
      const Node& n, ColumnarEntries* scratch,
      std::shared_ptr<const ColumnarEntries>* keepalive,
      ScanStats* stats) const;

  // --- snapshot persistence hooks (storage/snapshot.cc) ---

  /// Stable node ids for snapshots: a node's id is its position in
  /// creation order (the ForEachNode order). Ids are dense in
  /// [0, node_count()) and never change — arena nodes are never freed.
  size_t node_count() const { return arena_.size(); }

  /// Node by creation-order id.
  const Node* node_at(size_t id) const { return &arena_[id]; }

  /// A root directory entry as stored in a snapshot: the covered
  /// version range plus the root's node id.
  struct SnapshotRoot {
    Chronon start = 0;
    Chronon end = kChrononNow;
    uint64_t node = 0;
  };

  /// Begins a snapshot restore. Only valid on a freshly constructed,
  /// never-updated tree; discards the implicit empty root. The loader
  /// then appends every node in creation order with AppendRestoredNode
  /// — filling the public Node fields directly and wiring
  /// child/backlink/parent pointers via RestoredNode — and finally
  /// calls FinishRestore.
  Status BeginRestore();

  /// Appends one blank node in creation order and returns it for the
  /// loader to fill. Earlier nodes never move (the arena is a deque).
  Node* AppendRestoredNode();

  /// Mutable node access while a restore is in flight.
  Node* RestoredNode(size_t id) { return &arena_[id]; }

  /// Installs the root directory and scalar state, recomputes the
  /// derived counters, cross-checks them against the snapshot's
  /// `stats`, and runs Validate() on the rebuilt forest. Any
  /// inconsistency surfaces as Corruption and leaves the tree unusable
  /// (callers discard it).
  Status FinishRestore(const std::vector<SnapshotRoot>& roots,
                       Chronon last_time, uint64_t live_size,
                       const MvbtStats& stats);

  // --- introspection for analysis::ValidateMvbt and white-box tests ---

  /// Visits every node ever created (dead and alive), in creation order.
  void ForEachNode(const std::function<void(const Node&)>& fn) const;

  /// Mutable variant, for corruption-injection tests only.
  void ForEachNodeMutable(const std::function<void(Node&)>& fn);

  /// Visits the root directory in temporal order: (start, end, node).
  void ForEachRoot(
      const std::function<void(Chronon, Chronon, const Node*)>& fn) const;

  /// The weak version condition's minimum live entries (the paper's d).
  size_t weak_min() const { return weak_min_; }

  /// Post-restructure maximum live entries (strong version condition).
  size_t strong_max() const { return strong_max_; }

  const Node* live_root() const { return live_root_; }

 private:
  struct RootEntry {
    Chronon start = 0;
    Chronon end = kChrononNow;
    Node* node = nullptr;
  };

  /// A live leaf and one fingerprint per block slot: KeyFingerprint of
  /// the slot's key while its entry is live, 0 once it is closed.
  struct LiveLeaf {
    Node* node = nullptr;
    std::vector<uint16_t> fingerprints;
  };
  using LiveLeafMap = std::map<Key3, LiveLeaf>;

  Node* NewNode(bool is_leaf, Chronon created, const KeyRange& range);

  // Live-leaf directory.
  LiveLeafMap::iterator LiveLeafOf(const Key3& key);
  LiveLeafMap::const_iterator LiveLeafOf(const Key3& key) const;
  /// Slot of the live entry with `key` in `leaf`, if any, found in one
  /// forward walk over the slots whose fingerprint matches.
  static std::optional<LeafBlock::Slot> FindLiveSlot(const LiveLeaf& leaf,
                                                     const Key3& key);
  /// (Re)indexes a live leaf under its range.lo from its block.
  void IndexLiveLeaf(Node* leaf);
  Status ValidateLiveLeaves() const;
  const Node* FindRoot(Chronon t) const;

  // Structure changes.
  void HandleLeafOverflow(Node* leaf, Chronon t);
  void HandleLeafUnderflow(Node* leaf, Chronon t);
  void HandleInnerOverflow(Node* inner, Chronon t);
  void HandleInnerUnderflow(Node* inner, Chronon t);
  void RestructureLeaf(Node* leaf, Chronon t, bool try_merge);
  void RestructureInner(Node* inner, Chronon t, bool try_merge);
  void InPlaceSplitLeaf(Node* leaf, Chronon t);
  void InPlaceSplitInner(Node* inner, Chronon t);
  Node* FindLiveSibling(Node* node) const;
  void ReplaceInParent(Node* old_node, Node* old_sibling,
                       const std::vector<Node*>& new_nodes, Chronon t);
  void InstallNewRoot(const std::vector<Node*>& new_nodes, Chronon t);
  void AttachBacklinks(Node* successor, Node* source) const;
  void CheckNodeConditions(Node* node, Chronon t);
  void MaybeCompressDeadLeaf(Node* leaf);

  Status ValidateNode(const Node* node, const KeyRange& range,
                      size_t depth = 0) const;

  /// Rejects cycles in the child-reference graph (possible only in a
  /// crafted snapshot; organic trees are acyclic by construction).
  Status CheckChildGraphAcyclic() const;

  using LeafCache = util::ShardedLruCache<const Node*, ColumnarEntries>;

  /// Decoded entries of a dead compressed leaf, through the cache, in
  /// the columnar form the vectorized scan consumes directly.
  std::shared_ptr<const ColumnarEntries> CachedEntries(
      const Node* n, ScanStats* stats) const;

  /// Feeds a leaf's entries to `fn` (stopping when it returns false),
  /// choosing the cheapest source: the decoded-leaf cache for dead
  /// compressed leaves when the cache is on, the streaming cursor
  /// otherwise. Counts the visit and any decode work into `stats`.
  template <typename Fn>
  void ScanLeaf(const Node& n, ScanStats* stats, Fn&& fn) const {
    if (stats != nullptr) ++stats->leaves_visited;
    if (leaf_cache_ != nullptr && !n.alive() && n.block.compressed()) {
      const auto cols = CachedEntries(&n, stats);
      for (size_t i = 0, sz = cols->size(); i < sz; ++i) {
        if (!fn(cols->At(i))) return;
      }
      return;
    }
    if (stats != nullptr && n.block.compressed()) {
      size_t decoded = 0;
      n.block.VisitWith([&](const Entry& e) {
        ++decoded;
        return fn(e);
      });
      stats->entries_decoded += decoded;
      return;
    }
    n.block.VisitWith(fn);
  }

  MvbtOptions options_;
  size_t weak_min_;    // d: min live entries in a live non-root node
  size_t strong_max_;  // post-restructure max live entries

  std::deque<Node> arena_;
  std::vector<RootEntry> roots_;
  Node* live_root_ = nullptr;
  Chronon last_time_ = 0;
  size_t live_size_ = 0;
  MvbtStats stats_;
  // The live leaves keyed by range.lo; they partition the key space.
  // Changed only by Insert/Erase (fingerprints), RestructureLeaf and
  // InPlaceSplitLeaf (leaves), and the restore hooks (rebuild).
  LiveLeafMap live_leaves_;
  // Decoded-leaf cache (null when leaf_cache_bytes == 0). Keyed by node
  // identity: arena nodes never move or die before the tree, and only
  // dead leaves — immutable by construction — are ever inserted, so no
  // invalidation protocol is needed.
  std::unique_ptr<LeafCache> leaf_cache_;
};

}  // namespace rdftx::mvbt

#endif  // RDFTX_MVBT_MVBT_H_
