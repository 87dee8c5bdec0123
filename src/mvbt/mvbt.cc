#include "mvbt/mvbt.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/simd.h"

namespace rdftx::mvbt {
namespace {

/// Largest key strictly smaller than `k`. Precondition: k > kKeyMin.
Key3 KeyPred(const Key3& k) {
  Key3 p = k;
  if (p.c > 0) {
    --p.c;
  } else if (p.b > 0) {
    --p.b;
    p.c = UINT64_MAX;
  } else {
    assert(p.a > 0);
    --p.a;
    p.b = UINT64_MAX;
    p.c = UINT64_MAX;
  }
  return p;
}

KeyRange UnionRange(const KeyRange& x, const KeyRange& y) {
  return KeyRange{std::min(x.lo, y.lo), std::max(x.hi, y.hi)};
}

// Bytes charged per cached decoded leaf beyond the entry payload,
// approximating the cache's own list/map node cost.
constexpr size_t kCacheEntryOverhead = 96;

// Lock shards of the decoded-leaf cache, so concurrent readers of
// different leaves rarely share a mutex.
constexpr size_t kLeafCacheShards = 8;

}  // namespace

Mvbt::Mvbt(const MvbtOptions& options) : options_(options) {
  options_.block_capacity = std::max<size_t>(8, options_.block_capacity);
  if (options_.leaf_cache_bytes > 0) {
    leaf_cache_ = std::make_unique<LeafCache>(options_.leaf_cache_bytes,
                                              kLeafCacheShards);
  }
  const size_t b = options_.block_capacity;
  weak_min_ = std::max<size_t>(2, b / 5);
  strong_max_ = std::max(weak_min_ * 2 + 2, b * 4 / 5);
  Node* root = NewNode(/*is_leaf=*/true, /*created=*/0,
                       KeyRange{kKeyMin, kKeyMax});
  root->root_at_creation = true;
  root->strong_exempt = true;
  roots_.push_back(RootEntry{0, kChrononNow, root});
  live_root_ = root;
  stats_.roots = 1;
  IndexLiveLeaf(root);
}

Mvbt::Node* Mvbt::NewNode(bool is_leaf, Chronon created,
                          const KeyRange& range) {
  arena_.emplace_back();
  Node* n = &arena_.back();
  n->is_leaf = is_leaf;
  n->created = created;
  n->range = range;
  if (is_leaf) {
    ++stats_.leaf_nodes;
  } else {
    ++stats_.inner_nodes;
  }
  return n;
}

uint16_t Mvbt::KeyFingerprint(const Key3& key) {
  // Multiplication carries low-bit differences (neighbouring term ids)
  // into the top bits, which are the ones kept.
  uint64_t h = key.a * 0x9E3779B97F4A7C15ull;
  h = (h ^ key.b) * 0xC2B2AE3D27D4EB4Full;
  h = (h ^ key.c) * 0x165667B19E3779F9ull;
  const auto fp = static_cast<uint16_t>(h >> 48);
  return fp == 0 ? 1 : fp;
}

Mvbt::LiveLeafMap::iterator Mvbt::LiveLeafOf(const Key3& key) {
  auto it = live_leaves_.upper_bound(key);
  assert(it != live_leaves_.begin() && "live leaves partition the key space");
  return std::prev(it);
}

Mvbt::LiveLeafMap::const_iterator Mvbt::LiveLeafOf(const Key3& key) const {
  auto it = live_leaves_.upper_bound(key);
  assert(it != live_leaves_.begin() && "live leaves partition the key space");
  return std::prev(it);
}

std::optional<LeafBlock::Slot> Mvbt::FindLiveSlot(const LiveLeaf& leaf,
                                                   const Key3& key) {
  // Closed slots hold fingerprint 0, which no key hashes to, so a hit
  // whose slot holds `key` is the key's live entry (unique per leaf).
  // Hits come in ascending slot order, so one walk confirms them all.
  const uint16_t fp = KeyFingerprint(key);
  const uint16_t* fps = leaf.fingerprints.data();
  const size_t n = leaf.fingerprints.size();
  LeafBlock::SlotWalk walk(leaf.node->block);
  for (size_t i = simd::FindEq16(fps, n, fp, 0); i < n;
       i = simd::FindEq16(fps, n, fp, i + 1)) {
    const LeafBlock::Slot& slot = walk.Seek(i);
    if (slot.entry.key == key) return slot;
  }
  return std::nullopt;
}

void Mvbt::IndexLiveLeaf(Node* leaf) {
  LiveLeaf& ll = live_leaves_[leaf->range.lo];
  ll.node = leaf;
  ll.fingerprints.clear();
  ll.fingerprints.reserve(options_.block_capacity + 1);
  leaf->block.VisitWith([&](const Entry& e) {
    ll.fingerprints.push_back(e.live() ? KeyFingerprint(e.key) : 0);
    return true;
  });
}

Status Mvbt::Insert(const Key3& key, Chronon t) {
  if (t < last_time_) {
    return Status::InvalidArgument("versions must be nondecreasing");
  }
  if (t > kChrononMax) {
    return Status::InvalidArgument("version beyond temporal domain");
  }
  last_time_ = t;
  const auto it = LiveLeafOf(key);
  if (FindLiveSlot(it->second, key).has_value()) {
    return Status::AlreadyExists("key is live: " + key.ToString());
  }
  Node* leaf = it->second.node;
  leaf->block.Append(Entry{key, t, kChrononNow});
  it->second.fingerprints.push_back(KeyFingerprint(key));
  ++leaf->live_count;
  ++live_size_;
  if (leaf->block.count() > options_.block_capacity) {
    HandleLeafOverflow(leaf, t);
  }
  return Status::OK();
}

Status Mvbt::Erase(const Key3& key, Chronon t) {
  if (t < last_time_) {
    return Status::InvalidArgument("versions must be nondecreasing");
  }
  if (t > kChrononMax) {
    return Status::InvalidArgument("version beyond temporal domain");
  }
  last_time_ = t;
  const auto it = LiveLeafOf(key);
  const std::optional<LeafBlock::Slot> slot = FindLiveSlot(it->second, key);
  if (!slot.has_value()) {
    return Status::NotFound("key not live: " + key.ToString());
  }
  Node* leaf = it->second.node;
  leaf->block.CloseAt(*slot, t);
  it->second.fingerprints[slot->index] = 0;
  --leaf->live_count;
  --live_size_;
  if (leaf != live_root_ && leaf->live_count < weak_min_) {
    HandleLeafUnderflow(leaf, t);
  }
  return Status::OK();
}

void Mvbt::HandleLeafOverflow(Node* leaf, Chronon t) {
  if (leaf->created == t) {
    InPlaceSplitLeaf(leaf, t);
  } else {
    RestructureLeaf(leaf, t, /*try_merge=*/false);
  }
}

void Mvbt::HandleLeafUnderflow(Node* leaf, Chronon t) {
  RestructureLeaf(leaf, t, /*try_merge=*/true);
}

void Mvbt::HandleInnerOverflow(Node* inner, Chronon t) {
  if (inner->created == t) {
    InPlaceSplitInner(inner, t);
  } else {
    RestructureInner(inner, t, /*try_merge=*/false);
  }
}

void Mvbt::HandleInnerUnderflow(Node* inner, Chronon t) {
  RestructureInner(inner, t, /*try_merge=*/true);
}

void Mvbt::AttachBacklinks(Node* successor, Node* source) const {
  if (!source->lifespan().empty()) {
    successor->backlinks.push_back(source);
    return;
  }
  // Zero-lifespan predecessor is invisible to every query; inherit its
  // links so the chain stays connected.
  for (Node* p : source->backlinks) successor->backlinks.push_back(p);
}

void Mvbt::MaybeCompressDeadLeaf(Node* leaf) {
  if (options_.compress_leaves && !leaf->block.compressed()) {
    leaf->block.Compress();
  }
  leaf->backlinks.shrink_to_fit();  // dead leaves are immutable
}

void Mvbt::RestructureLeaf(Node* leaf, Chronon t, bool try_merge) {
  ++stats_.version_splits;
  live_leaves_.erase(leaf->range.lo);
  std::vector<Key3> keys;
  leaf->block.CapLiveEntries(t, &keys);
  leaf->live_count = 0;
  leaf->dead = t;
  MaybeCompressDeadLeaf(leaf);

  KeyRange range = leaf->range;
  Node* sib = nullptr;
  bool strong_exempt = false;
  if (try_merge || keys.size() < weak_min_ * 2) {
    sib = FindLiveSibling(leaf);
    // The strong version condition's lower bound is unenforceable when
    // there is no live sibling to merge with, or when the merge partner
    // is itself below the weak minimum (analysis/invariants.cc).
    strong_exempt = sib == nullptr || sib->live_count < weak_min_;
    if (sib != nullptr) {
      ++stats_.merges;
      live_leaves_.erase(sib->range.lo);
      sib->block.CapLiveEntries(t, &keys);
      sib->live_count = 0;
      sib->dead = t;
      MaybeCompressDeadLeaf(sib);
      range = UnionRange(range, sib->range);
    }
  }

  std::sort(keys.begin(), keys.end());
  std::vector<Node*> new_nodes;
  if (keys.size() > strong_max_) {
    ++stats_.key_splits;
    const Key3 m = keys[keys.size() / 2];
    Node* n1 = NewNode(true, t, KeyRange{range.lo, KeyPred(m)});
    Node* n2 = NewNode(true, t, KeyRange{m, range.hi});
    for (const Key3& k : keys) {
      Node* dst = k < m ? n1 : n2;
      dst->block.Append(Entry{k, t, kChrononNow});
      ++dst->live_count;
    }
    new_nodes = {n1, n2};
  } else {
    Node* n = NewNode(true, t, range);
    for (const Key3& k : keys) {
      n->block.Append(Entry{k, t, kChrononNow});
      ++n->live_count;
    }
    new_nodes = {n};
  }
  for (Node* n : new_nodes) {
    n->created_live = n->live_count;
    n->strong_exempt = strong_exempt;
    AttachBacklinks(n, leaf);
    if (sib != nullptr) AttachBacklinks(n, sib);
    IndexLiveLeaf(n);
  }

  if (leaf->parent == nullptr) {
    InstallNewRoot(new_nodes, t);
  } else {
    ReplaceInParent(leaf, sib, new_nodes, t);
  }
}

void Mvbt::RestructureInner(Node* inner, Chronon t, bool try_merge) {
  ++stats_.version_splits;
  std::vector<IndexEntry> live;
  auto extract = [&](Node* n) {
    for (IndexEntry& e : n->entries) {
      if (e.live()) {
        live.push_back(IndexEntry{e.min_key, t, kChrononNow, e.child});
        e.end = t;
      }
    }
    n->live_count = 0;
    n->dead = t;
    n->entries.shrink_to_fit();  // dead inner nodes are immutable
  };
  extract(inner);

  KeyRange range = inner->range;
  Node* sib = nullptr;
  bool strong_exempt = false;
  if (try_merge || live.size() < weak_min_ * 2) {
    sib = FindLiveSibling(inner);
    strong_exempt = sib == nullptr || sib->live_count < weak_min_;
    if (sib != nullptr) {
      ++stats_.merges;
      extract(sib);
      range = UnionRange(range, sib->range);
    }
  }

  std::sort(live.begin(), live.end(),
            [](const IndexEntry& x, const IndexEntry& y) {
              return x.min_key < y.min_key;
            });
  std::vector<Node*> new_nodes;
  if (live.size() > strong_max_) {
    ++stats_.key_splits;
    const Key3 m = live[live.size() / 2].min_key;
    Node* n1 = NewNode(false, t, KeyRange{range.lo, KeyPred(m)});
    Node* n2 = NewNode(false, t, KeyRange{m, range.hi});
    for (const IndexEntry& e : live) {
      Node* dst = e.min_key < m ? n1 : n2;
      dst->entries.push_back(e);
      ++dst->live_count;
      e.child->parent = dst;
    }
    new_nodes = {n1, n2};
  } else {
    Node* n = NewNode(false, t, range);
    for (const IndexEntry& e : live) {
      n->entries.push_back(e);
      ++n->live_count;
      e.child->parent = n;
    }
    new_nodes = {n};
  }
  for (Node* n : new_nodes) {
    n->created_live = n->live_count;
    n->strong_exempt = strong_exempt;
  }

  if (inner->parent == nullptr) {
    InstallNewRoot(new_nodes, t);
  } else {
    ReplaceInParent(inner, sib, new_nodes, t);
  }
}

void Mvbt::InPlaceSplitLeaf(Node* leaf, Chronon t) {
  leaf->block.PurgeEmptyEntries();
  leaf->live_count = leaf->block.count();
  if (leaf->block.count() <= options_.block_capacity) {
    // Same-version reorganization, not a paper restructure: record the
    // new composition but exempt it from the strong condition bounds.
    leaf->created_live = leaf->live_count;
    leaf->strong_exempt = true;
    IndexLiveLeaf(leaf);  // the purge moved the slots
    return;
  }

  ++stats_.inplace_splits;
  ++stats_.key_splits;
  std::vector<Entry> entries = leaf->block.Decode();
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.key < y.key; });
  const Key3 m = entries[entries.size() / 2].key;

  Node* sib = NewNode(true, t, KeyRange{m, leaf->range.hi});
  leaf->range.hi = KeyPred(m);
  sib->backlinks = leaf->backlinks;
  const bool was_compressed = leaf->block.compressed();
  LeafBlock left;
  if (was_compressed) left.Compress(nullptr);
  for (const Entry& e : entries) {
    if (e.key < m) {
      left.Append(e);
    } else {
      sib->block.Append(e);
    }
  }
  if (was_compressed) sib->block.Compress(nullptr);
  leaf->block = std::move(left);
  leaf->live_count = leaf->block.count();
  sib->live_count = sib->block.count();
  leaf->created_live = leaf->live_count;
  sib->created_live = sib->live_count;
  leaf->strong_exempt = false;
  sib->strong_exempt = false;
  IndexLiveLeaf(leaf);
  IndexLiveLeaf(sib);

  if (leaf->parent == nullptr) {
    // A root split at creation version: hoist a fresh inner root above
    // both halves.
    Node* root = NewNode(false, t, KeyRange{kKeyMin, kKeyMax});
    root->entries.push_back(IndexEntry{leaf->range.lo, t, kChrononNow, leaf});
    root->entries.push_back(IndexEntry{sib->range.lo, t, kChrononNow, sib});
    root->live_count = 2;
    root->created_live = 2;
    root->strong_exempt = true;
    leaf->parent = root;
    sib->parent = root;
    InstallNewRoot({root}, t);
    return;
  }
  Node* p = leaf->parent;
  sib->parent = p;
  p->entries.push_back(IndexEntry{sib->range.lo, t, kChrononNow, sib});
  ++p->live_count;
  CheckNodeConditions(p, t);
}

void Mvbt::InPlaceSplitInner(Node* inner, Chronon t) {
  std::erase_if(inner->entries,
                [](const IndexEntry& e) { return e.start == e.end; });
  inner->live_count = inner->entries.size();
  if (inner->entries.size() <= options_.block_capacity) {
    inner->created_live = inner->live_count;
    inner->strong_exempt = true;
    return;
  }

  ++stats_.inplace_splits;
  ++stats_.key_splits;
  std::sort(inner->entries.begin(), inner->entries.end(),
            [](const IndexEntry& x, const IndexEntry& y) {
              return x.min_key < y.min_key;
            });
  const Key3 m = inner->entries[inner->entries.size() / 2].min_key;

  Node* sib = NewNode(false, t, KeyRange{m, inner->range.hi});
  inner->range.hi = KeyPred(m);
  std::vector<IndexEntry> left;
  for (const IndexEntry& e : inner->entries) {
    if (e.min_key < m) {
      left.push_back(e);
    } else {
      sib->entries.push_back(e);
      e.child->parent = sib;
    }
  }
  inner->entries = std::move(left);
  inner->live_count = inner->entries.size();
  sib->live_count = sib->entries.size();
  inner->created_live = inner->live_count;
  sib->created_live = sib->live_count;
  inner->strong_exempt = false;
  sib->strong_exempt = false;

  if (inner->parent == nullptr) {
    Node* root = NewNode(false, t, KeyRange{kKeyMin, kKeyMax});
    root->entries.push_back(
        IndexEntry{inner->range.lo, t, kChrononNow, inner});
    root->entries.push_back(IndexEntry{sib->range.lo, t, kChrononNow, sib});
    root->live_count = 2;
    root->created_live = 2;
    root->strong_exempt = true;
    inner->parent = root;
    sib->parent = root;
    InstallNewRoot({root}, t);
    return;
  }
  Node* p = inner->parent;
  sib->parent = p;
  p->entries.push_back(IndexEntry{sib->range.lo, t, kChrononNow, sib});
  ++p->live_count;
  CheckNodeConditions(p, t);
}

Mvbt::Node* Mvbt::FindLiveSibling(Node* node) const {
  Node* p = node->parent;
  if (p == nullptr) return nullptr;
  // Gather the live routing entries sorted by min_key; the sibling is the
  // key-adjacent live node (right neighbour preferred).
  std::vector<const IndexEntry*> live;
  for (const IndexEntry& e : p->entries) {
    if (e.live()) live.push_back(&e);
  }
  std::sort(live.begin(), live.end(),
            [](const IndexEntry* x, const IndexEntry* y) {
              return x->min_key < y->min_key;
            });
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i]->child == node) {
      if (i + 1 < live.size()) return live[i + 1]->child;
      if (i > 0) return live[i - 1]->child;
      return nullptr;
    }
  }
  return nullptr;
}

void Mvbt::ReplaceInParent(Node* old_node, Node* old_sibling,
                           const std::vector<Node*>& new_nodes, Chronon t) {
  Node* p = old_node->parent;
  assert(p != nullptr);
  for (IndexEntry& e : p->entries) {
    if (e.live() && (e.child == old_node || e.child == old_sibling)) {
      e.end = t;
      --p->live_count;
    }
  }
  for (Node* n : new_nodes) {
    n->parent = p;
    p->entries.push_back(IndexEntry{n->range.lo, t, kChrononNow, n});
    ++p->live_count;
  }
  CheckNodeConditions(p, t);
}

void Mvbt::CheckNodeConditions(Node* node, Chronon t) {
  if (node->entries.size() > options_.block_capacity) {
    HandleInnerOverflow(node, t);
  } else if (node != live_root_ && node->alive() &&
             node->live_count < weak_min_) {
    HandleInnerUnderflow(node, t);
  }
}

void Mvbt::InstallNewRoot(const std::vector<Node*>& new_nodes, Chronon t) {
  Node* new_root;
  if (new_nodes.size() == 1) {
    new_root = new_nodes[0];
  } else {
    new_root = NewNode(false, t, KeyRange{kKeyMin, kKeyMax});
    for (Node* n : new_nodes) {
      new_root->entries.push_back(
          IndexEntry{n->range.lo, t, kChrononNow, n});
      ++new_root->live_count;
      n->parent = new_root;
    }
    new_root->created_live = new_root->live_count;
    new_root->strong_exempt = true;
  }
  new_root->root_at_creation = true;
  new_root->parent = nullptr;
  if (roots_.back().start == t) {
    roots_.back().node = new_root;
  } else {
    roots_.back().end = t;
    roots_.push_back(RootEntry{t, kChrononNow, new_root});
    ++stats_.roots;
  }
  live_root_ = new_root;
}

const Mvbt::Node* Mvbt::FindRoot(Chronon t) const {
  // roots_ is sorted by start and contiguous.
  auto it = std::upper_bound(
      roots_.begin(), roots_.end(), t,
      [](Chronon v, const RootEntry& r) { return v < r.start; });
  if (it == roots_.begin()) return nullptr;
  --it;
  return t < it->end ? it->node : nullptr;
}

void Mvbt::CollectBorderLeaves(const KeyRange& range, Chronon border,
                               std::vector<const Node*>* out) const {
  const Node* root = FindRoot(border);
  if (root == nullptr) return;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      out->push_back(n);
      continue;
    }
    for (const IndexEntry& e : n->entries) {
      if (e.start <= border && border < e.end &&
          e.child->range.Overlaps(range)) {
        stack.push_back(e.child);
      }
    }
  }
}

void Mvbt::CollectRegionLeaves(const KeyRange& range, const Interval& time,
                               std::vector<const Node*>* out) const {
  if (time.empty() || range.lo > range.hi) return;
  const Chronon border =
      time.end == kChrononNow ? kChrononMax : time.end - 1;
  std::vector<const Node*> stack;
  CollectBorderLeaves(range, border, &stack);
  std::unordered_set<const Node*> visited;
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!visited.insert(n).second) continue;
    out->push_back(n);
    for (const Node* pred : n->backlinks) {
      if (!visited.contains(pred) && pred->lifespan().Overlaps(time) &&
          pred->range.Overlaps(range)) {
        stack.push_back(pred);
      }
    }
  }
}

std::shared_ptr<const ColumnarEntries> Mvbt::CachedEntries(
    const Node* n, ScanStats* stats) const {
  if (auto hit = leaf_cache_->Get(n)) {
    if (stats != nullptr) ++stats->cache_hits;
    return hit;
  }
  ColumnarEntries cols;
  n->block.DecodeColumnar(&cols);
  // Charge the columnar image's true heap footprint (capacities, not a
  // row-form size estimate) so the LRU budget is honest.
  const size_t bytes = cols.MemoryBytes() + kCacheEntryOverhead;
  uint64_t evicted = 0;
  auto inserted = leaf_cache_->Insert(n, std::move(cols), bytes, &evicted);
  if (stats != nullptr) {
    ++stats->cache_misses;
    stats->entries_decoded += inserted->size();
    stats->cache_evictions += evicted;
  }
  return inserted;
}

const ColumnarEntries* Mvbt::LeafColumns(
    const Node& n, ColumnarEntries* scratch,
    std::shared_ptr<const ColumnarEntries>* keepalive,
    ScanStats* stats) const {
  if (stats != nullptr) ++stats->leaves_visited;
  if (leaf_cache_ != nullptr && !n.alive() && n.block.compressed()) {
    *keepalive = CachedEntries(&n, stats);
    return keepalive->get();
  }
  scratch->Clear();
  n.block.DecodeColumnar(scratch);
  if (stats != nullptr && n.block.compressed()) {
    stats->entries_decoded += scratch->size();
  }
  return scratch;
}

void Mvbt::QueryRange(
    const KeyRange& range, const Interval& time,
    const std::function<void(const Key3&, const Interval&)>& visit) const {
  QueryRangeT(range, time,
              [&visit](const Key3& k, const Interval& iv) { visit(k, iv); });
}

void Mvbt::QuerySnapshot(const KeyRange& range, Chronon t,
                         const std::function<void(const Key3&)>& visit) const {
  QuerySnapshotT(range, t, [&visit](const Key3& k) { visit(k); });
}

util::CacheCounters Mvbt::leaf_cache_counters() const {
  if (leaf_cache_ == nullptr) return util::CacheCounters{};
  return leaf_cache_->counters();
}

bool Mvbt::FindLive(const Key3& key, Chronon* start) const {
  const auto it = LiveLeafOf(key);
  const std::optional<LeafBlock::Slot> slot = FindLiveSlot(it->second, key);
  if (!slot.has_value()) return false;
  *start = slot->entry.start;
  return true;
}

size_t Mvbt::MemoryUsage() const {
  size_t bytes = roots_.capacity() * sizeof(RootEntry);
  for (const Node& n : arena_) {
    bytes += sizeof(Node);
    bytes += n.entries.capacity() * sizeof(IndexEntry);
    bytes += n.backlinks.capacity() * sizeof(Node*);
    bytes += n.block.MemoryUsage();
  }
  return bytes;
}

size_t Mvbt::CompressAllLeaves(CompressionStats* stats) {
  size_t compressed = 0;
  for (Node& n : arena_) {
    if (n.is_leaf && !n.block.compressed()) {
      n.block.Compress(stats);
      ++compressed;
    }
  }
  return compressed;
}

Status Mvbt::BeginRestore() {
  if (arena_.size() != 1 || last_time_ != 0 || live_size_ != 0 ||
      arena_.front().block.count() != 0) {
    return Status::InvalidArgument(
        "snapshot restore requires a freshly constructed tree");
  }
  arena_.clear();
  roots_.clear();
  live_leaves_.clear();
  live_root_ = nullptr;
  stats_ = MvbtStats{};
  return Status::OK();
}

Mvbt::Node* Mvbt::AppendRestoredNode() {
  arena_.emplace_back();
  return &arena_.back();
}

Status Mvbt::FinishRestore(const std::vector<SnapshotRoot>& roots,
                           Chronon last_time, uint64_t live_size,
                           const MvbtStats& stats) {
  if (arena_.empty()) return Status::Corruption("restored forest has no nodes");
  if (roots.empty()) return Status::Corruption("restored forest has no roots");
  roots_.clear();
  roots_.reserve(roots.size());
  for (const SnapshotRoot& r : roots) {
    if (r.node >= arena_.size()) {
      return Status::Corruption("root references node id out of range");
    }
    roots_.push_back(RootEntry{r.start, r.end, &arena_[r.node]});
  }
  live_root_ = roots_.back().node;
  if (!live_root_->alive() || live_root_->parent != nullptr) {
    return Status::Corruption("restored live root is dead or has a parent");
  }
  last_time_ = last_time;
  live_size_ = live_size;
  // Recompute the derived counters and cross-check the snapshot's own
  // record of them: a mismatch means the node payloads and the metadata
  // disagree, i.e. the file is internally inconsistent.
  uint64_t leaves = 0, inners = 0, live = 0;
  for (const Node& n : arena_) {
    if (n.is_leaf) {
      ++leaves;
      if (n.alive()) live += n.live_count;
    } else {
      ++inners;
    }
  }
  stats_ = stats;
  if (stats_.leaf_nodes != leaves || stats_.inner_nodes != inners) {
    return Status::Corruption("restored node counts disagree with stats");
  }
  if (stats_.roots != roots_.size()) {
    return Status::Corruption("restored root count disagrees with stats");
  }
  if (live != live_size_) {
    return Status::Corruption("restored live size disagrees with leaves");
  }
  // Validate() below rejects a directory that differs from the leaves
  // of the live tree (e.g. an alive leaf the live tree cannot reach).
  for (Node& n : arena_) {
    if (n.is_leaf && n.alive()) IndexLiveLeaf(&n);
  }
  RDFTX_RETURN_IF_ERROR(CheckChildGraphAcyclic());
  return Validate();
}

Status Mvbt::CheckChildGraphAcyclic() const {
  std::unordered_map<const Node*, size_t> index;
  index.reserve(arena_.size());
  {
    size_t i = 0;
    for (const Node& n : arena_) index[&n] = i++;
  }
  // Iterative three-color DFS over every child edge (dead and alive):
  // query traversals walk dead subtrees too, so a cycle anywhere would
  // hang them.
  std::vector<uint8_t> color(arena_.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<size_t, size_t>> stack;  // (node id, next entry)
  for (size_t start = 0; start < arena_.size(); ++start) {
    if (color[start] != 0) continue;
    color[start] = 1;
    stack.clear();
    stack.push_back({start, 0});
    while (!stack.empty()) {
      const size_t ni = stack.back().first;
      const size_t ei = stack.back().second;
      const Node& n = arena_[ni];
      if (n.is_leaf || ei >= n.entries.size()) {
        color[ni] = 2;
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      const Node* child = n.entries[ei].child;
      if (child == nullptr) {
        return Status::Corruption("inner entry has null child");
      }
      auto it = index.find(child);
      if (it == index.end()) {
        return Status::Corruption("inner entry child outside the arena");
      }
      if (color[it->second] == 1) {
        return Status::Corruption("cycle in the child-reference graph");
      }
      if (color[it->second] == 0) {
        color[it->second] = 1;
        stack.push_back({it->second, 0});
      }
    }
  }
  return Status::OK();
}

void Mvbt::ForEachNode(const std::function<void(const Node&)>& fn) const {
  for (const Node& n : arena_) fn(n);
}

void Mvbt::ForEachNodeMutable(const std::function<void(Node&)>& fn) {
  for (Node& n : arena_) fn(n);
}

void Mvbt::ForEachRoot(
    const std::function<void(Chronon, Chronon, const Node*)>& fn) const {
  for (const RootEntry& r : roots_) fn(r.start, r.end, r.node);
}

Status Mvbt::ValidateNode(const Node* node, const KeyRange& range,
                          size_t depth) const {
  // A genuine MVBT's height is logarithmic; this bound only trips on a
  // crafted snapshot whose live tree is a pathological chain, stopping
  // the recursion long before the call stack is at risk.
  if (depth > 256) {
    return Status::Corruption("live tree deeper than any valid MVBT");
  }
  if (node->range.lo != range.lo || node->range.hi != range.hi) {
    return Status::Corruption("node range mismatch");
  }
  if (node->is_leaf) {
    if (node->block.count() > options_.block_capacity + 1) {
      return Status::Corruption("leaf over capacity");
    }
    size_t live = 0;
    Status st = Status::OK();
    node->block.VisitWith([&](const Entry& e) {
      if (e.live()) ++live;
      if (!node->range.Contains(e.key)) {
        st = Status::Corruption("leaf entry key out of range");
        return false;
      }
      if (e.start < node->created ||
          (e.end != kChrononNow && e.end > node->dead)) {
        st = Status::Corruption("leaf entry interval outside node lifespan");
        return false;
      }
      if (e.live() && !node->alive()) {
        st = Status::Corruption("live entry in dead leaf");
        return false;
      }
      return true;
    });
    if (!st.ok()) return st;
    if (node->alive() && live != node->live_count) {
      return Status::Corruption("leaf live_count mismatch");
    }
    return Status::OK();
  }
  if (node->entries.size() > options_.block_capacity + 1) {
    return Status::Corruption("inner over capacity");
  }
  size_t live = 0;
  for (const IndexEntry& e : node->entries) {
    if (e.live()) {
      ++live;
      if (!e.child->alive()) {
        return Status::Corruption("live entry points to dead child");
      }
      if (node->alive() && e.child->parent != node) {
        return Status::Corruption("child parent pointer mismatch");
      }
    } else if (e.child->dead != e.end) {
      return Status::Corruption("closed entry end != child death");
    }
    if (e.child->created > e.start) {
      return Status::Corruption("entry starts before child exists");
    }
    if (!node->range.Contains(e.min_key)) {
      return Status::Corruption("router key out of node range");
    }
  }
  if (node->alive() && live != node->live_count) {
    return Status::Corruption("inner live_count mismatch");
  }
  // The live routers of a live inner node partition its key range.
  if (node->alive()) {
    std::vector<const IndexEntry*> lives;
    for (const IndexEntry& e : node->entries) {
      if (e.live()) lives.push_back(&e);
    }
    std::sort(lives.begin(), lives.end(),
              [](const IndexEntry* x, const IndexEntry* y) {
                return x->min_key < y->min_key;
              });
    if (!lives.empty()) {
      if (lives.front()->min_key != node->range.lo) {
        return Status::Corruption("first live router != node range.lo");
      }
      for (size_t i = 0; i < lives.size(); ++i) {
        const KeyRange& cr = lives[i]->child->range;
        if (cr.lo != lives[i]->min_key) {
          return Status::Corruption("child range.lo != router key");
        }
        const Key3 expect_hi = (i + 1 < lives.size())
                                   ? KeyPred(lives[i + 1]->min_key)
                                   : node->range.hi;
        if (cr.hi != expect_hi) {
          return Status::Corruption("live children do not tile key range");
        }
      }
    }
    // Recurse into live children.
    for (const IndexEntry* e : lives) {
      RDFTX_RETURN_IF_ERROR(ValidateNode(e->child, e->child->range,
                                         depth + 1));
    }
  }
  return Status::OK();
}

Status Mvbt::Validate() const {
  if (roots_.empty()) return Status::Corruption("no roots");
  if (roots_.front().start != 0) {
    return Status::Corruption("first root does not start at 0");
  }
  for (size_t i = 1; i < roots_.size(); ++i) {
    if (roots_[i].start != roots_[i - 1].end) {
      return Status::Corruption("root directory not contiguous");
    }
  }
  if (roots_.back().end != kChrononNow) {
    return Status::Corruption("last root not live");
  }
  if (roots_.back().node != live_root_) {
    return Status::Corruption("live root mismatch");
  }
  if (live_root_->parent != nullptr) {
    return Status::Corruption("live root has a parent");
  }
  // Validate every node (dead and alive) against its own stored range,
  // plus the live tree's tiling invariants from the live root.
  for (const Node& n : arena_) {
    if (n.is_leaf) {
      RDFTX_RETURN_IF_ERROR(ValidateNode(&n, n.range));
    }
  }
  RDFTX_RETURN_IF_ERROR(ValidateNode(live_root_, live_root_->range));
  return ValidateLiveLeaves();
}

Status Mvbt::ValidateLiveLeaves() const {
  // ValidateNode has checked that the live routers tile every live inner
  // node, so this walk reaches each live leaf exactly once.
  size_t leaves = 0;
  std::vector<const Node*> stack{live_root_};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!n->is_leaf) {
      for (const IndexEntry& e : n->entries) {
        if (e.live()) stack.push_back(e.child);
      }
      continue;
    }
    ++leaves;
    const auto it = live_leaves_.find(n->range.lo);
    if (it == live_leaves_.end() || it->second.node != n) {
      return Status::Corruption("live leaf missing from live-leaf directory");
    }
    const std::vector<uint16_t>& fps = it->second.fingerprints;
    if (fps.size() != n->block.count()) {
      return Status::Corruption("live-leaf fingerprint count mismatch");
    }
    size_t slot = 0;
    bool match = true;
    n->block.VisitWith([&](const Entry& e) {
      match = fps[slot++] == (e.live() ? KeyFingerprint(e.key) : 0);
      return match;
    });
    if (!match) return Status::Corruption("live-leaf fingerprint mismatch");
  }
  if (leaves != live_leaves_.size()) {
    return Status::Corruption(
        "live-leaf directory holds a leaf outside the live tree");
  }
  return Status::OK();
}

}  // namespace rdftx::mvbt
