#include "mvbt/mvbt.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <thread>
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

constexpr auto kByMinKey = [](const Mvbt::IndexEntry& x,
                               const Mvbt::IndexEntry& y) {
  return x.min_key < y.min_key;
};

// Bytes charged per cached image beyond its columns: the image itself,
// its shared_ptr control block and its CLOCK ring slot.
constexpr size_t kImageOverhead =
    sizeof(Mvbt::LeafImage) + 2 * sizeof(void*) + sizeof(const Mvbt::Node*);

}  // namespace

void RegionMask(const ColumnarEntries& cols, const KeyRange& range,
                const Interval& time, std::vector<uint64_t>* mask) {
  const size_t n = cols.size();
  mask->assign(simd::MaskWords(n), 0);
  if (n == 0 || time.empty()) return;
  simd::OverlapMask(cols.start.data(), cols.end.data(), n, time.start,
                    time.end, mask->data());
  // Every key in [lo, hi] shares the components on which lo and hi
  // agree, up to the first one on which they differ.
  const uint64_t lo[3] = {range.lo.a, range.lo.b, range.lo.c};
  const uint64_t hi[3] = {range.hi.a, range.hi.b, range.hi.c};
  const std::vector<uint64_t>* col[3] = {&cols.a, &cols.b, &cols.c};
  size_t p = 0;
  for (; p < 3 && lo[p] == hi[p]; ++p) {
    simd::AndEqMask64(col[p]->data(), n, lo[p], mask->data());
  }
  // The rest constrains nothing when it spans the whole domain (every
  // pattern range); otherwise check the survivors' full keys.
  bool rest_full = true;
  for (size_t i = p; i < 3; ++i) {
    rest_full = rest_full && lo[i] == 0 && hi[i] == UINT64_MAX;
  }
  if (rest_full) return;
  for (size_t w = 0; w < mask->size(); ++w) {
    for (uint64_t bits = (*mask)[w]; bits != 0; bits &= bits - 1) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (!range.Contains(Key3{cols.a[i], cols.b[i], cols.c[i]})) {
        (*mask)[w] &= ~(uint64_t{1} << (i % 64));
      }
    }
  }
}

Mvbt::Mvbt(const MvbtOptions& options) : options_(options) {
  options_.block_capacity = std::max<size_t>(8, options_.block_capacity);
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
  // An insert can only overflow its leaf: a leaf left below the weak
  // minimum for want of a merge partner waits for an erase.
  if (leaf->block.count() > options_.block_capacity) {
    CheckNodeConditions(leaf, t);
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
  CheckNodeConditions(leaf, t);
  return Status::OK();
}

void Mvbt::CheckNodeConditions(Node* node, Chronon t) {
  const size_t size =
      node->is_leaf ? node->block.count() : node->entries.size();
  if (size > options_.block_capacity) {
    if (node->created == t) {
      InPlaceSplit(node, t);
    } else {
      Restructure(node, t, /*try_merge=*/false);
    }
  } else if (node != live_root_ && node->alive() &&
             node->live_count < weak_min_) {
    Restructure(node, t, /*try_merge=*/true);
  }
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

void Mvbt::Retire(Node* node, Chronon t, std::vector<IndexEntry>* live) {
  if (node->is_leaf) {
    live_leaves_.erase(node->range.lo);
    std::vector<Key3> keys;
    keys.reserve(node->live_count);
    node->block.CapLiveEntries(t, &keys);
    for (const Key3& k : keys) {
      live->push_back(IndexEntry{k, t, kChrononNow, nullptr});
    }
    // Dead leaves are immutable.
    if (options_.compress_leaves && !node->block.compressed()) {
      node->block.Compress();
    }
    node->backlinks.shrink_to_fit();
  } else {
    for (IndexEntry& e : node->entries) {
      if (e.live()) {
        live->push_back(IndexEntry{e.min_key, t, kChrononNow, e.child});
        e.end = t;
      }
    }
    node->entries.shrink_to_fit();  // dead inner nodes are immutable
  }
  node->live_count = 0;
  node->dead = t;
}

void Mvbt::Adopt(Node* node, const IndexEntry& item) {
  if (node->is_leaf) {
    node->block.Append(Entry{item.min_key, item.start, item.end});
  } else {
    node->entries.push_back(item);
    item.child->parent = node;
  }
  ++node->live_count;
}

Mvbt::Node* Mvbt::SplitInto(Node* left, const std::vector<IndexEntry>& items,
                            Chronon t) {
  ++stats_.key_splits;
  const Key3 m = items[items.size() / 2].min_key;
  Node* right = NewNode(left->is_leaf, t, KeyRange{m, left->range.hi});
  left->range.hi = KeyPred(m);
  for (const IndexEntry& item : items) {
    Adopt(item.min_key < m ? left : right, item);
  }
  return right;
}

void Mvbt::Restructure(Node* node, Chronon t, bool try_merge) {
  ++stats_.version_splits;
  std::vector<IndexEntry> live;
  live.reserve(2 * (options_.block_capacity + 1));  // room for a merge
  Retire(node, t, &live);

  KeyRange range = node->range;
  Node* sib = nullptr;
  bool strong_exempt = false;
  if (try_merge || live.size() < weak_min_ * 2) {
    sib = FindLiveSibling(node);
    // The strong version condition's lower bound is unenforceable when
    // there is no live sibling to merge with, or when the merge partner
    // is itself below the weak minimum (analysis/invariants.cc).
    strong_exempt = sib == nullptr || sib->live_count < weak_min_;
    if (sib != nullptr) {
      ++stats_.merges;
      Retire(sib, t, &live);
      range = UnionRange(range, sib->range);
    }
  }

  std::sort(live.begin(), live.end(), kByMinKey);
  std::vector<Node*> new_nodes{NewNode(node->is_leaf, t, range)};
  if (live.size() > strong_max_) {
    new_nodes.push_back(SplitInto(new_nodes[0], live, t));
  } else {
    for (const IndexEntry& item : live) Adopt(new_nodes[0], item);
  }
  for (Node* n : new_nodes) {
    n->created_live = n->live_count;
    n->strong_exempt = strong_exempt;
    if (n->is_leaf) {
      AttachBacklinks(n, node);
      if (sib != nullptr) AttachBacklinks(n, sib);
      IndexLiveLeaf(n);
    }
  }

  if (node->parent == nullptr) {
    InstallNewRoot(new_nodes, t);
  } else {
    ReplaceInParent(node, sib, new_nodes, t);
  }
}

void Mvbt::InPlaceSplit(Node* node, Chronon t) {
  // Every entry of a node created at t started at t, so the ones closed
  // since are empty: purge them, and the rest are live.
  if (node->is_leaf) {
    node->block.PurgeEmptyEntries();
    node->live_count = node->block.count();
  } else {
    std::erase_if(node->entries,
                  [](const IndexEntry& e) { return e.start == e.end; });
    node->live_count = node->entries.size();
  }
  if (node->live_count <= options_.block_capacity) {
    // Same-version reorganization, not a paper restructure: record the
    // new composition but exempt it from the strong condition bounds.
    node->created_live = node->live_count;
    node->strong_exempt = true;
    if (node->is_leaf) IndexLiveLeaf(node);  // the purge moved the slots
    return;
  }

  ++stats_.inplace_splits;
  // Take the payload out, sorted by key, and refill the emptied node and
  // a new right sibling from it. A compressed leaf stays compressed.
  std::vector<IndexEntry> items;
  bool was_compressed = false;
  if (node->is_leaf) {
    items.reserve(node->live_count);
    for (const Entry& e : node->block.Decode()) {
      items.push_back(IndexEntry{e.key, e.start, e.end, nullptr});
    }
    was_compressed = node->block.compressed();
    node->block = LeafBlock();
    if (was_compressed) node->block.Compress(nullptr);
  } else {
    items.swap(node->entries);
  }
  std::sort(items.begin(), items.end(), kByMinKey);
  node->live_count = 0;
  Node* sib = SplitInto(node, items, t);
  node->created_live = node->live_count;
  sib->created_live = sib->live_count;
  node->strong_exempt = false;
  sib->strong_exempt = false;
  if (node->is_leaf) {
    if (was_compressed) sib->block.Compress(nullptr);
    sib->backlinks = node->backlinks;
    IndexLiveLeaf(node);
    IndexLiveLeaf(sib);
  }

  if (node->parent == nullptr) {
    // A root split at its creation version: a fresh inner root goes
    // above both halves.
    InstallNewRoot({node, sib}, t);
    return;
  }
  Node* p = node->parent;
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

std::shared_ptr<const Mvbt::LeafImage> Mvbt::ImageSlot::Load() const {
  while (busy_.test_and_set(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::shared_ptr<const LeafImage> image = image_;
  busy_.clear(std::memory_order_release);
  return image;
}

void Mvbt::ImageSlot::Store(std::shared_ptr<const LeafImage> image) {
  while (busy_.test_and_set(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  image_.swap(image);
  busy_.clear(std::memory_order_release);
}

const ColumnarEntries* Mvbt::LeafColumns(
    const Node& n, ColumnarEntries* scratch,
    std::shared_ptr<const ColumnarEntries>* keepalive,
    ScanStats* stats) const {
  if (stats != nullptr) ++stats->leaves_visited;
  if (options_.leaf_cache_bytes > 0 && !n.alive() && n.block.compressed()) {
    std::shared_ptr<const LeafImage> image = n.image.Load();
    if (image != nullptr) {
      // Hit. The bit is written only when clear, so a hot image's cache
      // line is not written on every hit.
      if (!image->referenced.load(std::memory_order_relaxed)) {
        image->referenced.store(true, std::memory_order_relaxed);
      }
      if (stats != nullptr) ++stats->cache_hits;
    } else {
      image = CacheLeafImage(n, stats);
    }
    const ColumnarEntries* cols = &image->cols;
    *keepalive = std::shared_ptr<const ColumnarEntries>(std::move(image), cols);
    return cols;
  }
  scratch->Clear();
  n.block.DecodeColumnar(scratch);
  if (stats != nullptr && n.block.compressed()) {
    stats->entries_decoded += scratch->size();
  }
  return scratch;
}

std::shared_ptr<const Mvbt::LeafImage> Mvbt::CacheLeafImage(
    const Node& n, ScanStats* stats) const {
  auto fresh = std::make_shared<LeafImage>();
  n.block.DecodeColumnar(&fresh->cols);
  // Charge the columnar image's true heap footprint (capacities, not a
  // row-form size estimate) so the budget is honest.
  fresh->bytes = fresh->cols.MemoryBytes() + kImageOverhead;
  if (stats != nullptr) {
    ++stats->cache_misses;
    stats->entries_decoded += fresh->cols.size();
  }
  if (fresh->bytes > options_.leaf_cache_bytes) return fresh;

  util::MutexLock lock(&leaf_mu_);
  if (std::shared_ptr<const LeafImage> first = n.image.Load()) return first;
  // Sweep the ring: a referenced image loses its bit and is spared, an
  // unreferenced one is evicted and the ring's last node takes its slot,
  // behind the hand. The new node, pushed last, thus comes up last, and
  // is never the victim: its image fits the budget alone. One sweep
  // spares at most a ring's worth, so hits racing it cannot keep it
  // going.
  bytes_held_ += fresh->bytes;
  clock_.push_back(&n);
  size_t spared = 0;
  while (bytes_held_ > options_.leaf_cache_bytes) {
    if (clock_hand_ >= clock_.size()) clock_hand_ = 0;
    const Node* victim = clock_[clock_hand_];
    if (victim == &n) {
      ++clock_hand_;
      continue;
    }
    const std::shared_ptr<const LeafImage> held = victim->image.Load();
    if (spared < clock_.size() &&
        held->referenced.load(std::memory_order_relaxed)) {
      held->referenced.store(false, std::memory_order_relaxed);
      ++spared;
      ++clock_hand_;
      continue;
    }
    victim->image.Store(nullptr);
    bytes_held_ -= held->bytes;
    if (stats != nullptr) ++stats->cache_evictions;
    clock_[clock_hand_++] = clock_.back();
    clock_.pop_back();
  }
  n.image.Store(fresh);
  return fresh;
}

size_t Mvbt::leaf_cache_bytes_held() const {
  util::MutexLock lock(&leaf_mu_);
  return bytes_held_;
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
