#include "analysis/invariants.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "rdf/temporal_graph.h"

namespace rdftx::analysis {
namespace {

using mvbt::Entry;
using mvbt::Key3;
using mvbt::KeyRange;
using mvbt::LeafBlock;
using mvbt::Mvbt;

std::string Where(const Mvbt::Node& n) {
  return (n.is_leaf ? std::string(" (leaf ") : std::string(" (inner ")) +
         n.lifespan().ToString() + " range " + n.range.lo.ToString() + ".." +
         n.range.hi.ToString() + ")";
}

Status Fail(const std::string& what, const Mvbt::Node& n) {
  return Status::Corruption(what + Where(n));
}

/// Per-node checks: entry containment, version conditions, tallies.
Status CheckNode(const Mvbt& tree, const Mvbt::Node& n) {
  if (n.range.lo > n.range.hi) return Fail("inverted key range", n);
  if (n.dead != kChrononNow && n.dead < n.created) {
    return Fail("node dies before it is created", n);
  }
  if (!n.alive() && n.live_count != 0) {
    return Fail("dead node reports live entries", n);
  }

  if (n.is_leaf) {
    const std::vector<Entry> entries = n.block.Decode();
    if (entries.size() != n.block.count()) {
      return Fail("leaf block count disagrees with decoded entries", n);
    }
    size_t live = 0;
    Chronon prev_start = 0;
    std::map<Key3, int> live_keys;
    for (const Entry& e : entries) {
      if (e.start < prev_start) {
        return Fail("leaf entries out of append (start-version) order", n);
      }
      prev_start = e.start;
      if (!n.range.Contains(e.key)) {
        return Fail("leaf entry key outside node range", n);
      }
      if (e.start < n.created) {
        return Fail("leaf entry starts before node exists", n);
      }
      if (!e.live() && e.end < e.start) {
        return Fail("leaf entry with negative-length interval", n);
      }
      if (!e.live() && n.dead != kChrononNow && e.end > n.dead) {
        return Fail("leaf entry interval outlives dead node", n);
      }
      if (e.live()) {
        if (!n.alive()) return Fail("live entry in dead leaf", n);
        ++live;
        if (++live_keys[e.key] > 1) {
          return Fail("duplicate live entry for key " + e.key.ToString(), n);
        }
      }
    }
    if (n.alive() && live != n.live_count) {
      return Fail("leaf live_count disagrees with live entries", n);
    }
    // Weak version condition (§4.1.1): a live non-root node keeps at
    // least d live entries — relaxed to live-at-creation when the
    // restructure that produced it had no adequate merge partner or a
    // same-version purge legitimately left it small (see mvbt.h).
    if (n.alive() && &n != tree.live_root()) {
      const size_t floor_count =
          std::min(tree.weak_min(), n.created_live);
      if (n.live_count < floor_count) {
        return Fail("weak version condition violated: " +
                        std::to_string(n.live_count) + " < min(d=" +
                        std::to_string(tree.weak_min()) + ", created=" +
                        std::to_string(n.created_live) + ")",
                    n);
      }
    }
    // The delta encoding must round-trip: plain -> compressed ->
    // decoded, and (for compressed blocks) decompressed -> recompressed.
    LeafBlock rebuilt;
    for (const Entry& e : entries) rebuilt.Append(e);
    rebuilt.Compress(nullptr);
    if (rebuilt.Decode() != entries) {
      return Fail("leaf delta block does not round-trip", n);
    }
    if (n.block.compressed()) {
      LeafBlock copy = n.block;
      copy.Decompress();
      if (copy.Decode() != entries) {
        return Fail("leaf delta block decompression mismatch", n);
      }
    }
  } else {
    size_t live = 0;
    for (const Mvbt::IndexEntry& e : n.entries) {
      if (e.child == nullptr) return Fail("router entry without child", n);
      if (e.end != kChrononNow && e.end < e.start) {
        return Fail("router entry with negative-length interval", n);
      }
      if (e.start < n.created) {
        return Fail("router entry starts before node exists", n);
      }
      if (e.end != kChrononNow && n.dead != kChrononNow && e.end > n.dead) {
        return Fail("router entry outlives dead node", n);
      }
      if (!n.range.Contains(e.min_key)) {
        return Fail("router key outside node range", n);
      }
      if (e.child->created > e.start) {
        return Fail("router entry starts before its child exists", n);
      }
      if (e.live()) {
        ++live;
        if (!n.alive()) return Fail("live router entry in dead node", n);
        if (!e.child->alive()) {
          return Fail("live router entry points to dead child", n);
        }
        if (e.child->parent != &n) {
          return Fail("child's parent pointer does not match router", n);
        }
      } else if (e.start < e.end && e.child->dead != e.end &&
                 n.dead != e.end) {
        // A closed router entry ends when its child dies (ReplaceInParent)
        // or when this parent itself dies and routing moves to the
        // successor parent (Retire in Restructure).
        return Fail("closed router entry ends at neither child death nor "
                    "parent death",
                    n);
      }
    }
    if (n.alive() && live != n.live_count) {
      return Fail("inner live_count disagrees with live routers", n);
    }
    if (n.alive() && &n != tree.live_root() &&
        n.live_count < std::min(tree.weak_min(), n.created_live)) {
      return Fail("weak version condition violated on inner node", n);
    }
  }

  // Strong version condition (§4.1.1): restructure outputs carry between
  // d and strong_max live entries. The lower bound is unenforceable when
  // there was no adequate merge partner (strong_exempt) or the node was
  // installed as a root; the upper bound holds for every restructure
  // output (same-version reorganizations are exempt from both).
  if (!n.strong_exempt) {
    if (n.created_live > tree.strong_max()) {
      return Fail("strong version condition violated (above strong_max)",
                  n);
    }
    if (!n.root_at_creation && n.created_live < tree.weak_min()) {
      return Fail("strong version condition violated (below d)", n);
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateCoalescedRuns(const std::vector<Interval>& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].empty()) {
      return Status::Corruption("TemporalSet contains an empty run " +
                                runs[i].ToString());
    }
    if (i > 0 && runs[i - 1].end >= runs[i].start) {
      return Status::Corruption(
          runs[i - 1].end > runs[i].start
              ? "TemporalSet runs overlap or are unsorted: " +
                    runs[i - 1].ToString() + " then " + runs[i].ToString()
              : "TemporalSet runs are adjacent (not coalesced): " +
                    runs[i - 1].ToString() + " then " + runs[i].ToString());
    }
  }
  return Status::OK();
}

Status ValidateTemporalSet(const TemporalSet& set) {
  const std::span<const Interval> runs = set.runs();
  return ValidateCoalescedRuns({runs.begin(), runs.end()});
}

Status ValidateMvbt(const Mvbt& tree) {
  // Fast structural baseline first: root directory contiguity, live-root
  // wiring, and live-tree key-space tiling.
  RDFTX_RETURN_IF_ERROR(tree.Validate());

  // Every root must cover the whole key space for its reign.
  {
    Status st = Status::OK();
    tree.ForEachRoot([&](Chronon start, Chronon end, const Mvbt::Node* r) {
      if (!st.ok()) return;
      if (r == nullptr) {
        st = Status::Corruption("root directory entry without node");
        return;
      }
      if (r->range.lo != mvbt::kKeyMin || r->range.hi != mvbt::kKeyMax) {
        st = Fail("root does not span the key space", *r);
        return;
      }
      if (r->created > start) {
        st = Fail("root reigns before it exists", *r);
        return;
      }
      if (r->dead != kChrononNow && end != kChrononNow && r->dead < end) {
        st = Fail("root dies before its reign ends", *r);
      }
    });
    RDFTX_RETURN_IF_ERROR(st);
  }

  // Per-node checks plus global tallies in one arena walk.
  Status st = Status::OK();
  size_t leaves = 0, inners = 0, live_leaf_entries = 0;
  std::vector<const Mvbt::Node*> all_leaves;
  tree.ForEachNode([&](const Mvbt::Node& n) {
    if (!st.ok()) return;
    st = CheckNode(tree, n);
    if (!st.ok()) return;
    if (n.is_leaf) {
      ++leaves;
      all_leaves.push_back(&n);
      if (n.alive()) live_leaf_entries += n.live_count;
    } else {
      ++inners;
    }
  });
  RDFTX_RETURN_IF_ERROR(st);
  if (leaves != tree.stats().leaf_nodes ||
      inners != tree.stats().inner_nodes) {
    return Status::Corruption("node tallies disagree with MvbtStats");
  }
  if (live_leaf_entries != tree.live_size()) {
    return Status::Corruption(
        "live leaf entries (" + std::to_string(live_leaf_entries) +
        ") disagree with live_size (" + std::to_string(tree.live_size()) +
        ")");
  }

  // Version-interval containment of children in parents: the parent and
  // root references of each node must tile its lifespan exactly — no
  // instant of a node's life may be unrouted or doubly routed.
  {
    std::unordered_map<const Mvbt::Node*, std::vector<Interval>> refs;
    tree.ForEachNode([&](const Mvbt::Node& n) {
      if (n.is_leaf) return;
      for (const Mvbt::IndexEntry& e : n.entries) {
        if (e.start < e.end) {
          refs[e.child].push_back(Interval(e.start, e.end));
        }
      }
    });
    tree.ForEachRoot([&](Chronon start, Chronon end, const Mvbt::Node* r) {
      if (start < end) refs[r].push_back(Interval(start, end));
    });
    Status tile = Status::OK();
    tree.ForEachNode([&](const Mvbt::Node& n) {
      if (!tile.ok() || n.lifespan().empty()) return;
      auto it = refs.find(&n);
      if (it == refs.end()) {
        tile = Fail("node has no parent or root reference", n);
        return;
      }
      std::vector<Interval>& iv = it->second;
      std::sort(iv.begin(), iv.end(),
                [](const Interval& x, const Interval& y) {
                  return x.start < y.start;
                });
      if (iv.front().start != n.created) {
        tile = Fail("references do not start at node creation", n);
        return;
      }
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i - 1].end != iv[i].start) {
          tile = Fail("references do not tile node lifespan", n);
          return;
        }
      }
      if (iv.back().end != n.dead) {
        tile = Fail("references end before node death", n);
      }
    });
    RDFTX_RETURN_IF_ERROR(tile);
  }

  // Backward-link shape: links point at dead temporal predecessors that
  // died exactly when the owner was created (§5.2.1; zero-lifespan
  // predecessors are bypassed at attach time, so none may appear).
  for (const Mvbt::Node* leaf : all_leaves) {
    for (const Mvbt::Node* b : leaf->backlinks) {
      if (b == leaf) return Fail("leaf backlinks to itself", *leaf);
      if (!b->is_leaf) return Fail("backlink to a non-leaf", *leaf);
      if (b->lifespan().empty()) {
        return Fail("backlink to a zero-lifespan node", *leaf);
      }
      if (b->dead != leaf->created) {
        return Fail("backlink target did not die at owner's creation",
                    *leaf);
      }
    }
  }

  // Backward-link reachability: the link-based scan over the full
  // rectangle must reach every leaf that ever lived.
  std::vector<const Mvbt::Node*> reached;
  tree.CollectRegionLeaves(KeyRange{}, Interval(0, kChrononNow), &reached);
  std::unordered_set<const Mvbt::Node*> seen(reached.begin(), reached.end());
  for (const Mvbt::Node* leaf : all_leaves) {
    if (!leaf->lifespan().empty() && !seen.contains(leaf)) {
      return Fail("backward-link chain broken: leaf unreachable from "
                  "the live border",
                  *leaf);
    }
  }

  // Coalescing point-based semantics: each logical record's validity
  // fragments are emitted exactly once and never overlap, at most one
  // fragment per key is live, and the live fragments tally with
  // live_size. Coalescing the fragments must yield a normalized
  // TemporalSet.
  std::map<Key3, std::vector<Interval>> fragments;
  size_t live_fragments = 0;
  tree.QueryRange(KeyRange{}, Interval(0, kChrononNow),
                  [&](const Key3& k, const Interval& iv) {
                    fragments[k].push_back(iv);
                    if (iv.end == kChrononNow) ++live_fragments;
                  });
  if (live_fragments != tree.live_size()) {
    return Status::Corruption(
        "live fragments (" + std::to_string(live_fragments) +
        ") disagree with live_size (" + std::to_string(tree.live_size()) +
        ")");
  }
  for (auto& [key, iv] : fragments) {
    std::sort(iv.begin(), iv.end(),
              [](const Interval& x, const Interval& y) {
                return x.start < y.start;
              });
    for (size_t i = 1; i < iv.size(); ++i) {
      if (iv[i - 1].end > iv[i].start) {
        return Status::Corruption("overlapping validity fragments for " +
                                  key.ToString() + ": " +
                                  iv[i - 1].ToString() + " and " +
                                  iv[i].ToString());
      }
    }
    for (size_t i = 0; i + 1 < iv.size(); ++i) {
      if (iv[i].end == kChrononNow) {
        return Status::Corruption("live fragment is not the last for " +
                                  key.ToString());
      }
    }
    RDFTX_RETURN_IF_ERROR(ValidateTemporalSet(TemporalSet::FromIntervals(iv)));
  }
  return Status::OK();
}

Status ValidateTemporalGraph(const TemporalGraph& graph) {
  constexpr IndexOrder kOrders[] = {IndexOrder::kSpo, IndexOrder::kSop,
                                    IndexOrder::kPos, IndexOrder::kOps};
  for (IndexOrder order : kOrders) {
    const Mvbt& index = graph.index(order);
    Status st = ValidateMvbt(index);
    if (!st.ok()) {
      return Status::Corruption("index " +
                                std::to_string(static_cast<int>(order)) +
                                ": " + st.message());
    }
    if (index.live_size() != graph.live_size()) {
      return Status::Corruption("indices disagree on live triple count");
    }
    if (index.last_time() != graph.index(IndexOrder::kSpo).last_time()) {
      return Status::Corruption("indices disagree on the clock");
    }
  }
  return Status::OK();
}

}  // namespace rdftx::analysis
