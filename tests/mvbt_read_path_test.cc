// Read-path coverage: slot access on compressed leaves (SlotWalk and the
// CloseAt splice), decoded-leaf cache correctness, budget, CLOCK
// eviction and keepalive (including under concurrency, for the TSan
// build), and the region mask every leaf read filters through.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "mvbt/leaf_block.h"
#include "mvbt/mvbt.h"
#include "rdf/temporal_graph.h"
#include "util/rng.h"
#include "util/simd.h"

namespace rdftx::mvbt {
namespace {

// ---------------------------------------------------------------------
// LeafBlock slot access on compressed blocks: a SlotWalk decodes forward
// to its slots, CloseAt splices one entry's bytes (or re-encodes from the
// base).

LeafBlock MakeCompressedBlock(size_t n) {
  LeafBlock b;
  for (size_t i = 0; i < n; ++i) {
    b.Append(Entry{Key3{i, 0, 0}, static_cast<Chronon>(i), kChrononNow});
  }
  b.Compress();
  return b;
}

// Closes slot `i` the way Mvbt::Erase does: through a walk to it.
void CloseSlot(LeafBlock* b, size_t i, Chronon te) {
  LeafBlock::SlotWalk walk(*b);
  b->CloseAt(walk.Seek(i), te);
}

TEST(LeafBlockReadPath, SlotWalkMatchesDecode) {
  LeafBlock b = MakeCompressedBlock(64);
  const std::vector<Entry> all = b.Decode();
  LeafBlock::SlotWalk walk(b);
  LeafBlock::Cursor cur(b);
  Entry e;
  for (size_t i : {size_t{0}, size_t{5}, size_t{6}, size_t{63}}) {
    while (cur.decoded() < i) cur.Next(&e);
    const size_t begin = cur.byte_pos();
    cur.Next(&e);
    const LeafBlock::Slot& slot = walk.Seek(i);
    EXPECT_EQ(slot.index, i);
    EXPECT_EQ(slot.entry, all[i]) << "slot " << i;
    if (i > 0) {
      EXPECT_EQ(slot.prev, all[i - 1]) << "slot " << i;
    }
    EXPECT_EQ(slot.begin, begin) << "slot " << i;
    EXPECT_EQ(slot.end, cur.byte_pos()) << "slot " << i;
  }
}

TEST(LeafBlockReadPath, CloseAtSplicesAndReencodesBase) {
  LeafBlock b = MakeCompressedBlock(64);
  std::vector<Entry> expected = b.Decode();

  // A splice leaves every byte outside slot 5 in place.
  const std::vector<uint8_t> before = b.compressed_bytes();
  LeafBlock::Cursor cur(b);
  Entry e;
  for (int i = 0; i < 5; ++i) cur.Next(&e);
  const auto slot_begin = static_cast<std::ptrdiff_t>(cur.byte_pos());
  cur.Next(&e);
  const auto tail =
      static_cast<std::ptrdiff_t>(before.size() - cur.byte_pos());
  CloseSlot(&b, 5, 100);
  expected[5].end = 100;
  EXPECT_EQ(b.Decode(), expected);
  const std::vector<uint8_t>& after = b.compressed_bytes();
  ASSERT_GT(after.size(), before.size());  // a closed entry stores its te
  EXPECT_TRUE(std::equal(before.begin(), before.begin() + slot_begin,
                         after.begin()));
  EXPECT_TRUE(std::equal(before.end() - tail, before.end(),
                         after.end() - tail));

  // Closing the block base (entry 0) re-encodes the whole block: its end
  // version is the te-delta reference of every later entry.
  CloseSlot(&b, 0, 100);
  expected[0].end = 100;
  EXPECT_EQ(b.Decode(), expected);
}

TEST(LeafBlockReadPath, CloseLastEntryKeepsAppendCheckpoint) {
  LeafBlock b = MakeCompressedBlock(8);
  std::vector<Entry> expected = b.Decode();
  CloseSlot(&b, 7, 50);
  expected[7].end = 50;
  // The append fast path uses the checkpointed last entry as its delta
  // base; a splice of that entry must refresh it.
  b.Append(Entry{Key3{9, 0, 0}, 60, kChrononNow});
  expected.push_back(Entry{Key3{9, 0, 0}, 60, kChrononNow});
  EXPECT_EQ(b.Decode(), expected);
}

TEST(LeafBlockReadPath, SpliceMatchesFullReencode) {
  // Property: closing through the splice path yields the same logical
  // entries as closing while plain and compressing afterwards.
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<Entry> entries;
    Chronon t = 0;
    for (size_t i = 0; i < 32; ++i) {
      t += static_cast<Chronon>(rng.Uniform(3));
      entries.push_back(Entry{
          Key3{rng.Uniform(4), rng.Uniform(4), i}, t, kChrononNow});
    }
    LeafBlock spliced;
    LeafBlock reference;
    for (const Entry& e : entries) {
      spliced.Append(e);
      reference.Append(e);
    }
    spliced.Compress();
    const size_t at = rng.Uniform(entries.size());
    const Chronon te = t + 10;
    CloseSlot(&spliced, at, te);
    CloseSlot(&reference, at, te);
    reference.Compress();
    EXPECT_EQ(spliced.Decode(), reference.Decode()) << "round " << round;
    EXPECT_EQ(spliced.compressed_bytes(), reference.compressed_bytes())
        << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Tree-level properties. Churn mirrors the invariant tests: a small key
// universe over a small block capacity yields a multi-root forest with
// many dead compressed leaves.

void Churn(Mvbt* a, Mvbt* b, uint64_t seed, int ops = 4000) {
  Rng rng(seed);
  std::vector<Key3> live;
  Chronon t = 1;
  for (int i = 0; i < ops; ++i) {
    t += static_cast<Chronon>(rng.Uniform(2));
    Key3 k{rng.Uniform(6), rng.Uniform(6), rng.Uniform(20)};
    if (rng.Bernoulli(0.6)) {
      if (a->Insert(k, t).ok()) live.push_back(k);
      // status-ignored: b mirrors a; a's status already decided validity.
      if (b != nullptr) b->Insert(k, t).IgnoreError();
    } else if (!live.empty()) {
      size_t at = rng.Uniform(live.size());
      const Key3 victim = live[at];
      if (a->Erase(victim, t).ok()) {
        live[at] = live.back();
        live.pop_back();
      }
      // status-ignored: b mirrors a; a's status already decided validity.
      if (b != nullptr) b->Erase(victim, t).IgnoreError();
    }
  }
  a->CompressAllLeaves();
  if (b != nullptr) b->CompressAllLeaves();
}

using Fragment = std::tuple<Key3, Chronon, Chronon>;

std::vector<Fragment> RangeFragments(const Mvbt& tree, const KeyRange& range,
                                     const Interval& time, ScanStats* stats) {
  std::vector<Fragment> out;
  tree.QueryRange(
      range, time,
      [&](const Key3& k, const Interval& iv) {
        out.emplace_back(k, iv.start, iv.end);
      },
      stats);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MvbtReadPath, DecodedLeafCacheIsTransparent) {
  Mvbt cached(MvbtOptions{.block_capacity = 8,
                          .compress_leaves = true,
                          .leaf_cache_bytes = 1u << 20});
  Mvbt uncached(MvbtOptions{.block_capacity = 8, .compress_leaves = true});
  Churn(&cached, &uncached, 29);

  const KeyRange all{kKeyMin, kKeyMax};
  const Interval window(0, cached.last_time() + 1);
  // Two passes: the first warms the cache, the second must be served
  // from it — identically. Live border leaves are compressed but cannot
  // be cached (they still mutate), so the warm pass decodes only those.
  uint64_t cold_decoded = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ScanStats stats;
    EXPECT_EQ(RangeFragments(cached, all, window, &stats),
              RangeFragments(uncached, all, window, nullptr))
        << "pass " << pass;
    if (pass == 0) {
      EXPECT_GT(stats.cache_misses, 0u);
      cold_decoded = stats.entries_decoded;
    } else {
      EXPECT_GT(stats.cache_hits, 0u);
      EXPECT_EQ(stats.cache_misses, 0u);
      EXPECT_LT(stats.entries_decoded, cold_decoded)
          << "warm pass re-decoded cached leaves";
    }
  }
  EXPECT_GT(cached.leaf_cache_bytes_held(), 0u);
}

TEST(MvbtReadPath, CacheBudgetIsEnforced) {
  // A budget far below the working set forces evictions; correctness
  // must hold regardless.
  Mvbt cached(MvbtOptions{.block_capacity = 8,
                          .compress_leaves = true,
                          .leaf_cache_bytes = 2048});
  Mvbt uncached(MvbtOptions{.block_capacity = 8, .compress_leaves = true});
  Churn(&cached, &uncached, 31);

  const KeyRange all{kKeyMin, kKeyMax};
  const Interval window(0, cached.last_time() + 1);
  uint64_t evictions = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ScanStats stats;
    ASSERT_EQ(RangeFragments(cached, all, window, &stats),
              RangeFragments(uncached, all, window, nullptr));
    evictions += stats.cache_evictions;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(cached.leaf_cache_bytes_held(), 2048u);
}

TEST(MvbtReadPath, ConcurrentCachedScansAreRaceFree) {
  // Many threads hammer the same tree through the decoded-leaf cache;
  // every pass must see the same fragments. The TSan preset runs this
  // test to certify the cache's synchronization. The budget is kept far
  // below the scan's working set on purpose: every pass cycles the
  // CLOCK ring, so eviction churn runs concurrently with lookups. (That
  // also means a hit happens only when two threads reach the same leaf
  // close together — hits may legitimately be zero under some
  // schedules, so the assertions below check exact accounting, not a
  // hit rate.)
  Mvbt tree(MvbtOptions{.block_capacity = 8,
                        .compress_leaves = true,
                        .leaf_cache_bytes = 64u << 10});
  Churn(&tree, nullptr, 37, 2500);

  const KeyRange all{kKeyMin, kKeyMax};
  const Interval window(0, tree.last_time() + 1);
  ScanStats want_stats;
  const std::vector<Fragment> want =
      RangeFragments(tree, all, window, &want_stats);
  ASSERT_FALSE(want.empty());

  constexpr int kThreads = 8;
  constexpr int kPasses = 6;
  // Every pass reads the same dead compressed leaves, so each one looks
  // up the cache exactly as often as the single-thread pass, however the
  // lookups split into hits and misses.
  const uint64_t want_lookups = want_stats.cache_hits + want_stats.cache_misses;
  ASSERT_GT(want_lookups, 0u);
  std::vector<std::string> failures(kThreads);
  std::vector<uint64_t> evictions(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int pass = 0; pass < kPasses; ++pass) {
        ScanStats stats;
        if (RangeFragments(tree, all, window, &stats) != want) {
          failures[i] = "fragment mismatch";
          return;
        }
        if (stats.cache_hits + stats.cache_misses != want_lookups) {
          failures[i] = "lookup count mismatch";
          return;
        }
        evictions[i] += stats.cache_evictions;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "thread " << i << ": " << failures[i];
  }
  uint64_t total_evictions = want_stats.cache_evictions;
  for (uint64_t n : evictions) total_evictions += n;
  EXPECT_GT(total_evictions, 0u);  // the budget really was under pressure
  EXPECT_LE(tree.leaf_cache_bytes_held(), uint64_t{64u << 10});
}

// CLOCK eviction and keepalive, on three dead compressed leaves whose
// images are charged the same bytes.

constexpr uint64_t kClockSeed = 41;

std::unique_ptr<Mvbt> ClockTree(size_t cache_bytes) {
  auto tree = std::make_unique<Mvbt>(MvbtOptions{
      .block_capacity = 8, .compress_leaves = true,
      .leaf_cache_bytes = cache_bytes});
  Churn(tree.get(), nullptr, kClockSeed);
  return tree;
}

/// Reads node `id` of `tree` through the cache; returns the stats, and
/// the image's pin in `*keepalive` when non-null.
ScanStats ReadLeaf(
    const Mvbt& tree, size_t id,
    std::shared_ptr<const ColumnarEntries>* keepalive = nullptr) {
  ColumnarEntries scratch;
  std::shared_ptr<const ColumnarEntries> pin;
  ScanStats stats;
  tree.LeafColumns(*tree.node_at(id), &scratch, keepalive ? keepalive : &pin,
                   &stats);
  return stats;
}

/// Three dead compressed leaves of ClockTree with one entry count, hence
/// equal column capacities and equal image bytes, and those bytes.
struct ClockLeaves {
  size_t a = 0, b = 0, c = 0;
  size_t image_bytes = 0;
};

ClockLeaves FindClockLeaves() {
  const std::unique_ptr<Mvbt> probe = ClockTree(1u << 20);
  std::map<size_t, std::vector<size_t>> by_count;
  for (size_t id = 0; id < probe->node_count(); ++id) {
    const Mvbt::Node& n = *probe->node_at(id);
    if (n.is_leaf && !n.alive() && n.block.compressed()) {
      by_count[n.block.count()].push_back(id);
    }
  }
  for (const auto& [count, ids] : by_count) {
    if (ids.size() < 3) continue;
    ReadLeaf(*probe, ids[0]);
    return ClockLeaves{ids[0], ids[1], ids[2], probe->leaf_cache_bytes_held()};
  }
  return ClockLeaves{};
}

TEST(MvbtReadPath, ClockEvictedImageStaysValidWhileHeld) {
  const ClockLeaves leaves = FindClockLeaves();
  ASSERT_GT(leaves.image_bytes, 0u);
  const std::unique_ptr<Mvbt> tree = ClockTree(leaves.image_bytes);
  std::shared_ptr<const ColumnarEntries> held_a;
  ScanStats stats = ReadLeaf(*tree, leaves.a, &held_a);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);

  // A miss on B evicts A, whose image the pin keeps alive and intact.
  stats = ReadLeaf(*tree, leaves.b);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(tree->leaf_cache_bytes_held(), leaves.image_bytes);
  ColumnarEntries fresh;
  tree->node_at(leaves.a)->block.DecodeColumnar(&fresh);
  EXPECT_TRUE(std::tie(held_a->a, held_a->b, held_a->c, held_a->start,
                       held_a->end) ==
              std::tie(fresh.a, fresh.b, fresh.c, fresh.start, fresh.end));

  // A is no longer cached: its next read misses and evicts B in turn.
  stats = ReadLeaf(*tree, leaves.a);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
}

TEST(MvbtReadPath, ClockSparesLeafHitSinceLastSweep) {
  const ClockLeaves leaves = FindClockLeaves();
  ASSERT_GT(leaves.image_bytes, 0u);
  // Without a hit, the sweep evicts the oldest image, A.
  std::unique_ptr<Mvbt> tree = ClockTree(2 * leaves.image_bytes);
  ReadLeaf(*tree, leaves.a);
  ReadLeaf(*tree, leaves.b);
  EXPECT_EQ(ReadLeaf(*tree, leaves.c).cache_evictions, 1u);
  EXPECT_EQ(ReadLeaf(*tree, leaves.a).cache_misses, 1u);

  // A hit on A since the last sweep spares it; B goes instead.
  tree = ClockTree(2 * leaves.image_bytes);
  ReadLeaf(*tree, leaves.a);
  ReadLeaf(*tree, leaves.b);
  EXPECT_EQ(ReadLeaf(*tree, leaves.a).cache_hits, 1u);
  EXPECT_EQ(ReadLeaf(*tree, leaves.c).cache_evictions, 1u);
  EXPECT_EQ(ReadLeaf(*tree, leaves.a).cache_hits, 1u);
  EXPECT_EQ(ReadLeaf(*tree, leaves.b).cache_misses, 1u);
  EXPECT_LE(tree->leaf_cache_bytes_held(), 2 * leaves.image_bytes);
}

// ---------------------------------------------------------------------
// RegionMask, the region filter of every leaf read, against the scalar
// definition on random columns.

TEST(MvbtReadPath, RegionMaskMatchesContainsAndOverlaps) {
  Rng rng(17);
  // Components from a small domain plus its two extremes, so ranges hit
  // keys on their bounds.
  auto component = [&]() -> uint64_t {
    switch (rng.Uniform(6)) {
      case 0:
        return 0;
      case 1:
        return UINT64_MAX;
      default:
        return 1 + rng.Uniform(4);
    }
  };
  auto key = [&]() { return Key3{component(), component(), component()}; };
  constexpr uint64_t kMax = UINT64_MAX;
  std::vector<KeyRange> ranges = {
      KeyRange{},                                    // full
      KeyRange{Key3{2, 0, 0}, Key3{2, kMax, kMax}},  // prefix
      KeyRange{Key3{2, 3, 0}, Key3{2, 3, kMax}},     // two-part prefix
      KeyRange{Key3{2, 3, 4}, Key3{2, 3, 4}},        // one key
      KeyRange{Key3{1, 3, 0}, Key3{3, 3, kMax}},     // a varies, b bounds equal
      KeyRange{Key3{2, 1, 3}, Key3{2, 4, 2}},        // prefix, then a span
      KeyRange{Key3{3, 0, 0}, Key3{1, 0, 0}},        // inverted
  };
  for (int i = 0; i < 40; ++i) {
    Key3 x = key(), y = key();
    if (y < x) std::swap(x, y);
    ranges.push_back(KeyRange{x, y});
  }
  const std::vector<Interval> times = {
      Interval::All(),       Interval(5, 6),   Interval(3, 9),
      Interval(7, 7),        Interval(0, 1),
      Interval(kChrononMax, kChrononNow),
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{130}}) {
    ColumnarEntries cols;
    for (size_t i = 0; i < n; ++i) {
      const Chronon s = static_cast<Chronon>(rng.Uniform(10));
      // One entry in four is empty, [s, s): it overlaps nothing.
      const Chronon e = rng.Uniform(4) == 0   ? s
                        : rng.Uniform(3) == 0 ? kChrononNow
                                              : s + 1 + static_cast<Chronon>(
                                                            rng.Uniform(6));
      cols.PushBack(Entry{key(), s, e});
    }
    std::vector<uint64_t> mask;
    for (const KeyRange& range : ranges) {
      for (const Interval& time : times) {
        RegionMask(cols, range, time, &mask);
        ASSERT_EQ(mask.size(), simd::MaskWords(n));
        for (size_t i = 0; i < n; ++i) {
          const Entry e = cols.At(i);
          const bool want =
              range.Contains(e.key) && e.interval().Overlaps(time);
          const bool got = (mask[i / 64] >> (i % 64)) & 1;
          ASSERT_EQ(got, want)
              << "n=" << n << " entry " << e.key.ToString() << " ["
              << e.start << "," << e.end << ") range "
              << range.lo.ToString() << ".." << range.hi.ToString()
              << " time [" << time.start << "," << time.end << ")";
        }
        if (n % 64 != 0) {
          EXPECT_EQ(mask.back() >> (n % 64), 0u) << "tail bits set";
        }
      }
    }
  }
}

// A snapshot filters with the interval [t, t + 1), which must not wrap
// at the end of the domain.
TEST(MvbtReadPath, SnapshotAtTheEndOfTheDomain) {
  Mvbt tree(MvbtOptions{.block_capacity = 8});
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(Key3{i, 0, 0}, 5).ok());
  }
  ASSERT_TRUE(tree.Erase(Key3{3, 0, 0}, kChrononMax).ok());
  ASSERT_TRUE(tree.Insert(Key3{99, 0, 0}, kChrononMax).ok());
  auto snapshot = [&](Chronon t) {
    std::vector<Key3> keys;
    tree.QuerySnapshot(KeyRange{}, t,
                       [&](const Key3& k) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  std::vector<Key3> before, at_max;
  for (uint64_t i = 0; i < 20; ++i) before.push_back(Key3{i, 0, 0});
  at_max = before;
  at_max.erase(at_max.begin() + 3);
  at_max.push_back(Key3{99, 0, 0});
  EXPECT_EQ(snapshot(kChrononMax - 1), before);
  EXPECT_EQ(snapshot(kChrononMax), at_max);
  EXPECT_TRUE(snapshot(kChrononNow).empty());
}

}  // namespace
}  // namespace rdftx::mvbt

// ---------------------------------------------------------------------
// The read-path counters must surface through the engine's ResultSet.

namespace rdftx::engine {
namespace {

TEST(ReadPathStats, SurfaceThroughResultSet) {
  Dictionary dict;
  const TermId s = dict.Intern("Alpha");
  const TermId p = dict.Intern("knows");
  const TermId o = dict.Intern("Beta");
  TemporalGraph graph;
  ASSERT_TRUE(
      graph.Load({TemporalTriple{{s, p, o}, Interval(10, 20)}}).ok());
  graph.CompressAll();

  QueryEngine engine(&graph, &dict, EngineOptions{.now = 30});
  auto r = engine.Execute("SELECT ?o { Alpha knows ?o }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GT(r->stats.scan.leaves_visited, 0u);
}

}  // namespace
}  // namespace rdftx::engine
