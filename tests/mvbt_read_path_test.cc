// Read-path coverage: slot access on compressed leaves (SlotWalk and the
// CloseAt splice), and decoded-leaf cache correctness + counters
// (including under concurrency, for the TSan build).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/executor.h"
#include "mvbt/leaf_block.h"
#include "mvbt/mvbt.h"
#include "rdf/temporal_graph.h"
#include "util/rng.h"

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
  tree.QueryRangeT(
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
  const util::CacheCounters counters = cached.leaf_cache_counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.misses, 0u);
  EXPECT_GT(counters.bytes, 0u);
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
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_EQ(RangeFragments(cached, all, window, nullptr),
              RangeFragments(uncached, all, window, nullptr));
  }
  const util::CacheCounters counters = cached.leaf_cache_counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.bytes, 2048u);
}

TEST(MvbtReadPath, ConcurrentCachedScansAreRaceFree) {
  // Many threads hammer the same tree through the decoded-leaf cache;
  // every pass must see the same fragments. The TSan preset runs this
  // test to certify the cache's synchronization. The budget is kept far
  // below the scan's working set on purpose: every pass cycles the LRU,
  // so eviction churn runs concurrently with lookups. (That also means
  // a hit happens only when two threads reach the same leaf close
  // together — hits may legitimately be zero under some schedules, so
  // the assertions below check exact accounting, not a hit rate.)
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
  std::vector<std::string> failures(kThreads);
  std::vector<uint64_t> lookups(kThreads, 0);
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
        lookups[i] += stats.cache_hits + stats.cache_misses;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "thread " << i << ": " << failures[i];
  }
  // The shared counters must account for every lookup the per-query
  // ScanStats observed — nothing lost to racy increments.
  uint64_t total_lookups = want_stats.cache_hits + want_stats.cache_misses;
  for (uint64_t n : lookups) total_lookups += n;
  const util::CacheCounters counters = tree.leaf_cache_counters();
  EXPECT_EQ(counters.hits + counters.misses, total_lookups);
  EXPECT_GT(counters.misses, 0u);
  EXPECT_GT(counters.evictions, 0u);  // the budget really was under pressure
  EXPECT_LE(counters.bytes, uint64_t{64u << 10});
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
