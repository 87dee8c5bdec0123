#include "mvbt/leaf_block.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace rdftx::mvbt {
namespace {

std::vector<Entry> MakeEntries() {
  return {
      {{10, 20, 30}, 100, 200},
      {{10, 20, 31}, 100, kChrononNow},
      {{10, 21, 5}, 105, 400},
      {{11, 0, 0}, 110, kChrononNow},
      {{11, 0, 7}, 115, 116},
  };
}

TEST(LeafBlockTest, PlainAppendVisit) {
  LeafBlock block;
  for (const Entry& e : MakeEntries()) block.Append(e);
  EXPECT_EQ(block.count(), 5u);
  EXPECT_FALSE(block.compressed());
  EXPECT_EQ(block.Decode(), MakeEntries());
}

TEST(LeafBlockTest, CompressRoundTrip) {
  LeafBlock block;
  for (const Entry& e : MakeEntries()) block.Append(e);
  block.Compress();
  EXPECT_TRUE(block.compressed());
  EXPECT_EQ(block.Decode(), MakeEntries());
  block.Decompress();
  EXPECT_FALSE(block.compressed());
  EXPECT_EQ(block.Decode(), MakeEntries());
}

TEST(LeafBlockTest, AppendAfterCompress) {
  LeafBlock block;
  auto entries = MakeEntries();
  for (const Entry& e : entries) block.Append(e);
  block.Compress();
  Entry extra{{12, 1, 2}, 120, kChrononNow};
  block.Append(extra);
  entries.push_back(extra);
  EXPECT_EQ(block.Decode(), entries);
}

TEST(LeafBlockTest, CloseAtPlainAndCompressed) {
  for (bool compress : {false, true}) {
    LeafBlock block;
    for (const Entry& e : MakeEntries()) block.Append(e);
    if (compress) block.Compress();
    block.CloseAt(1, 300);
    block.CloseAt(3, 310);
    std::vector<Entry> expected = MakeEntries();
    expected[1].end = 300;
    expected[3].end = 310;
    EXPECT_EQ(block.Decode(), expected) << "compressed=" << compress;
  }
}

TEST(LeafBlockTest, EntryAtPlainAndCompressed) {
  for (bool compress : {false, true}) {
    LeafBlock block;
    for (const Entry& e : MakeEntries()) block.Append(e);
    if (compress) block.Compress();
    const std::vector<Entry> entries = MakeEntries();
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(block.EntryAt(i), entries[i])
          << "slot " << i << " compressed=" << compress;
    }
  }
}

TEST(LeafBlockTest, CapLiveEntries) {
  for (bool compress : {false, true}) {
    LeafBlock block;
    for (const Entry& e : MakeEntries()) block.Append(e);
    if (compress) block.Compress();
    std::vector<Key3> keys;
    block.CapLiveEntries(500, &keys);
    EXPECT_EQ(keys.size(), 2u);
    for (const Entry& e : block.Decode()) {
      EXPECT_FALSE(e.live());
    }
  }
}

TEST(LeafBlockTest, PurgeEmptyEntries) {
  for (bool compress : {false, true}) {
    LeafBlock block;
    block.Append({{1, 2, 3}, 100, 100});  // empty
    block.Append({{1, 2, 4}, 100, kChrononNow});
    block.Append({{1, 2, 5}, 100, 100});  // empty
    if (compress) block.Compress();
    block.PurgeEmptyEntries();
    EXPECT_EQ(block.count(), 1u);
    EXPECT_EQ(block.Decode()[0].key, (Key3{1, 2, 4}));
  }
}

TEST(LeafBlockTest, CompressionShrinksClusteredData) {
  // RDF-like data: shared prefixes, close timestamps, many live entries.
  LeafBlock block;
  for (uint64_t i = 0; i < 64; ++i) {
    block.Append(Entry{{1000000, 2000000 + i / 8, 3000000 + i},
                       static_cast<Chronon>(50000 + i),
                       (i % 3 == 0) ? static_cast<Chronon>(50100 + i)
                                    : kChrononNow});
  }
  size_t plain = block.MemoryUsage();
  CompressionStats stats;
  block.Compress(&stats);
  size_t packed = block.MemoryUsage();
  EXPECT_LT(packed, plain / 3) << "plain=" << plain << " packed=" << packed;
  EXPECT_GT(stats.compact_headers, 0u);
  EXPECT_GT(stats.te_live, 0u);
}

TEST(LeafBlockTest, CompactHeaderUsedForSharedPrefixLiveEntries) {
  LeafBlock block;
  block.Append({{7, 1, 1}, 10, kChrononNow});
  block.Append({{7, 1, 2}, 11, kChrononNow});  // same v1, live -> compact
  block.Append({{8, 1, 3}, 12, kChrononNow});  // different v1 -> normal
  CompressionStats stats;
  block.Compress(&stats);
  EXPECT_EQ(stats.compact_headers, 1u);
  EXPECT_EQ(stats.normal_headers, 2u);
}

class LeafBlockPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeafBlockPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    LeafBlock block;
    std::vector<Entry> expect;
    Chronon t = static_cast<Chronon>(rng.Uniform(100000));
    int n = 1 + static_cast<int>(rng.Uniform(64));
    for (int i = 0; i < n; ++i) {
      Entry e;
      // Mix of clustered and wild keys to stress every header path.
      if (rng.Bernoulli(0.7) && !expect.empty()) {
        e.key = expect.back().key;
        e.key.c += rng.Uniform(100);
        if (rng.Bernoulli(0.3)) e.key.b += rng.Uniform(10);
      } else {
        e.key = {rng.Next(), rng.Next(), rng.Next()};
      }
      t += static_cast<Chronon>(rng.Uniform(50));
      e.start = t;
      switch (rng.Uniform(3)) {
        case 0:
          e.end = kChrononNow;  // live
          break;
        case 1:
          e.end = e.start + static_cast<Chronon>(rng.Uniform(100));  // short
          break;
        default:
          e.end = e.start + static_cast<Chronon>(rng.Uniform(1000000));
      }
      block.Append(e);
      expect.push_back(e);
    }
    block.Compress();
    EXPECT_EQ(block.Decode(), expect) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafBlockPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace rdftx::mvbt
