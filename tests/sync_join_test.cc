#include "mvbt/sync_join.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "temporal/temporal_set.h"
#include "util/rng.h"

namespace rdftx::mvbt {
namespace {

// The canonical use: join two scans on the first key component
// (e.g. the shared subject), with overlapping validity.
constexpr SyncJoinSpec kOnFirstComponent{0, 0};

struct Record {
  Key3 key;
  Interval iv;
};

// Brute-force reference join over raw record lists.
using JoinedPoints = std::map<std::tuple<Key3, Key3>, TemporalSet>;

JoinedPoints ReferenceJoin(const std::vector<Record>& ra_records,
                           const KeyRange& ra, const Interval& ta,
                           const std::vector<Record>& rb_records,
                           const KeyRange& rb, const Interval& tb) {
  JoinedPoints out;
  for (const Record& x : ra_records) {
    if (!ra.Contains(x.key) || !x.iv.Overlaps(ta)) continue;
    for (const Record& y : rb_records) {
      if (!rb.Contains(y.key) || !y.iv.Overlaps(tb)) continue;
      if (x.key.a != y.key.a) continue;
      Interval iv =
          x.iv.Intersect(y.iv).Intersect(ta.Intersect(tb));
      if (iv.empty()) continue;
      out[{x.key, y.key}].Add(iv);
    }
  }
  return out;
}

// A query key range over keys with components a < 5, b < 3, c < 10:
// the whole domain, an `a` prefix (the shape of a pattern range), a
// range whose `a` varies while lo.b == hi.b (so `b` is not fixed inside
// it), or any lo <= hi.
KeyRange RandomRange(Rng* rng) {
  KeyRange r{};
  switch (rng->Uniform(4)) {
    case 0:
      break;
    case 1:
      r.lo = Key3{rng->Uniform(5), 0, 0};
      r.hi = Key3{r.lo.a, UINT64_MAX, UINT64_MAX};
      break;
    case 2: {
      const uint64_t b = rng->Uniform(3);
      r.lo = Key3{rng->Uniform(3), b, 0};
      r.hi = Key3{r.lo.a + 1 + rng->Uniform(2), b, UINT64_MAX};
      break;
    }
    default: {
      Key3 x{rng->Uniform(5), rng->Uniform(3), rng->Uniform(10)};
      Key3 y{rng->Uniform(5), rng->Uniform(3), rng->Uniform(10)};
      if (y < x) std::swap(x, y);
      r = KeyRange{x, y};
      break;
    }
  }
  return r;
}

class SyncJoinPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(SyncJoinPropertyTest, MatchesBruteForce) {
  auto [seed, compress] = GetParam();
  Rng rng(seed);
  MvbtOptions opts{.block_capacity = 8, .compress_leaves = compress};
  Mvbt tree_a(opts), tree_b(opts);
  std::vector<Record> recs_a, recs_b;
  std::map<Key3, Chronon> live_a, live_b;

  Chronon t = 1;
  for (int op = 0; op < 1500; ++op) {
    t += static_cast<Chronon>(rng.Uniform(3));
    bool use_a = rng.Bernoulli(0.5);
    Mvbt& tree = use_a ? tree_a : tree_b;
    auto& live = use_a ? live_a : live_b;
    auto& recs = use_a ? recs_a : recs_b;
    Key3 k{rng.Uniform(5), rng.Uniform(3), rng.Uniform(10)};
    if (rng.Bernoulli(0.6)) {
      if (!live.contains(k)) {
        ASSERT_TRUE(tree.Insert(k, t).ok());
        live[k] = t;
      }
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      ASSERT_TRUE(tree.Erase(it->first, t).ok());
      recs.push_back({it->first, Interval(it->second, t)});
      live.erase(it);
    }
  }
  for (const auto& [k, ts] : live_a) {
    recs_a.push_back({k, Interval(ts, kChrononNow)});
  }
  for (const auto& [k, ts] : live_b) {
    recs_b.push_back({k, Interval(ts, kChrononNow)});
  }

  for (int q = 0; q < 30; ++q) {
    const KeyRange ra = RandomRange(&rng);
    const KeyRange rb = RandomRange(&rng);
    Chronon t1 = static_cast<Chronon>(rng.Uniform(t));
    Interval ta = rng.Bernoulli(0.4)
                      ? Interval::All()
                      : Interval(t1, t1 + 1 + rng.Uniform(t));
    Chronon t2 = static_cast<Chronon>(rng.Uniform(t));
    Interval tb = rng.Bernoulli(0.4)
                      ? Interval::All()
                      : Interval(t2, t2 + 1 + rng.Uniform(t));

    JoinedPoints got;
    SyncJoinStats stats;
    SynchronizedJoin(tree_a, ra, ta, tree_b, rb, tb, kOnFirstComponent,
                     [&](const Entry& x, const Entry& y, const Interval& iv) {
                       EXPECT_EQ(x.key.a, y.key.a);
                       got[{x.key, y.key}].Add(iv);
                     },
                     &stats);
    JoinedPoints want =
        ReferenceJoin(recs_a, ra, ta, recs_b, rb, tb);
    ASSERT_EQ(got, want) << "q=" << q;
    if (!want.empty()) {
      EXPECT_GT(stats.node_pairs, 0u);
      EXPECT_GT(stats.output_rows, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SyncJoinPropertyTest,
    ::testing::Combine(::testing::Values(21, 42, 63, 84),
                       ::testing::Bool()));

// Both trees hold (2,9,0), inside a range whose lo and hi share b = 7
// but differ on the leading component a, so b is not fixed inside it.
TEST(SyncJoinTest, NonPrefixRangeKeepsInRangeKeys) {
  Mvbt a, b;
  ASSERT_TRUE(a.Insert({2, 9, 0}, 10).ok());
  ASSERT_TRUE(b.Insert({2, 9, 0}, 10).ok());
  const KeyRange range{Key3{1, 7, 0}, Key3{3, 7, UINT64_MAX}};
  int scanned = 0;
  a.QueryRange(range, Interval::All(),
               [&](const Key3&, const Interval&) { ++scanned; });
  EXPECT_EQ(scanned, 1);
  int joined = 0;
  SynchronizedJoin(a, range, Interval::All(), b, range, Interval::All(),
                   kOnFirstComponent,
                   [&](const Entry&, const Entry&, const Interval&) {
                     ++joined;
                   });
  EXPECT_EQ(joined, 1);
}

TEST(SyncJoinTest, EmptyRegions) {
  Mvbt a, b;
  ASSERT_TRUE(a.Insert({1, 1, 1}, 10).ok());
  ASSERT_TRUE(b.Insert({1, 2, 2}, 50).ok());
  ASSERT_TRUE(a.Erase({1, 1, 1}, 20).ok());
  int count = 0;
  // Disjoint time ranges: a's record ends before b's starts.
  SynchronizedJoin(a, KeyRange{}, Interval(0, 20), b, KeyRange{},
                   Interval(50, kChrononNow), kOnFirstComponent,
                   [&](const Entry&, const Entry&, const Interval&) {
                     ++count;
                   });
  EXPECT_EQ(count, 0);
}

TEST(SyncJoinTest, CacheReusesDecodedNodes) {
  MvbtOptions opts{.block_capacity = 8, .compress_leaves = true};
  Mvbt a(opts), b(opts);
  Chronon t = 1;
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(a.Insert({i % 7, 0, i}, t).ok());
    ASSERT_TRUE(b.Insert({i % 7, 1, i}, t).ok());
    t += 1;
  }
  SyncJoinStats stats;
  SynchronizedJoin(a, KeyRange{}, Interval::All(), b, KeyRange{},
                   Interval::All(), kOnFirstComponent,
                   [](const Entry&, const Entry&, const Interval&) {}, &stats);
  EXPECT_GT(stats.node_pairs, stats.cache_misses)
      << "nodes in many pairs should hit the cache";
  EXPECT_GT(stats.cache_hits, 0u);
  // Every pair looks up both of its leaves, and each leaf is decoded at
  // most once per call: the misses cannot exceed the region leaves.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2 * stats.node_pairs);
  std::vector<const Mvbt::Node*> leaves_a, leaves_b;
  a.CollectRegionLeaves(KeyRange{}, Interval::All(), &leaves_a);
  b.CollectRegionLeaves(KeyRange{}, Interval::All(), &leaves_b);
  EXPECT_LE(stats.cache_misses, leaves_a.size() + leaves_b.size());
}

}  // namespace
}  // namespace rdftx::mvbt
