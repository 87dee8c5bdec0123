#include "temporal/temporal_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace rdftx {
namespace {

TEST(IntervalTest, Basics) {
  Interval iv(10, 20);
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.Length(), 10u);
  EXPECT_TRUE(iv.Contains(10));
  EXPECT_TRUE(iv.Contains(19));
  EXPECT_FALSE(iv.Contains(20));
  EXPECT_TRUE(Interval().empty());
  EXPECT_TRUE(Interval(5, 5).empty());
}

TEST(IntervalTest, OverlapAndMeet) {
  Interval a(0, 10), b(10, 20), c(5, 15);
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_TRUE(a.Meets(b));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(b.Overlaps(c));
  EXPECT_EQ(a.Intersect(c), Interval(5, 10));
  EXPECT_TRUE(a.Intersect(b).empty());
}

TEST(IntervalTest, LiveIntervalLength) {
  Interval live(100, kChrononNow);
  EXPECT_EQ(live.Length(150), 50u);
}

TEST(IntervalTest, DisplayFormatInclusive) {
  // [2013-07-01, 2014-07-01) displays as the paper's inclusive
  // [2013-07-01 ... 2014-06-30].
  Interval iv(ChrononFromYmd(2013, 7, 1), ChrononFromYmd(2014, 7, 1));
  EXPECT_EQ(iv.ToString(), "[2013-07-01 ... 2014-06-30]");
  Interval live(ChrononFromYmd(2013, 9, 30), kChrononNow);
  EXPECT_EQ(live.ToString(), "[2013-09-30 ... now]");
}

TEST(TemporalSetTest, CoalescesAdjacentRuns) {
  // Point-based semantics: [1,5) and [5,9) are one run of points.
  auto ts = TemporalSet::FromIntervals({{1, 5}, {5, 9}});
  ASSERT_EQ(ts.runs().size(), 1u);
  EXPECT_EQ(ts.runs()[0], Interval(1, 9));
}

TEST(TemporalSetTest, CoalescesOverlap) {
  auto ts = TemporalSet::FromIntervals({{1, 6}, {4, 9}, {20, 30}});
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[0], Interval(1, 9));
  EXPECT_EQ(ts.runs()[1], Interval(20, 30));
}

TEST(TemporalSetTest, KeepsGaps) {
  auto ts = TemporalSet::FromIntervals({{1, 5}, {6, 9}});
  EXPECT_EQ(ts.runs().size(), 2u);
}

TEST(TemporalSetTest, AddMaintainsNormalization) {
  TemporalSet ts;
  ts.Add({10, 20});
  ts.Add({30, 40});
  ts.Add({20, 30});  // bridges the gap
  ASSERT_EQ(ts.runs().size(), 1u);
  EXPECT_EQ(ts.runs()[0], Interval(10, 40));
  ts.Add({0, 5});  // general-path insert before front
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[0], Interval(0, 5));
}

TEST(TemporalSetTest, AddMergesAdjacentHalfOpenRunAtBack) {
  // [10,20) + [20,30): adjacent half-open runs are one run of points.
  // Exercises the back-merge path (start == back.end, not > back.end).
  TemporalSet ts;
  ts.Add({10, 20});
  ts.Add({20, 30});
  ASSERT_EQ(ts.runs().size(), 1u);
  EXPECT_EQ(ts.runs()[0], Interval(10, 30));
}

TEST(TemporalSetTest, AddBackMergeSwallowsSuffixOfRuns) {
  // A run overlapping the last several runs collapses them all.
  TemporalSet ts;
  ts.Add({0, 5});
  ts.Add({10, 15});
  ts.Add({20, 25});
  ts.Add({30, 35});
  ts.Add({12, 40});  // swallows {10,15},{20,25},{30,35}
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[0], Interval(0, 5));
  EXPECT_EQ(ts.runs()[1], Interval(10, 40));
}

TEST(TemporalSetTest, AddMidSetInsertTakesRebuildPath) {
  // An interval strictly inside the span that doesn't reach the back
  // run's end falls through to the rebuild path and must stay sorted,
  // disjoint, and coalesced.
  TemporalSet ts;
  ts.Add({0, 5});
  ts.Add({20, 25});
  ts.Add({40, 45});
  ts.Add({8, 12});  // between runs, no merge
  ASSERT_EQ(ts.runs().size(), 4u);
  EXPECT_EQ(ts.runs()[1], Interval(8, 12));
  ts.Add({11, 21});  // bridges {8,12} and {20,25} mid-set
  ASSERT_EQ(ts.runs().size(), 3u);
  EXPECT_EQ(ts.runs()[0], Interval(0, 5));
  EXPECT_EQ(ts.runs()[1], Interval(8, 25));
  EXPECT_EQ(ts.runs()[2], Interval(40, 45));
}

TEST(TemporalSetTest, AddAdjacentMidSetCoalesces) {
  // Half-open adjacency in the middle of the set (rebuild path).
  TemporalSet ts;
  ts.Add({0, 5});
  ts.Add({10, 15});
  ts.Add({30, 35});
  ts.Add({5, 10});  // meets both neighbours exactly
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[0], Interval(0, 15));
  EXPECT_EQ(ts.runs()[1], Interval(30, 35));
}

TEST(TemporalSetTest, AddContainedIntervalIsNoOp) {
  TemporalSet ts;
  ts.Add({0, 10});
  ts.Add({20, 30});
  ts.Add({3, 7});  // already covered, rebuild path
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[0], Interval(0, 10));
  EXPECT_EQ(ts.runs()[1], Interval(20, 30));
  ts.Add({25, 30});  // suffix of back run, back-merge path
  ASSERT_EQ(ts.runs().size(), 2u);
  EXPECT_EQ(ts.runs()[1], Interval(20, 30));
}

TEST(TemporalSetTest, AddEmptyIntervalIgnored) {
  TemporalSet ts;
  ts.Add({5, 5});
  EXPECT_TRUE(ts.empty());
  ts.Add({10, 20});
  ts.Add({15, 15});
  ASSERT_EQ(ts.runs().size(), 1u);
  EXPECT_EQ(ts.runs()[0], Interval(10, 20));
}

TEST(TemporalSetTest, Intersect) {
  auto a = TemporalSet::FromIntervals({{0, 10}, {20, 30}});
  auto b = TemporalSet::FromIntervals({{5, 25}});
  auto x = a.Intersect(b);
  ASSERT_EQ(x.runs().size(), 2u);
  EXPECT_EQ(x.runs()[0], Interval(5, 10));
  EXPECT_EQ(x.runs()[1], Interval(20, 25));
}

TEST(TemporalSetTest, IntersectEmpty) {
  auto a = TemporalSet::FromIntervals({{0, 10}});
  auto b = TemporalSet::FromIntervals({{10, 20}});
  EXPECT_TRUE(a.Intersect(b).empty());
}

TEST(TemporalSetTest, Contains) {
  auto ts = TemporalSet::FromIntervals({{5, 10}, {20, 25}});
  EXPECT_TRUE(ts.Contains(5));
  EXPECT_TRUE(ts.Contains(9));
  EXPECT_FALSE(ts.Contains(10));
  EXPECT_FALSE(ts.Contains(15));
  EXPECT_TRUE(ts.Contains(20));
  EXPECT_FALSE(ts.Contains(4));
}

TEST(TemporalSetTest, LengthFunctions) {
  // LENGTH = longest coalesced run; TOTAL_LENGTH = sum of runs (paper §3.1).
  auto ts = TemporalSet::FromIntervals({{0, 100}, {200, 250}});
  EXPECT_EQ(ts.MaxRunLength(), 100u);
  EXPECT_EQ(ts.TotalLength(), 150u);
}

TEST(TemporalSetTest, StartEnd) {
  auto ts = TemporalSet::FromIntervals({{5, 10}, {20, 25}});
  EXPECT_EQ(ts.Start(), 5u);
  EXPECT_EQ(ts.End(), 25u);
}

// Property: set operations agree with a brute-force bitset model.
class TemporalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemporalSetPropertyTest, MatchesBitsetModel) {
  Rng rng(GetParam());
  constexpr Chronon kDomain = 200;
  for (int round = 0; round < 50; ++round) {
    std::vector<Interval> ivs_a, ivs_b;
    std::vector<bool> bits_a(kDomain, false), bits_b(kDomain, false);
    auto gen = [&](std::vector<Interval>* ivs, std::vector<bool>* bits) {
      int n = static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < n; ++i) {
        Chronon s = static_cast<Chronon>(rng.Uniform(kDomain));
        Chronon e = static_cast<Chronon>(
            std::min<uint64_t>(s + 1 + rng.Uniform(40), kDomain));
        ivs->push_back({s, e});
        for (Chronon t = s; t < e; ++t) (*bits)[t] = true;
      }
    };
    gen(&ivs_a, &bits_a);
    gen(&ivs_b, &bits_b);
    auto a = TemporalSet::FromIntervals(ivs_a);
    auto b = TemporalSet::FromIntervals(ivs_b);
    auto x = a.Intersect(b);
    uint64_t total = 0;
    for (Chronon t = 0; t < kDomain; ++t) {
      EXPECT_EQ(a.Contains(t), bits_a[t]) << "t=" << t;
      bool both = bits_a[t] && bits_b[t];
      EXPECT_EQ(x.Contains(t), both) << "t=" << t;
      if (bits_a[t]) ++total;
    }
    EXPECT_EQ(a.TotalLength(), total);
    // Runs are normalized: sorted, disjoint, non-adjacent.
    for (size_t i = 1; i < a.runs().size(); ++i) {
      EXPECT_GT(a.runs()[i].start, a.runs()[i - 1].end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Reference: a set kept as a plain normalized std::vector<Interval>,
// rebuilt through its points after every operation, so it shares no
// code with TemporalSet.
constexpr Chronon kRefDomain = 120;

std::vector<Interval> RefRuns(const std::vector<bool>& points) {
  std::vector<Interval> runs;
  for (Chronon t = 0; t < kRefDomain; ++t) {
    if (!points[t]) continue;
    if (!runs.empty() && runs.back().end == t) {
      runs.back().end = t + 1;
    } else {
      runs.push_back({t, t + 1});
    }
  }
  return runs;
}

std::vector<bool> RefPoints(const std::vector<Interval>& runs) {
  std::vector<bool> points(kRefDomain, false);
  for (const Interval& iv : runs) {
    for (Chronon t = iv.start; t < iv.end; ++t) points[t] = true;
  }
  return points;
}

std::vector<Interval> RefAdd(const std::vector<Interval>& runs, Interval iv) {
  std::vector<Interval> all = runs;
  all.push_back(iv);
  return RefRuns(RefPoints(all));
}

std::vector<Interval> RefIntersect(const std::vector<Interval>& a,
                                   const std::vector<Interval>& b) {
  const std::vector<bool> pa = RefPoints(a), pb = RefPoints(b);
  std::vector<bool> both(kRefDomain);
  for (Chronon t = 0; t < kRefDomain; ++t) both[t] = pa[t] && pb[t];
  return RefRuns(both);
}

// Random Add, FromIntervals, Intersect, copy and move sequences over a
// small pool of sets whose sizes cross 0, 1 and two or more runs (the
// inline / heap boundary); every set must match its reference.
class TemporalSetReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemporalSetReferenceTest, MatchesVectorReference) {
  Rng rng(GetParam());
  constexpr size_t kPool = 4;
  std::vector<TemporalSet> sets(kPool);
  std::vector<std::vector<Interval>> refs(kPool);
  auto random_interval = [&] {
    const auto s = static_cast<Chronon>(rng.Uniform(kRefDomain));
    const uint64_t len = rng.Uniform(4) == 0 ? rng.Uniform(60) : rng.Uniform(8);
    return Interval(s, static_cast<Chronon>(
                           std::min<uint64_t>(s + len, kRefDomain)));
  };
  size_t seen[3] = {0, 0, 0};  // sets with 0, 1, >= 2 runs
  for (int step = 0; step < 3000; ++step) {
    const size_t k = rng.Uniform(kPool);
    const size_t a = rng.Uniform(kPool);
    const size_t b = rng.Uniform(kPool);
    switch (rng.Uniform(7)) {
      case 0:
      case 1: {
        const Interval iv = random_interval();
        sets[k].Add(iv);
        if (!iv.empty()) refs[k] = RefAdd(refs[k], iv);
        break;
      }
      case 2: {
        std::vector<Interval> ivs;
        for (uint64_t n = rng.Uniform(5); n > 0; --n) {
          ivs.push_back(random_interval());
        }
        sets[k] = TemporalSet::FromIntervals(ivs);
        refs[k] = RefRuns(RefPoints(ivs));
        break;
      }
      case 3:
        sets[k] = sets[a].Intersect(sets[b]);
        refs[k] = RefIntersect(refs[a], refs[b]);
        break;
      case 4: {
        const TemporalSet copy(sets[a]);
        sets[k] = copy;
        refs[k] = refs[a];
        break;
      }
      case 5: {
        const std::vector<Interval> ref = refs[a];
        TemporalSet moved(std::move(sets[a]));
        EXPECT_TRUE(sets[a].empty());  // a moved-from set is empty
        refs[a].clear();
        sets[k] = std::move(moved);
        refs[k] = ref;
        break;
      }
      default: {
        TemporalSet& self = sets[k];
        sets[k] = self;
        break;
      }
    }
    for (size_t i = 0; i < kPool; ++i) {
      const std::vector<Interval> got(sets[i].runs().begin(),
                                      sets[i].runs().end());
      ASSERT_EQ(got, refs[i]) << "step " << step << " set " << i;
      ++seen[std::min<size_t>(got.size(), 2)];
      for (size_t j = 0; j < kPool; ++j) {
        EXPECT_EQ(sets[i] == sets[j], refs[i] == refs[j]);
      }
    }
    const auto t = static_cast<Chronon>(rng.Uniform(kRefDomain));
    EXPECT_EQ(sets[k].Contains(t), RefPoints(refs[k])[t]) << "t=" << t;
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalSetReferenceTest,
                         ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace rdftx
