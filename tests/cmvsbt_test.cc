#include "mvsbt/cmvsbt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace rdftx::mvsbt {

// Reads the sealed rectangles' time ranges, so tests can query at the
// times where a rectangle starts or stops being alive.
class CmvsbtPeer {
 public:
  static std::vector<std::pair<Chronon, Chronon>> TimeRanges(
      const Cmvsbt& tree) {
    std::vector<std::pair<Chronon, Chronon>> out;
    for (const Cmvsbt::Entry& e : tree.entries_) out.emplace_back(e.ts, e.te);
    return out;
  }
};

namespace {

// QueryExact for a batch of one key.
double ExactOne(const Cmvsbt& tree, uint64_t k, Chronon t) {
  double out = 0.0;
  tree.QueryExact(std::span(&k, 1), t, std::span(&out, 1));
  return out;
}

struct Pt {
  uint64_t key;
  Chronon t;
};

double BruteForce(const std::vector<Pt>& pts, uint64_t k, Chronon t) {
  double n = 0;
  for (const Pt& p : pts) {
    if (p.key <= k && p.t <= t) ++n;
  }
  return n;
}

TEST(CmvsbtTest, EmptyTreeReturnsZero) {
  Cmvsbt tree;
  EXPECT_EQ(tree.Query(100, 100), 0.0);
  EXPECT_EQ(tree.point_count(), 0u);
}

TEST(CmvsbtTest, SinglePointDominance) {
  Cmvsbt tree(CmvsbtOptions{.cm = 1});
  tree.Insert(30, 2);
  // Paper Fig 5: query (10,1) -> 0, query (40,5) -> 1.
  EXPECT_EQ(tree.Query(10, 1), 0.0);
  EXPECT_EQ(tree.Query(40, 5), 1.0);
}

TEST(CmvsbtTest, TotalCountIsExactAtFullDomain) {
  Rng rng(5);
  Cmvsbt tree(CmvsbtOptions{.cm = 8});
  Chronon t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += static_cast<Chronon>(rng.Uniform(3));
    tree.Insert(rng.Uniform(1000), t);
  }
  // The whole-domain dominance count is exact: shares are conserved
  // through every split.
  EXPECT_NEAR(tree.Query(UINT64_MAX, t), 5000.0, 1e-6);
}

TEST(CmvsbtTest, MonotoneInKeyAndTime) {
  Rng rng(6);
  Cmvsbt tree(CmvsbtOptions{.cm = 4});
  Chronon t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<Chronon>(rng.Uniform(2));
    tree.Insert(rng.Uniform(100), t);
  }
  double prev = 0.0;
  for (uint64_t k = 0; k < 100; k += 5) {
    double q = tree.Query(k, t);
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
  prev = 0.0;
  for (Chronon x = 0; x <= t; x += std::max<Chronon>(1, t / 20)) {
    double q = tree.Query(50, x);
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
}

class CmvsbtAccuracyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(CmvsbtAccuracyTest, BoundedRelativeError) {
  auto [seed, cm] = GetParam();
  Rng rng(seed);
  Cmvsbt tree(CmvsbtOptions{.cm = cm});
  std::vector<Pt> pts;
  Chronon t = 0;
  for (int i = 0; i < 8000; ++i) {
    t += static_cast<Chronon>(rng.Uniform(3));
    uint64_t key = rng.Uniform(500);
    tree.Insert(key, t);
    pts.push_back({key, t});
  }
  double total_rel_err = 0.0;
  int measured = 0;
  for (int q = 0; q < 200; ++q) {
    uint64_t k = rng.Uniform(600);
    Chronon qt = static_cast<Chronon>(rng.Uniform(t + 10));
    double want = BruteForce(pts, k, qt);
    double got = tree.Query(k, qt);
    if (want >= 100) {  // relative error meaningful on large counts
      total_rel_err += std::abs(got - want) / want;
      ++measured;
    } else {
      EXPECT_LE(std::abs(got - want), 100.0 + 4.0 * cm);
    }
  }
  ASSERT_GT(measured, 20);
  // Average relative error stays modest (the histogram only steers the
  // optimizer; the paper trades accuracy for size the same way).
  EXPECT_LT(total_rel_err / measured, 0.20)
      << "cm=" << cm << " avg rel err too large";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CmvsbtAccuracyTest,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values<uint32_t>(1, 4, 16, 64)));

TEST(CmvsbtTest, SizeCapCompactsEntries) {
  Rng rng(9);
  Cmvsbt small(CmvsbtOptions{.cm = 1, .max_entries = 256});
  Cmvsbt big(CmvsbtOptions{.cm = 1, .max_entries = 1u << 20});
  Chronon t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += 1;
    uint64_t key = rng.Uniform(50);
    small.Insert(key, t);
    big.Insert(key, t);
  }
  EXPECT_LT(small.entry_count(), big.entry_count());
  EXPECT_LE(small.MemoryUsage(), big.MemoryUsage());
  // Capped tree still estimates the global count well.
  EXPECT_NEAR(small.Query(UINT64_MAX, t), 20000.0, 20000.0 * 0.05);
}

TEST(CmvsbtTest, SameTimestampBurst) {
  Cmvsbt tree(CmvsbtOptions{.cm = 4});
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, 10);
  EXPECT_NEAR(tree.Query(UINT64_MAX, 10), 100.0, 10.0);
  EXPECT_EQ(tree.Query(UINT64_MAX, 9), 0.0);
  double half = tree.Query(49, 10);
  EXPECT_NEAR(half, 50.0, 25.0);
}

TEST(CmvsbtTest, QueryExactDifferencing) {
  // With the share-splitting approximation, exact-key counts are only
  // approximate, but they must be nonnegative and sum to the total.
  Cmvsbt tree(CmvsbtOptions{.cm = 1});
  tree.Insert(5, 1);
  tree.Insert(5, 2);
  tree.Insert(7, 3);
  tree.Seal();
  double a = ExactOne(tree, 5, 10);
  double b = ExactOne(tree, 7, 10);
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, 0.0);
  EXPECT_NEAR(tree.Query(UINT64_MAX, 10), 3.0, 1e-9);
  // The mass concentrates in the observed key region.
  EXPECT_GT(tree.Query(7, 10), 2.0);
  EXPECT_LT(tree.Query(2, 10), 1.5);
}

// The sealed sweep must sum exactly the rectangles that matter: its
// QueryExact equals differencing the linear Query, everywhere.
class CmvsbtSealedTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr uint64_t kKeys = 300;

  // Inserts the same points into a size-capped tree (small enough that
  // both Compact and CompactLive run) and an uncapped one, then seals
  // both. Returns the insert times; `last` gets the final one.
  std::vector<Chronon> Build(Rng* rng, Cmvsbt* capped, Cmvsbt* uncapped,
                             Chronon* last) {
    auto insert = [&](uint64_t key, Chronon at) {
      capped->Insert(key, at);
      uncapped->Insert(key, at);
    };
    std::vector<Chronon> times;
    Chronon t = 1;
    for (int i = 0; i < 6000; ++i) {
      t += static_cast<Chronon>(rng->Uniform(3));
      // A skewed key mix: hot keys split columns down to single keys.
      insert(rng->Uniform(4) == 0 ? rng->Uniform(8) : rng->Uniform(kKeys),
             t);
      times.push_back(t);
    }
    // A same-timestamp burst across the key range.
    t += 5;
    for (uint64_t k = 0; k < kKeys; k += 3) insert(k, t);
    times.push_back(t);
    capped->Seal();
    uncapped->Seal();
    *last = t;
    return times;
  }

  static double LinearExact(const Cmvsbt& tree, uint64_t k, Chronon t) {
    return std::max(
        0.0, tree.Query(k, t) - (k == 0 ? 0.0 : tree.Query(k - 1, t)));
  }

  // Keys past the largest inserted key.
  static constexpr uint64_t kPastEnd[] = {kKeys * 1000, UINT64_MAX - 1,
                                          UINT64_MAX};
};

TEST_P(CmvsbtSealedTest, QueryExactMatchesLinearDifference) {
  const uint32_t cm = GetParam();
  Rng rng(40 + cm);
  Cmvsbt tree(CmvsbtOptions{.cm = cm, .max_entries = 64});
  Cmvsbt uncapped(CmvsbtOptions{.cm = cm});
  Chronon t = 0;
  const std::vector<Chronon> times = Build(&rng, &tree, &uncapped, &t);
  ASSERT_LT(tree.entry_count(), uncapped.entry_count());
  const double total = static_cast<double>(tree.point_count());
  const double tol = 1e-9 * std::max(1.0, total);

  // Times: around sampled insert times (rectangle time boundaries sit
  // at an insert time + 1), the ends of history, and kChrononMax.
  std::vector<Chronon> query_times = {0, 1, t - 1, t, t + 1, kChrononMax};
  for (int i = 0; i < 25; ++i) {
    Chronon x = times[rng.Uniform(times.size())];
    query_times.insert(query_times.end(), {x - 1, x, x + 1});
  }
  // Keys: every key of the domain (every column boundary lies in it),
  // plus keys past the largest inserted key.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k <= kKeys + 2; ++k) keys.push_back(k);
  keys.insert(keys.end(), std::begin(kPastEnd), std::end(kPastEnd));
  for (Chronon qt : query_times) {
    for (uint64_t k : keys) {
      ASSERT_NEAR(ExactOne(tree, k, qt), LinearExact(tree, k, qt), tol)
          << "cm=" << cm << " k=" << k << " t=" << qt;
    }
  }
}

// A batch answers each key exactly as its one-key batch does, at the
// times where sampled rectangles start, end, and are last alive.
TEST_P(CmvsbtSealedTest, BatchEqualsOneKeyBatches) {
  const uint32_t cm = GetParam();
  Rng rng(70 + cm);
  Cmvsbt capped(CmvsbtOptions{.cm = cm, .max_entries = 64});
  Cmvsbt uncapped(CmvsbtOptions{.cm = cm});
  Chronon last = 0;
  Build(&rng, &capped, &uncapped, &last);
  const double tol = 1e-9 * static_cast<double>(capped.point_count());

  // Ascending batches: every key of the domain plus the keys past it,
  // and random draws with repeats, each holding key 0 and a key past
  // the last rectangle.
  std::vector<std::vector<uint64_t>> batches(1);
  for (uint64_t k = 0; k <= kKeys + 2; ++k) batches[0].push_back(k);
  batches[0].insert(batches[0].end(), std::begin(kPastEnd),
                    std::end(kPastEnd));
  for (int b = 0; b < 3; ++b) {
    std::vector<uint64_t> batch = {0, kPastEnd[b]};
    for (int i = 0; i < 40; ++i) {
      const uint64_t k = rng.Uniform(kKeys + 3);
      batch.push_back(k);
      if (i % 4 == 0) batch.push_back(k);  // a repeat
    }
    std::sort(batch.begin(), batch.end());
    batches.push_back(std::move(batch));
  }

  for (const Cmvsbt* tree : {&capped, &uncapped}) {
    const auto ranges = CmvsbtPeer::TimeRanges(*tree);
    std::vector<Chronon> query_times = {0, last, kChrononMax};
    for (int i = 0; i < 12; ++i) {
      const auto& [ts, te] = ranges[rng.Uniform(ranges.size())];
      query_times.insert(query_times.end(), {ts, te - 1, te});
    }
    for (Chronon qt : query_times) {
      for (const std::vector<uint64_t>& batch : batches) {
        std::vector<double> out(batch.size(), -1.0);
        tree->QueryExact(batch, qt, out);
        for (size_t i = 0; i < batch.size(); ++i) {
          const uint64_t k = batch[i];
          ASSERT_EQ(out[i], ExactOne(*tree, k, qt))
              << "cm=" << cm << " k=" << k << " t=" << qt;
          ASSERT_NEAR(out[i], LinearExact(*tree, k, qt), tol)
              << "cm=" << cm << " k=" << k << " t=" << qt;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cm, CmvsbtSealedTest,
                         ::testing::Values<uint32_t>(1, 4, 16, 64));

}  // namespace
}  // namespace rdftx::mvsbt
