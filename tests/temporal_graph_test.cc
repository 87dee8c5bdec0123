#include "rdf/temporal_graph.h"

#include <gtest/gtest.h>

#include "analysis/invariants.h"
#include "store_test_util.h"

namespace rdftx {
namespace {

using mvbt::Key3;

TEST(TemporalGraphTest, KeyEncodingRoundTripsAllOrders) {
  Triple t{11, 22, 33};
  for (IndexOrder order : {IndexOrder::kSpo, IndexOrder::kSop,
                           IndexOrder::kPos, IndexOrder::kOps}) {
    Key3 k = TemporalGraph::EncodeKey(order, t);
    EXPECT_EQ(TemporalGraph::DecodeKey(order, k), t);
  }
  EXPECT_EQ(TemporalGraph::EncodeKey(IndexOrder::kSpo, t),
            (Key3{11, 22, 33}));
  EXPECT_EQ(TemporalGraph::EncodeKey(IndexOrder::kSop, t),
            (Key3{11, 33, 22}));
  EXPECT_EQ(TemporalGraph::EncodeKey(IndexOrder::kPos, t),
            (Key3{22, 33, 11}));
  EXPECT_EQ(TemporalGraph::EncodeKey(IndexOrder::kOps, t),
            (Key3{33, 22, 11}));
}

TEST(TemporalGraphTest, ChoosesCoveringIndex) {
  auto pat = [](TermId s, TermId p, TermId o) {
    return PatternSpec{s, p, o, Interval::All()};
  };
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(1, 2, 3)), IndexOrder::kSpo);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(1, 2, 0)), IndexOrder::kSpo);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(1, 0, 3)), IndexOrder::kSop);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(1, 0, 0)), IndexOrder::kSpo);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(0, 2, 3)), IndexOrder::kPos);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(0, 2, 0)), IndexOrder::kPos);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(0, 0, 3)), IndexOrder::kOps);
  EXPECT_EQ(TemporalGraph::ChooseIndex(pat(0, 0, 0)), IndexOrder::kSpo);
}

TEST(TemporalGraphTest, PatternRangeForPrefix) {
  PatternSpec spec{7, 9, kInvalidTerm, Interval::All()};
  auto r = TemporalGraph::PatternRange(IndexOrder::kSpo, spec);
  EXPECT_EQ(r.lo, (Key3{7, 9, 0}));
  EXPECT_EQ(r.hi, (Key3{7, 9, UINT64_MAX}));
  // Unbound pattern scans everything.
  PatternSpec all{};
  r = TemporalGraph::PatternRange(IndexOrder::kSpo, all);
  EXPECT_EQ(r.lo, mvbt::kKeyMin);
  EXPECT_EQ(r.hi, mvbt::kKeyMax);
}

TEST(TemporalGraphTest, UniversityOfCaliforniaHistory) {
  // The paper's Table 2, with dictionary ids: UC=1, president=2,
  // Yudof=3, Napolitano=4.
  TemporalGraph g;
  Chronon yudof_start = ChrononFromYmd(2008, 6, 16);
  Chronon handover = ChrononFromYmd(2013, 9, 30);
  ASSERT_TRUE(g.Load({
                  {{1, 2, 3}, Interval(yudof_start, handover)},
                  {{1, 2, 4}, Interval(handover, kChrononNow)},
              })
                  .ok());
  // "When did Janet Napolitano serve as president?" (Example 1)
  TemporalSet when = g.Validity({1, 2, 4});
  ASSERT_EQ(when.runs().size(), 1u);
  EXPECT_EQ(when.runs()[0], Interval(handover, kChrononNow));
  // Who was president on 2009-09-09?
  PatternSpec spec{1, 2, kInvalidTerm,
                   Interval(ChrononFromYmd(2009, 9, 9),
                            ChrononFromYmd(2009, 9, 9) + 1)};
  std::vector<Triple> found;
  g.ScanPattern(spec, [&](const Triple& t, const Interval&) {
    found.push_back(t);
  });
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].o, 3u);  // Mark Yudof
}

TEST(TemporalGraphTest, LoadCoalescesOverlappingInput) {
  TemporalGraph g;
  ASSERT_TRUE(g.Load({
                  {{1, 1, 1}, Interval(10, 30)},
                  {{1, 1, 1}, Interval(20, 50)},  // overlaps
                  {{1, 1, 1}, Interval(50, 60)},  // adjacent
              })
                  .ok());
  TemporalSet v = g.Validity({1, 1, 1});
  ASSERT_EQ(v.runs().size(), 1u);
  EXPECT_EQ(v.runs()[0], Interval(10, 60));
}

TEST(TemporalGraphTest, AssertRetractOnline) {
  TemporalGraph g;
  ASSERT_TRUE(g.Assert({1, 2, 3}, 100).ok());
  EXPECT_EQ(g.live_size(), 1u);
  EXPECT_EQ(g.Assert({1, 2, 3}, 101).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(g.Retract({1, 2, 3}, 150).ok());
  EXPECT_EQ(g.live_size(), 0u);
  EXPECT_EQ(g.Retract({1, 2, 3}, 151).code(), StatusCode::kNotFound);
  TemporalSet v = g.Validity({1, 2, 3});
  ASSERT_EQ(v.runs().size(), 1u);
  EXPECT_EQ(v.runs()[0], Interval(100, 150));
}

TEST(TemporalGraphTest, RetractAtNowIsRejected) {
  // `now` is not a version: a retraction there must fail before any
  // index changes, leaving the clock and every live entry untouched.
  TemporalGraph g;
  ASSERT_TRUE(g.Assert({1, 2, 3}, 100).ok());
  EXPECT_EQ(g.Retract({1, 2, 3}, kChrononNow).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(g.live_size(), 1u);
  EXPECT_EQ(g.last_time(), 100u);
  TemporalSet v = g.Validity({1, 2, 3});
  ASSERT_EQ(v.runs().size(), 1u);
  EXPECT_EQ(v.runs()[0], Interval(100, kChrononNow));
  Status st = analysis::ValidateTemporalGraph(g);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Later updates still work.
  EXPECT_TRUE(g.Assert({4, 5, 6}, 101).ok());
  EXPECT_TRUE(g.Retract({1, 2, 3}, kChrononMax).ok());
  st = analysis::ValidateTemporalGraph(g);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(TemporalGraphTest, AllIndicesPassDeepValidation) {
  // The four index MVBTs must satisfy the full invariant catalog after a
  // loaded-then-updated history (invariant-checked builds additionally
  // re-validate inside Load / after every engine update batch).
  Rng rng(4242);
  TemporalGraph g(TemporalGraphOptions{.block_capacity = 16,
                                       .compress_leaves = true});
  ASSERT_TRUE(g.Load(testutil::RandomTriples(&rng, 3000)).ok());
  for (int i = 0; i < 200; ++i) {
    Triple t{1 + rng.Uniform(12), 1 + rng.Uniform(6), 1 + rng.Uniform(20)};
    Chronon at = static_cast<Chronon>(100000 + i);
    if (!g.Assert(t, at).ok()) {
      ASSERT_TRUE(g.Retract(t, at).ok());
    }
  }
  Status st = analysis::ValidateTemporalGraph(g);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

class TemporalGraphConformanceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(TemporalGraphConformanceTest, MatchesNaiveOnRandomPatterns) {
  auto [seed, compress] = GetParam();
  Rng rng(seed);
  TemporalGraph g(TemporalGraphOptions{.block_capacity = 16,
                                       .compress_leaves = compress});
  testutil::ExpectStoreMatchesNaive(&g, &rng, 3000, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TemporalGraphConformanceTest,
    ::testing::Combine(::testing::Values(311, 512, 713),
                       ::testing::Bool()));

TEST(TemporalGraphTest, CompressAllShrinksMemory) {
  Rng rng(88);
  TemporalGraph g(TemporalGraphOptions{.block_capacity = 32,
                                       .compress_leaves = false});
  ASSERT_TRUE(g.Load(testutil::RandomTriples(&rng, 5000)).ok());
  size_t before = g.MemoryUsage();
  size_t n = g.CompressAll();
  EXPECT_GT(n, 0u);
  EXPECT_LT(g.MemoryUsage(), before);
}

}  // namespace
}  // namespace rdftx
