// Unit tests of the live read view: DeltaChunk::Push's logarithmic,
// sorted chunk list, and Epoch's merge of base graph and overlay
// (retracts closing runs of older chunks and of the base, windows that
// a closed base run misses).
#include "rdf/epoch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <vector>

#include "baselines/naive_store.h"
#include "store_test_util.h"
#include "util/rng.h"

namespace rdftx {
namespace {

using testutil::CanonicalScan;

std::vector<const DeltaChunk*> Chain(const DeltaChunk* head) {
  std::vector<const DeltaChunk*> chain;
  for (const DeltaChunk* c = head; c != nullptr; c = c->prev().get()) {
    chain.push_back(c);
  }
  return chain;
}

bool SortedByTripleLsn(const std::vector<Delta>& ds) {
  return std::is_sorted(ds.begin(), ds.end(),
                        [](const Delta& x, const Delta& y) {
                          return x.triple != y.triple ? x.triple < y.triple
                                                      : x.lsn < y.lsn;
                        });
}

/// Checks the list invariants after `n` deltas with LSNs 1..n.
void ExpectWellFormed(const std::shared_ptr<const DeltaChunk>& head,
                      uint64_t n) {
  ASSERT_NE(head, nullptr);
  const std::vector<const DeltaChunk*> chain = Chain(head.get());
  EXPECT_LE(chain.size(), static_cast<size_t>(std::bit_width(n)))
      << "chain of " << chain.size() << " chunks for " << n << " deltas";
  std::set<uint64_t> lsns;
  for (size_t i = 0; i < chain.size(); ++i) {
    const std::vector<Delta>& ds = chain[i]->deltas();
    EXPECT_TRUE(SortedByTripleLsn(ds)) << "chunk " << i;
    // Sizes at least double toward the tail.
    if (i + 1 < chain.size()) {
      EXPECT_GE(chain[i + 1]->deltas().size(), 2 * ds.size()) << "chunk " << i;
    }
    for (const Delta& d : ds) lsns.insert(d.lsn);
  }
  EXPECT_EQ(head->total(), n);
  EXPECT_EQ(head->last_lsn(), n);
  ASSERT_EQ(lsns.size(), n);  // no delta lost or duplicated
  EXPECT_EQ(*lsns.begin(), 1u);
  EXPECT_EQ(*lsns.rbegin(), n);
}

TEST(DeltaChunkTest, SingleDeltaPublishesKeepALogarithmicSortedChain) {
  Rng rng(5);
  std::shared_ptr<const DeltaChunk> head;
  for (uint64_t n = 1; n <= 300; ++n) {
    const Triple t{1 + rng.Uniform(6), 1 + rng.Uniform(3), 1 + rng.Uniform(6)};
    head = DeltaChunk::Push(head, {Delta{n, rng.Bernoulli(0.5), t,
                                         static_cast<Chronon>(n)}});
    ExpectWellFormed(head, n);
    if (HasFatalFailure()) return;
  }
  // Powers of two collapse into one chunk, like a binary counter.
  std::shared_ptr<const DeltaChunk> h;
  for (uint64_t n = 1; n <= 256; ++n) {
    h = DeltaChunk::Push(h, {Delta{n, true, Triple{n, 1, 1}, 0}});
  }
  EXPECT_EQ(Chain(h.get()).size(), 1u);
  EXPECT_EQ(DeltaChunk::Push(h, {}), h);
}

TEST(DeltaChunkTest, BatchesOfAnySizeKeepTheBound) {
  Rng rng(6);
  std::shared_ptr<const DeltaChunk> head;
  uint64_t lsn = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Delta> batch;
    const uint64_t k = 1 + rng.Uniform(rng.Bernoulli(0.1) ? 200 : 8);
    for (uint64_t i = 0; i < k; ++i) {
      ++lsn;
      batch.push_back(Delta{lsn, true,
                            Triple{1 + rng.Uniform(50), 1, 1 + rng.Uniform(9)},
                            static_cast<Chronon>(lsn)});
    }
    head = DeltaChunk::Push(head, std::move(batch));
    ExpectWellFormed(head, lsn);
    if (HasFatalFailure()) return;
  }
}

/// A base graph where A = (1 1 1) is live from 10 and X = (2 1 1) ran
/// [5, 8), and an overlay of two chunks: an older one asserting
/// B..E = (3..6 1 1) at 20..23 and a newer one retracting A at 30 and B
/// at 35.
class EpochTest : public ::testing::Test {
 protected:
  static constexpr Triple kA{1, 1, 1};
  static constexpr Triple kX{2, 1, 1};
  static constexpr Triple kB{3, 1, 1};

  void SetUp() override {
    auto base = std::make_shared<TemporalGraph>();
    ASSERT_TRUE(base->Load({{kA, {10, kChrononNow}}, {kX, {5, 8}}}).ok());
    std::vector<Delta> older;
    for (uint64_t i = 0; i < 4; ++i) {
      older.push_back(Delta{i + 1, true, Triple{3 + i, 1, 1},
                            static_cast<Chronon>(20 + i)});
    }
    auto head = DeltaChunk::Push(nullptr, std::move(older));
    head = DeltaChunk::Push(head, {Delta{5, false, kA, 30},
                                   Delta{6, false, kB, 35}});
    epoch_ = std::make_unique<Epoch>(std::move(base), head, 35);
    ASSERT_TRUE(naive_
                    .Load({{kA, {10, 30}},
                           {kX, {5, 8}},
                           {kB, {20, 35}},
                           {Triple{4, 1, 1}, {21, kChrononNow}},
                           {Triple{5, 1, 1}, {22, kChrononNow}},
                           {Triple{6, 1, 1}, {23, kChrononNow}}})
                    .ok());
  }

  std::unique_ptr<Epoch> epoch_;
  NaiveStore naive_;
};

TEST_F(EpochTest, NewerRetractClosesOlderAssertAndBaseLiveRun) {
  // The retracts sit in a newer chunk than B's assert.
  const std::vector<const DeltaChunk*> chain = Chain(epoch_->head().get());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0]->deltas().size(), 2u);
  EXPECT_EQ(epoch_->delta_count(), 6u);
  EXPECT_EQ(epoch_->last_lsn(), 6u);

  EXPECT_EQ(epoch_->Validity(kA), TemporalSet(Interval(10, 30)));
  EXPECT_EQ(epoch_->Validity(kB), TemporalSet(Interval(20, 35)));
  EXPECT_EQ(epoch_->Validity(kX), TemporalSet(Interval(5, 8)));
  EXPECT_EQ(epoch_->Validity(Triple{4, 1, 1}),
            TemporalSet(Interval(21, kChrononNow)));

  const OverlayPatch patch = epoch_->Patch(PatternSpec{});
  ASSERT_EQ(patch.closes.size(), 1u);
  EXPECT_EQ(patch.closes[0].first, kA);
  EXPECT_EQ(patch.CloseOf(kA), 30u);
  EXPECT_EQ(patch.CloseOf(kX), kChrononNow);
  EXPECT_EQ(patch.runs.size(), 4u);

  for (const PatternSpec& spec :
       {PatternSpec{}, PatternSpec{kA.s, kInvalidTerm, kInvalidTerm, {0, 100}},
        PatternSpec{kB.s, 1, 1, {34, 40}},
        PatternSpec{kInvalidTerm, 1, kInvalidTerm, {29, 31}},
        PatternSpec{kInvalidTerm, kInvalidTerm, 1, {36, 37}}}) {
    EXPECT_EQ(CanonicalScan(*epoch_, spec), CanonicalScan(naive_, spec))
        << "s=" << spec.s << " p=" << spec.p << " o=" << spec.o
        << " time=" << spec.time.ToString();
  }
}

TEST_F(EpochTest, RetractBeforeTheWindowDropsTheBaseFragment) {
  size_t a_fragments = 0;
  epoch_->ScanPattern(PatternSpec{kA.s, kA.p, kA.o, {40, 50}},
                      [&](const Triple&, const Interval&) { ++a_fragments; });
  EXPECT_EQ(a_fragments, 0u);
  // A window that still meets the closed run sees it.
  std::vector<Interval> seen;
  epoch_->ScanPattern(
      PatternSpec{kA.s, kA.p, kA.o, {25, 40}},
      [&](const Triple&, const Interval& iv) { seen.push_back(iv); });
  EXPECT_EQ(TemporalSet::FromIntervals(seen), TemporalSet(Interval(10, 30)));
}

}  // namespace
}  // namespace rdftx
