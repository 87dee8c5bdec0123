// Update-path coverage: Insert and Erase find their leaf through the
// live-leaf directory and their slot through 16-bit key fingerprints.
// These tests pin the cases the fingerprints make interesting — keys
// whose fingerprints collide, live leaves that CompressAllLeaves has
// compressed, a forest rebuilt from a snapshot — and check statuses
// against a std::set model over a long random update stream.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/invariants.h"
#include "mvbt/mvbt.h"
#include "rdf/temporal_graph.h"
#include "storage/snapshot.h"
#include "store_test_util.h"
#include "util/rng.h"

namespace rdftx {
namespace {

using mvbt::Key3;
using mvbt::KeyRange;
using mvbt::Mvbt;
using mvbt::MvbtOptions;

// A key in the same (a, b) prefix as `k` with the same fingerprint.
Key3 CollidingKey(const Key3& k) {
  const uint16_t fp = Mvbt::KeyFingerprint(k);
  for (uint64_t c = k.c + 1;; ++c) {
    const Key3 other{k.a, k.b, c};
    if (Mvbt::KeyFingerprint(other) == fp) return other;
  }
}

std::vector<Interval> History(const Mvbt& tree, const Key3& k) {
  std::vector<Interval> out;
  tree.QueryRange(KeyRange{k, k}, Interval::All(),
                  [&](const Key3&, const Interval& iv) { out.push_back(iv); });
  return out;
}

TEST(MvbtUpdatePath, FingerprintsNeverZero) {
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    const Key3 k{rng.Uniform(64), rng.Uniform(64), rng.Next()};
    ASSERT_NE(Mvbt::KeyFingerprint(k), 0u) << k.ToString();
  }
}

TEST(MvbtUpdatePath, FingerprintCollisionsResolveByKey) {
  const Key3 k1{7, 3, 1};
  const Key3 k2 = CollidingKey(k1);
  ASSERT_EQ(Mvbt::KeyFingerprint(k1), Mvbt::KeyFingerprint(k2));
  ASSERT_NE(k1, k2);
  // Both slot orders (the first fingerprint hit is the other key or the
  // wanted one), on plain and on compressed live leaves.
  for (bool compress : {false, true}) {
    for (bool k1_first : {true, false}) {
      SCOPED_TRACE(testing::Message() << "compress=" << compress
                                      << " k1_first=" << k1_first);
      Mvbt tree(MvbtOptions{.block_capacity = 16, .compress_leaves = true});
      const Key3& first = k1_first ? k1 : k2;
      const Key3& second = k1_first ? k2 : k1;
      ASSERT_TRUE(tree.Insert(first, 10).ok());
      ASSERT_TRUE(tree.Insert(Key3{7, 3, 0}, 10).ok());
      ASSERT_TRUE(tree.Insert(second, 11).ok());
      if (compress) tree.CompressAllLeaves();
      EXPECT_EQ(tree.Insert(k1, 12).code(), StatusCode::kAlreadyExists);
      EXPECT_EQ(tree.Insert(k2, 12).code(), StatusCode::kAlreadyExists);

      // Erase the second-inserted key: the scan must pass over the
      // first key's colliding slot.
      ASSERT_TRUE(tree.Erase(second, 13).ok());
      Chronon start = 0;
      EXPECT_TRUE(tree.FindLive(first, &start));
      EXPECT_EQ(start, 10u);
      EXPECT_FALSE(tree.FindLive(second, &start));
      EXPECT_EQ(History(tree, first),
                (std::vector<Interval>{{10, kChrononNow}}));
      EXPECT_EQ(History(tree, second), (std::vector<Interval>{{11, 13}}));
      EXPECT_EQ(tree.Erase(second, 14).code(), StatusCode::kNotFound);

      // The closed slot no longer answers for its key; a re-insert gets a
      // new slot, and the first key still closes its own.
      ASSERT_TRUE(tree.Insert(second, 15).ok());
      ASSERT_TRUE(tree.Erase(first, 16).ok());
      EXPECT_TRUE(tree.FindLive(second, &start));
      EXPECT_EQ(start, 15u);
      EXPECT_EQ(History(tree, first), (std::vector<Interval>{{10, 16}}));
      EXPECT_EQ(tree.live_size(), 2u);
      Status st = tree.Validate();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
}

TEST(MvbtUpdatePath, EraseBeyondDomainChangesNothing) {
  Mvbt tree;
  ASSERT_TRUE(tree.Insert({1, 2, 3}, 10).ok());
  EXPECT_EQ(tree.Erase({1, 2, 3}, kChrononNow).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.live_size(), 1u);
  EXPECT_EQ(tree.last_time(), 10u);
  Status st = tree.Validate();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(tree.Insert({1, 2, 4}, 11).ok());
}

// A leaf created at version t that overflows at t is reorganized in
// place: entries opened and closed at t are purged, which moves the
// slots the fingerprints describe.
TEST(MvbtUpdatePath, SameVersionPurgeReindexesSlots) {
  Mvbt tree(MvbtOptions{.block_capacity = 8});
  // Nine inserts overflow the root leaf: a version split at t=1 leaves
  // keys 0..3 and 4..8 in two leaves created at t=1.
  for (uint64_t c = 0; c <= 8; ++c) {
    ASSERT_TRUE(tree.Insert({0, 0, c}, 1).ok());
  }
  // Two entries of the right leaf open and close at t=1, then four more
  // inserts overflow it; the purge leaves seven entries, no split.
  ASSERT_TRUE(tree.Erase({0, 0, 5}, 1).ok());
  ASSERT_TRUE(tree.Erase({0, 0, 6}, 1).ok());
  for (uint64_t c = 9; c <= 12; ++c) {
    ASSERT_TRUE(tree.Insert({0, 0, c}, 1).ok());
  }
  EXPECT_EQ(tree.stats().inplace_splits, 0u);
  Status st = tree.Validate();
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(tree.Erase({0, 0, 12}, 2).ok());
  ASSERT_TRUE(tree.Erase({0, 0, 4}, 2).ok());
  EXPECT_EQ(tree.Insert({0, 0, 9}, 2).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.Insert({0, 0, 5}, 2).ok());
  EXPECT_EQ(tree.live_size(), 10u);
  st = tree.Validate();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// Random inserts and erases over a small key universe, checked against a
// std::set of live keys: every status, every FindLive probe, and
// Validate() (which cross-checks the directory and every fingerprint)
// at intervals. Halfway through, CompressAllLeaves compresses the live
// leaves, so the second half updates compressed and plain leaves alike.
TEST(MvbtUpdatePath, RandomUpdatesMatchSetModel) {
  Mvbt tree(MvbtOptions{.block_capacity = 16, .compress_leaves = true});
  std::set<Key3> live;
  Rng rng(2024);
  Chronon t = 1;
  constexpr int kOps = 50000;
  for (int i = 0; i < kOps; ++i) {
    t += static_cast<Chronon>(rng.Uniform(3) == 0);
    const Key3 k{rng.Uniform(8), rng.Uniform(8), rng.Uniform(64)};
    if (rng.Bernoulli(0.55)) {
      const bool fresh = live.insert(k).second;
      ASSERT_EQ(tree.Insert(k, t).code(),
                fresh ? StatusCode::kOk : StatusCode::kAlreadyExists)
          << "op " << i << " insert " << k.ToString();
    } else {
      const bool was_live = live.erase(k) == 1;
      ASSERT_EQ(tree.Erase(k, t).code(),
                was_live ? StatusCode::kOk : StatusCode::kNotFound)
          << "op " << i << " erase " << k.ToString();
    }
    const Key3 probe{rng.Uniform(8), rng.Uniform(8), rng.Uniform(64)};
    Chronon start = 0;
    ASSERT_EQ(tree.FindLive(probe, &start), live.contains(probe))
        << "op " << i << " probe " << probe.ToString();
    if (i == kOps / 2) tree.CompressAllLeaves();
    if (i % 5000 == 4999) {
      Status st = tree.Validate();
      ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
    }
  }
  EXPECT_EQ(tree.live_size(), live.size());
  std::set<Key3> snapshot;
  tree.QuerySnapshot(KeyRange{}, t,
                     [&](const Key3& k) { snapshot.insert(k); });
  EXPECT_EQ(snapshot, live);
  Status st = analysis::ValidateMvbt(tree);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// A restored forest rebuilds its directory from the live leaves; updates
// after the round trip must see the same live keys as the original.
TEST(MvbtUpdatePath, UpdatesAfterSnapshotRoundTrip) {
  Rng rng(77);
  TemporalGraph original(TemporalGraphOptions{.block_capacity = 16});
  ASSERT_TRUE(original.Load(testutil::RandomTriples(&rng, 2000)).ok());
  original.CompressAll();
  const std::vector<uint8_t> image =
      storage::SerializeSnapshot(original, nullptr);
  TemporalGraph loaded;
  ASSERT_TRUE(storage::ReadSnapshotFromBuffer(image.data(), image.size(),
                                              &loaded, nullptr)
                  .ok());
  Chronon t = loaded.last_time() + 1;
  for (int i = 0; i < 3000; ++i) {
    if (i % 100 == 0) ++t;
    const Triple tr{1 + rng.Uniform(12), 1 + rng.Uniform(6),
                    1 + rng.Uniform(20)};
    const bool is_assert = rng.Bernoulli(0.5);
    const StatusCode want = (is_assert ? original.Assert(tr, t)
                                          : original.Retract(tr, t))
                                .code();
    const StatusCode got =
        (is_assert ? loaded.Assert(tr, t) : loaded.Retract(tr, t)).code();
    ASSERT_EQ(got, want) << "op " << i;
  }
  EXPECT_EQ(loaded.live_size(), original.live_size());
  EXPECT_EQ(testutil::CanonicalScan(loaded, PatternSpec{}),
            testutil::CanonicalScan(original, PatternSpec{}));
  Status st = analysis::ValidateTemporalGraph(loaded);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace rdftx
