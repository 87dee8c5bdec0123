// LiveStore durability tests: oracle conformance of the epoch read
// path, recovery across reopen, every-prefix torn-WAL truncation,
// crash-mid-checkpoint convergence (fault injection at every phase), a
// checkpoint that leaves a backlog of writes made during its fold,
// concurrent reader/writer prefix visibility, and the commit-mode
// (group / non-group / no-sync) equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "baselines/naive_store.h"
#include "core/live_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "store_test_util.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace rdftx {
namespace {

namespace fs = std::filesystem;

using testutil::CanonicalScan;

// Event-workload universe: ids 1..kMaxId (subjects 1..4, predicates
// 1..2, objects 1..5 all drawn from the same interned pool).
constexpr uint64_t kSubjects = 4;
constexpr uint64_t kPredicates = 2;
constexpr uint64_t kObjects = 5;
constexpr uint64_t kMaxId = 5;

std::string TempDir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / name;
  fs::remove_all(p);
  return p.string();
}

void CopyDir(const std::string& src, const std::string& dst) {
  fs::remove_all(dst);
  fs::copy(src, dst, fs::copy_options::recursive);
}

/// One write in an assert/retract event history.
struct Event {
  bool is_assert;
  Triple triple;
  Chronon at;
};

/// A random, always-valid event history: times strictly increase, an
/// assert targets a dead triple, a retract a live one.
std::vector<Event> RandomEvents(Rng* rng, size_t n) {
  std::map<Triple, bool> live;
  std::vector<Event> out;
  Chronon t = 1;
  while (out.size() < n) {
    const Triple tr{1 + rng->Uniform(kSubjects), 1 + rng->Uniform(kPredicates),
                    1 + rng->Uniform(kObjects)};
    const bool assert_it = !live[tr];
    out.push_back(Event{assert_it, tr, t});
    live[tr] = assert_it;
    t += 1 + static_cast<Chronon>(rng->Uniform(3));
  }
  return out;
}

/// The interval history an event prefix denotes (open runs end at now).
std::vector<TemporalTriple> IntervalsFrom(const std::vector<Event>& events) {
  std::map<Triple, Chronon> open;
  std::vector<TemporalTriple> out;
  for (const Event& e : events) {
    if (e.is_assert) {
      open[e.triple] = e.at;
    } else {
      out.push_back(TemporalTriple{e.triple, Interval(open[e.triple], e.at)});
      open.erase(e.triple);
    }
  }
  for (const auto& [tr, start] : open) {
    out.push_back(TemporalTriple{tr, Interval(start, kChrononNow)});
  }
  return out;
}

/// Interns "term-1".."term-5" so id-level writes can use ids 1..kMaxId.
void InternUniverse(LiveStore* store) {
  for (uint64_t i = 1; i <= kMaxId; ++i) {
    auto id = store->InternTerm("term-" + std::to_string(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(*id, i);
  }
}

void ApplyEvents(LiveStore* store, const std::vector<Event>& events) {
  for (const Event& e : events) {
    const Status st = e.is_assert ? store->AssertId(e.triple, e.at)
                                  : store->RetractId(e.triple, e.at);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

/// Scans `store` against a NaiveStore loaded with the event history:
/// the full pattern plus `queries` random ones.
void ExpectMatchesEvents(const TemporalStore& store,
                         const std::vector<Event>& events, uint64_t seed,
                         int queries) {
  NaiveStore naive;
  ASSERT_TRUE(naive.Load(IntervalsFrom(events)).ok());
  EXPECT_EQ(CanonicalScan(store, PatternSpec{}),
            CanonicalScan(naive, PatternSpec{}));
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    const PatternSpec spec = testutil::RandomPattern(
        &rng, kSubjects, kPredicates, kObjects, /*horizon=*/500);
    EXPECT_EQ(CanonicalScan(store, spec), CanonicalScan(naive, spec))
        << "query " << q << " pattern s=" << spec.s << " p=" << spec.p
        << " o=" << spec.o << " time=" << spec.time.ToString();
  }
}

TEST(LiveStoreTest, FreshStoreMatchesNaiveOracle) {
  const std::string dir = TempDir("rdftx_live_oracle");
  auto store = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  InternUniverse(store->get());

  Rng rng(41);
  const auto events = RandomEvents(&rng, 200);
  ApplyEvents(store->get(), events);

  ExpectMatchesEvents(*(*store)->Snapshot(), events, /*seed=*/17,
                      /*queries=*/60);
  EXPECT_EQ((*store)->last_durable_lsn(), kMaxId + events.size());
  fs::remove_all(dir);
}

TEST(LiveStoreTest, DurableAcrossReopenWithoutCheckpoint) {
  const std::string dir = TempDir("rdftx_live_reopen");
  Rng rng(42);
  const auto events = RandomEvents(&rng, 120);
  {
    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), events);
  }
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectMatchesEvents(*(*reopened)->Snapshot(), events, /*seed=*/18,
                      /*queries=*/40);
  // The dictionary came back too, and the store accepts further writes.
  EXPECT_EQ((*reopened)->LookupTerm("term-3"), 3u);
  auto decoded = (*reopened)->DecodeTerm(kMaxId);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "term-" + std::to_string(kMaxId));
  ASSERT_TRUE(
      (*reopened)->Assert("fresh-s", "fresh-p", "fresh-o", 10000).ok());
  EXPECT_NE((*reopened)->LookupTerm("fresh-s"), kInvalidTerm);
  fs::remove_all(dir);
}

TEST(LiveStoreTest, StringWritesRecoverTermsAndDeltas) {
  const std::string dir = TempDir("rdftx_live_strings");
  {
    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Assert("alice", "knows", "bob", 10).ok());
    ASSERT_TRUE((*store)->Assert("bob", "knows", "alice", 11).ok());
    ASSERT_TRUE((*store)->Retract("alice", "knows", "bob", 20).ok());
    // Re-assert after retract: same terms, no new dictionary entries.
    ASSERT_TRUE((*store)->Assert("alice", "knows", "bob", 30).ok());
  }
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const TermId alice = (*reopened)->LookupTerm("alice");
  const TermId knows = (*reopened)->LookupTerm("knows");
  const TermId bob = (*reopened)->LookupTerm("bob");
  ASSERT_NE(alice, kInvalidTerm);
  ASSERT_NE(knows, kInvalidTerm);
  ASSERT_NE(bob, kInvalidTerm);
  auto snap = (*reopened)->Snapshot();
  EXPECT_EQ(snap->Validity(Triple{alice, knows, bob}),
            TemporalSet::FromIntervals(
                {Interval(10, 20), Interval(30, kChrononNow)}));
  EXPECT_EQ(snap->Validity(Triple{bob, knows, alice}),
            TemporalSet::FromIntervals({Interval(11, kChrononNow)}));
  fs::remove_all(dir);
}

TEST(LiveStoreTest, RejectedWritesLeaveNoTrace) {
  const std::string dir = TempDir("rdftx_live_rejects");
  Rng rng(43);
  const auto events = RandomEvents(&rng, 40);
  {
    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), events);
    const Chronon t = events.back().at + 1;
    // A currently-live triple cannot be asserted, a dead one cannot be
    // retracted, time cannot go backwards, ids must be known.
    Triple live{0, 0, 0}, dead{0, 0, 0};
    bool have_live = false, have_dead = false;
    std::map<Triple, bool> state;
    for (const Event& e : events) state[e.triple] = e.is_assert;
    for (const auto& [tr, is_live] : state) {
      (is_live ? live : dead) = tr;
      (is_live ? have_live : have_dead) = true;
    }
    ASSERT_TRUE(have_live);
    ASSERT_TRUE(have_dead);
    EXPECT_EQ((*store)->AssertId(live, t).code(), StatusCode::kAlreadyExists);
    EXPECT_EQ((*store)->RetractId(dead, t).code(), StatusCode::kNotFound);
    EXPECT_EQ((*store)->AssertId(dead, 0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*store)->AssertId(Triple{kMaxId + 7, 1, 1}, t).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*store)->Retract("never", "seen", "terms", t).code(),
              StatusCode::kNotFound);
    // A failed string-level write must not have interned anything.
    EXPECT_EQ((*store)->LookupTerm("never"), kInvalidTerm);
    // The store still works after rejections.
    ASSERT_TRUE((*store)->AssertId(dead, t).ok());
  }
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->LookupTerm("never"), kInvalidTerm);
  EXPECT_EQ((*reopened)->last_durable_lsn(), kMaxId + events.size() + 1);
  fs::remove_all(dir);
}

TEST(LiveStoreTest, BackdatedWritesFailTheSameWithOrWithoutNewTerms) {
  const std::string dir = TempDir("rdftx_live_backdated");
  auto store = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Assert("alice", "knows", "bob", 20).ok());
  ASSERT_TRUE((*store)->Retract("alice", "knows", "bob", 30).ok());

  // Same backdated assert, over known terms and with a never-seen one.
  const Status known = (*store)->Assert("alice", "knows", "bob", 10);
  const Status fresh = (*store)->Assert("alice", "knows", "carol", 10);
  EXPECT_EQ(known.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.code(), known.code());
  EXPECT_EQ(fresh.message(), known.message());

  // Time is checked before liveness, so a backdated retract of a
  // never-live triple is a time error too.
  const Status retract = (*store)->Retract("alice", "knows", "dave", 10);
  EXPECT_EQ(retract.code(), known.code());
  EXPECT_EQ(retract.message(), known.message());
  EXPECT_EQ((*store)->LookupTerm("carol"), kInvalidTerm);
  fs::remove_all(dir);
}

TEST(LiveStoreTest, CheckpointFoldsLogAndCleansSegments) {
  const std::string dir = TempDir("rdftx_live_ckpt");
  Rng rng(44);
  const auto events = RandomEvents(&rng, 150);
  const std::vector<Event> first(events.begin(), events.begin() + 100);
  const std::vector<Event> rest(events.begin() + 100, events.end());
  uint64_t ckpt_lsn = 0;
  {
    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), first);
    EXPECT_EQ((*store)->delta_backlog(), first.size());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ckpt_lsn = (*store)->last_durable_lsn();
    EXPECT_EQ((*store)->delta_backlog(), 0u);
    // The snapshot exists, the old segment is gone, a fresh one is live.
    EXPECT_TRUE(fs::exists(dir + "/snapshot.rtxsnap"));
    EXPECT_FALSE(fs::exists(dir + "/" + storage::WalSegmentFileName(1)));
    EXPECT_TRUE(fs::exists(dir + "/" + storage::WalSegmentFileName(2)));
    // Reads and writes continue on the folded base.
    ExpectMatchesEvents(*(*store)->Snapshot(), first, /*seed=*/19,
                        /*queries=*/30);
    ApplyEvents(store->get(), rest);
    ExpectMatchesEvents(*(*store)->Snapshot(), events, /*seed=*/20,
                        /*queries=*/30);
    // A second checkpoint folds the remainder.
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_FALSE(fs::exists(dir + "/" + storage::WalSegmentFileName(2)));
    EXPECT_TRUE(fs::exists(dir + "/" + storage::WalSegmentFileName(3)));
  }
  // The checkpoint snapshot carries the wal-state section (the fold
  // horizon), so recovery knows which records are already covered.
  {
    TemporalGraph graph{TemporalGraphOptions{}};
    Dictionary dict;
    uint64_t lsn = 0;
    ASSERT_TRUE(
        storage::ReadSnapshot(dir + "/snapshot.rtxsnap", &graph, &dict, &lsn)
            .ok());
    EXPECT_EQ(lsn, kMaxId + events.size());
    EXPECT_EQ(dict.size(), kMaxId);
  }
  EXPECT_GT(ckpt_lsn, 0u);
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectMatchesEvents(*(*reopened)->Snapshot(), events, /*seed=*/21,
                      /*queries=*/40);
  fs::remove_all(dir);
}

// Writes that land while a checkpoint folds are published on top of the
// captured chunks, and publishing merges the two kinds into one chunk.
// The installed epoch must keep exactly the deltas the fold did not
// cover, and later writes must validate against the new base.
TEST(LiveStoreTest, CheckpointMidBacklogKeepsExactlyTheNewerDeltas) {
  const std::string dir = TempDir("rdftx_live_mid_ckpt");
  LiveStoreOptions options;
  options.sync_writes = false;
  Rng rng(48);
  const auto events = RandomEvents(&rng, 140);
  // 103 = 64 + 32 + 4 + 2 + 1 single-delta chunks; the first write
  // during the fold merges the three newest with it.
  const std::vector<Event> first(events.begin(), events.begin() + 103);
  const std::vector<Event> during(events.begin() + 103, events.begin() + 120);
  const std::vector<Event> after(events.begin() + 120, events.end());
  auto store = LiveStore::OpenOrRecover(dir, options);
  ASSERT_TRUE(store.ok());
  InternUniverse(store->get());
  ApplyEvents(store->get(), first);
  uint64_t ckpt_lsn = 0;
  bool merged_across = false;
  (*store)->SetCheckpointFaultHookForTest([&](CheckpointPhase at) {
    if (at != CheckpointPhase::kAfterRotate) return Status::OK();
    ckpt_lsn = (*store)->last_durable_lsn();
    ApplyEvents(store->get(), during);
    for (const DeltaChunk* c = (*store)->Snapshot()->head().get();
         c != nullptr; c = c->prev().get()) {
      bool older = false, newer = false;
      for (const Delta& d : c->deltas()) {
        (d.lsn <= ckpt_lsn ? older : newer) = true;
      }
      merged_across |= older && newer;
    }
    return Status::OK();
  });
  ASSERT_TRUE((*store)->Checkpoint().ok());
  EXPECT_EQ(ckpt_lsn, kMaxId + first.size());
  EXPECT_TRUE(merged_across);

  const std::shared_ptr<const Epoch> snap = (*store)->Snapshot();
  std::vector<uint64_t> kept;
  for (const DeltaChunk* c = snap->head().get(); c != nullptr;
       c = c->prev().get()) {
    for (const Delta& d : c->deltas()) kept.push_back(d.lsn);
  }
  std::sort(kept.begin(), kept.end());
  std::vector<uint64_t> want(during.size());
  std::iota(want.begin(), want.end(), ckpt_lsn + 1);
  EXPECT_EQ(kept, want);
  EXPECT_EQ((*store)->delta_backlog(), during.size());
  const std::vector<Event> upto(events.begin(), events.begin() + 120);
  ExpectMatchesEvents(*snap, upto, /*seed=*/25, /*queries=*/30);

  (*store)->SetCheckpointFaultHookForTest(nullptr);
  ApplyEvents(store->get(), after);
  ExpectMatchesEvents(*(*store)->Snapshot(), events, /*seed=*/26,
                      /*queries=*/30);
  store->reset();
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectMatchesEvents(*(*reopened)->Snapshot(), events, /*seed=*/27,
                      /*queries=*/30);
  fs::remove_all(dir);
}

// The tentpole recovery property: truncate the WAL at EVERY byte
// offset; recovery must come back with exactly the history the
// surviving complete records denote (verified against the NaiveStore
// oracle), and the store must accept new writes afterwards.
TEST(LiveStoreTest, TornWalEveryPrefixRecoversToAConsistentPrefix) {
  const std::string dir = TempDir("rdftx_live_torn");
  Rng rng(45);
  const auto events = RandomEvents(&rng, 24);
  {
    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), events);
  }
  const std::string wal_path = dir + "/" + storage::WalSegmentFileName(1);
  std::vector<uint8_t> wal_bytes;
  ASSERT_TRUE(util::ReadFile(wal_path, &wal_bytes).ok());

  const std::string scratch = TempDir("rdftx_live_torn_cut");
  for (size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    CopyDir(dir, scratch);
    fs::resize_file(scratch + "/" + storage::WalSegmentFileName(1), cut);

    // Expected history: replay the same prefix through the format layer.
    std::vector<storage::WalRecord> survivors;
    storage::WalReplayResult replay;
    ASSERT_TRUE(storage::ReplayWal(wal_bytes.data(), cut,
                                   [&](const storage::WalRecord& r) {
                                     survivors.push_back(r);
                                     return Status::OK();
                                   },
                                   &replay)
                    .ok())
        << "cut=" << cut;
    std::vector<Event> expected_events;
    std::vector<std::string> expected_terms;
    for (const storage::WalRecord& r : survivors) {
      if (r.type == storage::WalRecordType::kTerm) {
        expected_terms.push_back(r.term);
      } else {
        expected_events.push_back(
            Event{r.type == storage::WalRecordType::kAssert, r.triple,
                  r.time});
      }
    }

    auto recovered = LiveStore::OpenOrRecover(scratch);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();
    EXPECT_EQ((*recovered)->last_durable_lsn(), survivors.size())
        << "cut=" << cut;
    for (size_t i = 0; i < expected_terms.size(); ++i) {
      auto decoded = (*recovered)->DecodeTerm(i + 1);
      ASSERT_TRUE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(*decoded, expected_terms[i]) << "cut=" << cut;
    }
    {
      NaiveStore naive;
      ASSERT_TRUE(naive.Load(IntervalsFrom(expected_events)).ok());
      ASSERT_EQ(CanonicalScan(*(*recovered)->Snapshot(), PatternSpec{}),
                CanonicalScan(naive, PatternSpec{}))
          << "cut=" << cut;
    }
    // The truncated store must keep accepting (and re-logging) writes.
    if (cut % 49 == 0 || cut == wal_bytes.size()) {
      ASSERT_TRUE((*recovered)->Assert("post", "crash", "write", 9000).ok())
          << "cut=" << cut;
      const uint64_t durable = (*recovered)->last_durable_lsn();
      recovered->reset();
      auto again = LiveStore::OpenOrRecover(scratch);
      ASSERT_TRUE(again.ok()) << "cut=" << cut;
      EXPECT_EQ((*again)->last_durable_lsn(), durable) << "cut=" << cut;
      EXPECT_NE((*again)->LookupTerm("post"), kInvalidTerm) << "cut=" << cut;
    }
  }
  fs::remove_all(dir);
  fs::remove_all(scratch);
}

// Crash-mid-checkpoint: freeze the directory between each pair of
// checkpoint phases (new-segment rotation, snapshot write, segment
// deletion) and recover the frozen copy; every one must converge to the
// full history. The original store must also survive the aborted
// checkpoint: keep writing, checkpoint again, recover.
TEST(LiveStoreTest, CrashMidCheckpointConverges) {
  for (const CheckpointPhase phase :
       {CheckpointPhase::kAfterRotate, CheckpointPhase::kAfterSnapshotWrite,
        CheckpointPhase::kBeforeSegmentDelete}) {
    const int phase_num = static_cast<int>(phase);
    const std::string dir =
        TempDir("rdftx_live_crash_" + std::to_string(phase_num));
    const std::string frozen =
        TempDir("rdftx_live_crash_frozen_" + std::to_string(phase_num));
    Rng rng(50 + static_cast<uint64_t>(phase_num));
    const auto events = RandomEvents(&rng, 80);
    const std::vector<Event> first(events.begin(), events.begin() + 60);
    const std::vector<Event> rest(events.begin() + 60, events.end());

    auto store = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), first);
    (*store)->SetCheckpointFaultHookForTest([&](CheckpointPhase at) {
      if (at != phase) return Status::OK();
      CopyDir(dir, frozen);
      return Status::IoError("injected crash");
    });
    EXPECT_EQ((*store)->Checkpoint().code(), StatusCode::kIoError);

    // The frozen directory is what a real crash at this point leaves.
    auto recovered = LiveStore::OpenOrRecover(frozen);
    ASSERT_TRUE(recovered.ok())
        << "phase " << phase_num << ": " << recovered.status().ToString();
    ExpectMatchesEvents(*(*recovered)->Snapshot(), first,
                        /*seed=*/60 + static_cast<uint64_t>(phase_num),
                        /*queries=*/25);
    // ... and the recovered store checkpoints cleanly from there.
    ApplyEvents(recovered->get(), rest);
    ASSERT_TRUE((*recovered)->Checkpoint().ok()) << "phase " << phase_num;
    ExpectMatchesEvents(*(*recovered)->Snapshot(), events,
                        /*seed=*/70 + static_cast<uint64_t>(phase_num),
                        /*queries=*/25);

    // The original (non-crashed) store rides through the aborted
    // checkpoint: more writes, then a clean checkpoint, then reopen.
    (*store)->SetCheckpointFaultHookForTest(nullptr);
    ApplyEvents(store->get(), rest);
    ASSERT_TRUE((*store)->Checkpoint().ok()) << "phase " << phase_num;
    ExpectMatchesEvents(*(*store)->Snapshot(), events,
                        /*seed=*/80 + static_cast<uint64_t>(phase_num),
                        /*queries=*/25);
    store->reset();
    auto reopened = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(reopened.ok()) << "phase " << phase_num;
    ExpectMatchesEvents(*(*reopened)->Snapshot(), events,
                        /*seed=*/90 + static_cast<uint64_t>(phase_num),
                        /*queries=*/25);
    fs::remove_all(dir);
    fs::remove_all(frozen);
  }
}

// Acceptance criterion: queries keep serving during ingestion. A writer
// asserts subject i at time i; readers snapshot concurrently and must
// always observe an exact, monotonically growing prefix — never a
// partial write, never a regression.
TEST(LiveStoreTest, ConcurrentReadersSeeConsistentPrefixes) {
  const std::string dir = TempDir("rdftx_live_concurrent");
  auto opened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(opened.ok());
  LiveStore* store = opened->get();

  constexpr uint64_t kWrites = 120;
  for (uint64_t i = 1; i <= kWrites; ++i) {
    auto id = store->InternTerm("subject-" + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, i);
  }
  auto p = store->InternTerm("pred");
  auto o = store->InternTerm("obj");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(o.ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= kWrites; ++i) {
      const Status st =
          store->AssertId(Triple{i, *p, *o}, static_cast<Chronon>(i));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t prev = 0;
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load();
        auto snap = store->Snapshot();
        PatternSpec spec;
        spec.p = *p;
        const auto scan = CanonicalScan(*snap, spec);
        const uint64_t k = scan.size();
        // Prefix, no regression, and every triple fully formed.
        EXPECT_GE(k, prev);
        EXPECT_LE(k, kWrites);
        for (const auto& [tr, validity] : scan) {
          EXPECT_GE(tr.s, 1u);
          EXPECT_LE(tr.s, k);
          EXPECT_EQ(tr.p, *p);
          EXPECT_EQ(tr.o, *o);
          EXPECT_EQ(validity,
                    TemporalSet::FromIntervals({Interval(
                        static_cast<Chronon>(tr.s), kChrononNow)}));
        }
        prev = k;
      }
      EXPECT_EQ(prev, kWrites);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  fs::remove_all(dir);
}

// The three commit disciplines must agree on the final state; no-sync
// additionally needs a checkpoint (or clean close) to make it durable.
TEST(LiveStoreTest, CommitModesConvergeToTheSameState) {
  Rng rng(46);
  const auto events = RandomEvents(&rng, 100);

  LiveStoreOptions grouped;
  LiveStoreOptions ungrouped;
  ungrouped.group_commit = false;
  LiveStoreOptions nosync;
  nosync.sync_writes = false;

  std::map<Triple, TemporalSet> scans[3];
  const LiveStoreOptions* options[3] = {&grouped, &ungrouped, &nosync};
  for (int i = 0; i < 3; ++i) {
    const std::string dir =
        TempDir("rdftx_live_mode_" + std::to_string(i));
    auto store = LiveStore::OpenOrRecover(dir, *options[i]);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), events);
    if (i == 2) {
      // Unsynced writes are published but not yet durable; the
      // checkpoint pins them.
      ASSERT_TRUE((*store)->Checkpoint().ok());
    }
    scans[i] = CanonicalScan(*(*store)->Snapshot(), PatternSpec{});
    store->reset();
    auto reopened = LiveStore::OpenOrRecover(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(CanonicalScan(*(*reopened)->Snapshot(), PatternSpec{}),
              scans[i])
        << "mode " << i;
    fs::remove_all(dir);
  }
  EXPECT_EQ(scans[0], scans[1]);
  EXPECT_EQ(scans[0], scans[2]);
}

TEST(LiveStoreTest, BackgroundCheckpointerFoldsTheBacklog) {
  const std::string dir = TempDir("rdftx_live_bg");
  LiveStoreOptions options;
  options.checkpoint_after_deltas = 32;
  Rng rng(47);
  const auto events = RandomEvents(&rng, 160);
  {
    auto store = LiveStore::OpenOrRecover(dir, options);
    ASSERT_TRUE(store.ok());
    InternUniverse(store->get());
    ApplyEvents(store->get(), events);
    // The checkpointer runs asynchronously; give it (bounded) time to
    // drain the backlog below one threshold's worth.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((*store)->delta_backlog() >= options.checkpoint_after_deltas &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_LT((*store)->delta_backlog(), options.checkpoint_after_deltas);
    EXPECT_TRUE(fs::exists(dir + "/snapshot.rtxsnap"));
    ExpectMatchesEvents(*(*store)->Snapshot(), events, /*seed=*/23,
                        /*queries=*/30);
  }
  auto reopened = LiveStore::OpenOrRecover(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectMatchesEvents(*(*reopened)->Snapshot(), events, /*seed=*/24,
                      /*queries=*/30);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rdftx
