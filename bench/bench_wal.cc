// WAL ingestion bench: acked-write throughput of LiveStore under the
// three commit disciplines — group commit (leader/follower, one fsync
// covers a batch of concurrent commits), non-grouped (every commit
// holds the writer lock across its own fsync), and no-sync (append
// only, durability deferred to the checkpoint) — plus recovery replay
// rate and checkpoint fold time on the log the run produced.
//
// Every write is a distinct triple asserted at one shared chronon, so
// writers never conflict and the measured cost is purely the logging
// discipline.
//
// A last section measures live reads: with a fixed backlog of unfolded
// deltas over a checkpoint base, each round publishes one delta and runs
// a query twice on the fresh epoch. It reports the median first and
// repeat latencies and exits nonzero if the two answers differ (or no
// query returns a row). Emits BENCH_wal.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/live_store.h"
#include "engine/executor.h"
#include "util/rng.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;

constexpr int kThreads = 4;

std::string FreshDir(const std::string& name) {
  const auto p = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(p);
  return p.string();
}

std::unique_ptr<LiveStore> MustOpen(const std::string& dir,
                                    const LiveStoreOptions& options) {
  auto store = LiveStore::OpenOrRecover(dir, options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    std::abort();
  }
  return std::move(*store);
}

/// Interns one term per triple-slot id so writers can use AssertId.
void InternIds(LiveStore* store, uint64_t count) {
  for (uint64_t i = 1; i <= count; ++i) {
    auto id = store->InternTerm(std::string("t").append(std::to_string(i)));
    if (!id.ok() || *id != i) {
      std::fprintf(stderr, "intern failed at %llu\n",
                   static_cast<unsigned long long>(i));
      std::abort();
    }
  }
}

/// `threads` writers assert `per_thread` disjoint triples each; returns
/// acked writes per second. All triples share subject-space offsets so
/// ids stay within the interned universe.
double MeasureWrites(LiveStore* store, int threads, uint64_t per_thread,
                     uint64_t max_id) {
  const double secs = TimeSeconds([&] {
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([=] {
        for (uint64_t i = 0; i < per_thread; ++i) {
          // Disjoint (s, p, o) per writer; all at one chronon, so the
          // nondecreasing-time rule never serializes the writers.
          const uint64_t slot = static_cast<uint64_t>(w) * per_thread + i;
          const Triple t{1 + slot % max_id, 1 + (slot / max_id) % max_id,
                         1 + slot / (max_id * max_id)};
          const Status st = store->AssertId(t, 100);
          if (!st.ok()) {
            std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
            std::abort();
          }
        }
      });
    }
    for (auto& t : workers) t.join();
  });
  return static_cast<double>(threads) * static_cast<double>(per_thread) / secs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Fresh-epoch vs repeat query latency: `base` deltas folded by a
/// checkpoint, `backlog` more left in the overlay, then `rounds` rounds
/// of one published delta and one query run twice on the new epoch.
/// Returns false if a repeat answer differs from the first, or if no
/// query returned a row.
bool MeasureEpochQueries(uint64_t base, uint64_t backlog, uint64_t rounds,
                         JsonReport* report) {
  constexpr uint64_t kTerms = 64;
  constexpr uint64_t kPredicates = 8;
  const std::string dir = FreshDir("rdftx_bench_wal_epoch");
  LiveStoreOptions options;
  options.sync_writes = false;
  auto store = MustOpen(dir, options);
  InternIds(store.get(), kTerms);
  Dictionary dict;  // the store's ids, for the query engine
  for (uint64_t i = 1; i <= kTerms; ++i) {
    dict.Intern(std::string("t").append(std::to_string(i)));
  }

  // Random asserts and retracts over a small universe, one per chronon.
  Rng rng(7);
  std::set<Triple> live;
  Chronon at = 1;
  auto write_one = [&] {
    const Triple t{1 + rng.Uniform(kTerms), 1 + rng.Uniform(kPredicates),
                   1 + rng.Uniform(kTerms)};
    const bool is_assert = !live.contains(t);
    const Status st =
        is_assert ? store->AssertId(t, at) : store->RetractId(t, at);
    if (!st.ok()) {
      std::fprintf(stderr, "epoch write failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    if (is_assert) {
      live.insert(t);
    } else {
      live.erase(t);
    }
    ++at;
  };
  for (uint64_t i = 0; i < base; ++i) write_one();
  if (!store->Checkpoint().ok()) {
    std::fprintf(stderr, "epoch checkpoint failed\n");
    std::abort();
  }
  for (uint64_t i = 0; i < backlog; ++i) write_one();

  std::vector<double> first_us, repeat_us;
  uint64_t rows = 0;
  bool same = true;
  for (uint64_t r = 0; r < rounds; ++r) {
    write_one();
    const std::shared_ptr<const Epoch> epoch = store->Snapshot();
    engine::QueryEngine engine(epoch.get(), &dict);
    // A subject selection or a two-pattern star on that subject.
    const std::string s =
        std::string("t").append(std::to_string(1 + r % kTerms));
    const std::string q =
        r % 2 == 0 ? "SELECT ?o ?t { " + s + " t1 ?o ?t }"
                   : "SELECT ?o ?o2 ?t { " + s + " t1 ?o ?t . " + s +
                         " t2 ?o2 ?t }";
    auto timed = [&](std::vector<double>* us) {
      const auto t0 = std::chrono::steady_clock::now();
      auto answer = engine.Execute(q);
      const auto t1 = std::chrono::steady_clock::now();
      us->push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      return answer;
    };
    const auto first = timed(&first_us);
    const auto repeat = timed(&repeat_us);
    if (!first.ok() || !repeat.ok() ||
        CanonicalRows(*first) != CanonicalRows(*repeat)) {
      std::fprintf(stderr, "fresh and repeat answers differ: %s\n", q.c_str());
      same = false;
    } else {
      rows += first->rows.size();
    }
  }
  store.reset();
  std::filesystem::remove_all(dir);

  report->Add("epoch_backlog", backlog);
  report->Add("epoch_rounds", rounds);
  report->Add("epoch_result_rows", rows);
  report->Add("epoch_first_query_us", Median(first_us));
  report->Add("epoch_repeat_query_us", Median(repeat_us));
  PrintSeriesHeader("Live epoch query latency (median)",
                    {"backlog", "rounds", "first_us", "repeat_us"});
  PrintSeriesRow({std::to_string(backlog), std::to_string(rounds),
                  Fmt(Median(first_us)), Fmt(Median(repeat_us))});
  if (rows == 0) {
    std::fprintf(stderr, "live epoch queries returned no rows\n");
    return false;
  }
  return same;
}

}  // namespace

int main() {
  const uint64_t per_thread = Scaled(300);
  const uint64_t total = static_cast<uint64_t>(kThreads) * per_thread;
  // Enough distinct ids that slot -> (s, p, o) never collides.
  const uint64_t max_id = 64;

  JsonReport report("wal");
  report.Add("threads", static_cast<uint64_t>(kThreads));
  report.Add("writes_per_mode", total);
  PrintSeriesHeader("WAL acked-write throughput",
                    {"mode", "threads", "writes", "writes_per_sec"});

  // Group commit: concurrent commits share fsyncs.
  const std::string group_dir = FreshDir("rdftx_bench_wal_group");
  {
    LiveStoreOptions options;  // sync_writes + group_commit on
    auto store = MustOpen(group_dir, options);
    InternIds(store.get(), max_id);
    const double wps = MeasureWrites(store.get(), kThreads, per_thread, max_id);
    report.Add("group_commit_writes_per_sec", wps);
    PrintSeriesRow({"group-commit", std::to_string(kThreads),
                    std::to_string(total), Fmt(wps)});
  }

  // Non-grouped: one fsync per commit, serialized.
  double ungrouped_wps = 0;
  {
    const std::string dir = FreshDir("rdftx_bench_wal_nogroup");
    LiveStoreOptions options;
    options.group_commit = false;
    auto store = MustOpen(dir, options);
    InternIds(store.get(), max_id);
    ungrouped_wps = MeasureWrites(store.get(), kThreads, per_thread, max_id);
    report.Add("ungrouped_writes_per_sec", ungrouped_wps);
    PrintSeriesRow({"per-commit-fsync", std::to_string(kThreads),
                    std::to_string(total), Fmt(ungrouped_wps)});
    std::filesystem::remove_all(dir);
  }

  // No-sync: append-only upper bound (durability from checkpoints).
  {
    const std::string dir = FreshDir("rdftx_bench_wal_nosync");
    LiveStoreOptions options;
    options.sync_writes = false;
    auto store = MustOpen(dir, options);
    InternIds(store.get(), max_id);
    const double wps = MeasureWrites(store.get(), kThreads, per_thread, max_id);
    report.Add("nosync_writes_per_sec", wps);
    PrintSeriesRow({"no-sync", std::to_string(kThreads), std::to_string(total),
                    Fmt(wps)});
    std::filesystem::remove_all(dir);
  }

  // Recovery: replay the group-commit run's log from a cold open.
  {
    const double secs = TimeSeconds([&] {
      auto store = MustOpen(group_dir, LiveStoreOptions{});
      if (store->last_durable_lsn() != total + max_id) {
        std::fprintf(stderr, "recovery lost records\n");
        std::abort();
      }
    });
    report.Add("recovery_seconds", secs);
    report.Add("recovery_records_per_sec",
               static_cast<double>(total + max_id) / secs);
  }

  // Checkpoint: fold that log into a snapshot.
  {
    auto store = MustOpen(group_dir, LiveStoreOptions{});
    const double secs = TimeSeconds([&] {
      const Status st = store->Checkpoint();
      if (!st.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
    });
    report.Add("checkpoint_seconds", secs);
  }
  std::filesystem::remove_all(group_dir);

  const bool epochs_agree =
      MeasureEpochQueries(Scaled(16000), Scaled(2000), Scaled(400), &report);
  report.Write();
  return epochs_agree ? 0 : 1;
}
