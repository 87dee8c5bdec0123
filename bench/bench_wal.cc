// WAL ingestion bench: acked-write throughput of LiveStore under the
// three commit disciplines — group commit (leader/follower, one fsync
// covers a batch of concurrent commits), non-grouped (every commit
// holds the writer lock across its own fsync), and no-sync (append
// only, durability deferred to the checkpoint) — plus recovery replay
// rate and checkpoint fold time on the log the run produced.
//
// Every write is a distinct triple asserted at one shared chronon, so
// writers never conflict and the measured cost is purely the logging
// discipline. Emits BENCH_wal.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/live_store.h"

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

  report.Write();
  return 0;
}
