// live-ingest: the GovTrack history replayed through one LiveStore as
// time-ordered assert/retract deltas from one writer thread.
//
// Set-up preloads most of the history (fsync off, as a bulk import
// would) and folds it into the first checkpoint. The rest is written in
// cycles with fsync on every acknowledged write: every few writes a
// selection or join runs on a fresh Snapshot() epoch, every few
// thousand deltas an explicit Checkpoint() runs, and each cycle ends
// with a reopen (OpenOrRecover) of its directory. Every cycle starts
// from a copy of the set-up directory, so all cycles replay the same
// deltas and a run's length only changes how many cycles it holds.
//
// Live queries take the engine's row fallback (no vectorized scan, no
// optimizer), so read-path changes should not move this workload and
// write-path and epoch-overlay changes show only here.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/naive_store.h"
#include "core/live_store.h"
#include "engine/executor.h"
#include "query_trace.h"
#include "util/rng.h"
#include "workload/govtrack_gen.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using rdftx::Chronon;
using rdftx::Dictionary;
using rdftx::LiveStore;
using rdftx::TemporalTriple;
using rdftx::Triple;

/// Share of the history's deltas preloaded during set-up.
constexpr double kPreloadShare = 0.75;
/// A fresh-epoch query runs after every this many acknowledged writes.
constexpr size_t kQueryEvery = 8;
/// Checkpoints per cycle; the cycle's tail is split into this many
/// intervals plus a half interval, so the closing reopen has a backlog
/// to replay.
constexpr double kCheckpointsPerCycle = 4;
/// Live queries compared with the oracle at each checkpoint boundary;
/// successive boundaries take successive slices of the query set.
constexpr size_t kOracleQueries = 32;

struct Event {
  Chronon at = 0;
  bool is_assert = true;
  Triple t;
};

/// The history as deltas in time order: per-triple validity coalesced,
/// retracts before asserts at equal times (as TemporalGraph::Load does).
std::vector<Event> HistoryEvents(const rdftx::workload::Dataset& d) {
  std::map<Triple, rdftx::TemporalSet> by_triple;
  for (const TemporalTriple& tt : d.triples) {
    if (!tt.iv.empty()) by_triple[tt.triple].Add(tt.iv);
  }
  std::vector<Event> evs;
  for (const auto& [t, set] : by_triple) {
    for (const rdftx::Interval& run : set.runs()) {
      evs.push_back({run.start, true, t});
      if (run.end != rdftx::kChrononNow) evs.push_back({run.end, false, t});
    }
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Event& x, const Event& y) {
    return x.at != y.at ? x.at < y.at : x.is_assert < y.is_assert;
  });
  return evs;
}

/// The interval history the first `n` deltas denote (open runs end now).
std::vector<TemporalTriple> IntervalsFrom(const std::vector<Event>& evs,
                                          size_t n) {
  std::map<Triple, Chronon> open;
  std::vector<TemporalTriple> out;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = evs[i];
    if (e.is_assert) {
      open[e.t] = e.at;
    } else {
      out.push_back({e.t, rdftx::Interval(open[e.t], e.at)});
      open.erase(e.t);
    }
  }
  for (const auto& [t, start] : open) {
    out.push_back({t, rdftx::Interval(start, rdftx::kChrononNow)});
  }
  return out;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

rdftx::LiveStoreOptions DurableOptions() {
  rdftx::LiveStoreOptions o;
  o.sync_writes = true;
  o.group_commit = true;
  return o;
}

std::unique_ptr<LiveStore> Open(const std::string& dir,
                                const rdftx::LiveStoreOptions& o) {
  auto store = LiveStore::OpenOrRecover(dir, o);
  if (!store.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", dir.c_str(),
                 store.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*store);
}

/// Everything one run of the workload shares.
struct Live {
  Dictionary* dict = nullptr;
  std::vector<Event> events;
  size_t preload = 0;
  size_t checkpoint_every = 0;
  std::vector<std::string> queries;
  std::string base_dir;
  std::string cycle_dir;
};

/// Samples gathered over all cycles of a run.
struct LiveSamples {
  std::vector<double> write_s, query_s, query_cpu_s, checkpoint_s, recovery_s;
  std::vector<double> snapshot_s, first_s, repeat_s;
  std::vector<double> snapshot_bytes_per_triple, store_bytes_per_triple;
  uint64_t result_rows = 0;
  uint64_t writes = 0;
  double live_wall_s = 0;
  uint64_t wal_bytes = 0;
  uint64_t backlog_max = 0;
  double overlay_deltas = 0;
  uint64_t epochs_queried = 0;
  uint64_t recovered_records = 0;
  size_t next_query = 0;
  size_t next_check = 0;
  uint64_t qid = 0;
  LayerTotals layers;
};

/// Oracle check of an epoch (untimed): the next kOracleQueries live
/// queries against a NaiveStore loaded with the first `prefix` deltas.
void CheckEpoch(const Live& live, const rdftx::Epoch& epoch, size_t prefix,
                LiveSamples* s, Outcome* out, double* bytes_per_triple) {
  const std::vector<TemporalTriple> history =
      IntervalsFrom(live.events, prefix);
  rdftx::NaiveStore naive;
  if (!naive.Load(history).ok()) {
    out->invariant_broken = true;
    return;
  }
  if (bytes_per_triple != nullptr) {
    *bytes_per_triple =
        static_cast<double>(epoch.MemoryUsage()) /
        static_cast<double>(std::max<size_t>(history.size(), 1));
  }
  rdftx::engine::QueryEngine oracle(&naive, live.dict);
  rdftx::engine::QueryEngine engine(&epoch, live.dict);
  for (size_t i = 0; i < kOracleQueries; ++i) {
    const std::string& q = live.queries[s->next_check++ % live.queries.size()];
    ++out->attempted;
    auto want = oracle.Execute(q);
    auto got = engine.Execute(q);
    if (!want.ok() || !got.ok() ||
        ResultFingerprint(*want) != ResultFingerprint(*got)) {
      ++out->failed;
      std::fprintf(stderr, "live oracle mismatch at delta %zu: %s\n", prefix,
                   q.c_str());
    }
  }
}

/// One fresh-epoch query (and, traced, a repeat on the same epoch).
void LiveQuery(const Live& live, const LiveStore& store, bool traced,
               rdftx::engine::BlockPool* pool, Tracer* tracer, LiveSamples* s,
               Outcome* out) {
  const std::string& text = live.queries[s->next_query++ % live.queries.size()];
  const uint64_t qid = s->qid++;
  const int snap = traced ? tracer->Begin("core.snapshot", qid) : -1;
  const double t0 = WallNow();
  std::shared_ptr<const rdftx::Epoch> epoch = store.Snapshot();
  const double t1 = WallNow();
  if (traced) tracer->End(snap);
  s->snapshot_s.push_back(t1 - t0);
  s->backlog_max = std::max(s->backlog_max, store.delta_backlog());
  s->overlay_deltas += static_cast<double>(epoch->delta_count());
  ++s->epochs_queried;
  rdftx::engine::QueryEngine engine(epoch.get(), live.dict);
  ++out->attempted;
  if (!traced) {
    const double c0 = CpuNow();
    const double q0 = WallNow();
    auto r = engine.Execute(text);
    const double q1 = WallNow();
    s->query_cpu_s.push_back(CpuNow() - c0);
    if (!r.ok()) {
      ++out->failed;
      std::fprintf(stderr, "live query failed (%s): %s\n",
                   r.status().ToString().c_str(), text.c_str());
      return;
    }
    s->query_s.push_back(q1 - q0);
    s->result_rows += r->rows.size();
    return;
  }
  QueryTrace first, repeat;
  const int fs_span = tracer->Begin("rdf.epoch_first_query", qid);
  auto r1 = TracedQuery(engine, *epoch, *live.dict, nullptr, text, qid, pool,
                        tracer, &first, fs_span);
  tracer->End(fs_span);
  const int rs_span = tracer->Begin("rdf.epoch_repeat_query", qid);
  auto r2 = TracedQuery(engine, *epoch, *live.dict, nullptr, text, qid, pool,
                        tracer, &repeat, rs_span);
  tracer->End(rs_span);
  if (!r1.ok() || !r2.ok() ||
      ResultFingerprint(*r1) != ResultFingerprint(*r2)) {
    ++out->failed;
    std::fprintf(stderr, "traced live query failed: %s\n", text.c_str());
    return;
  }
  if (!first.replay_matches || !repeat.replay_matches) {
    out->invariant_broken = true;
    std::fprintf(stderr, "join replay mismatch on a live epoch: %s\n",
                 text.c_str());
  }
  s->first_s.push_back(first.root_s);
  s->repeat_s.push_back(repeat.root_s);
  s->layers.Add(first);
}

/// One cycle: copy the set-up directory, write the tail with queries
/// and checkpoints until it ends or `deadline` passes, then reopen.
void RunCycle(const Live& live, bool traced, double deadline,
              rdftx::engine::BlockPool* pool, Tracer* tracer, LiveSamples* s,
              Outcome* out) {
  std::error_code ec;
  fs::remove_all(live.cycle_dir, ec);
  fs::copy(live.base_dir, live.cycle_dir, fs::copy_options::recursive, ec);
  if (ec) {
    std::fprintf(stderr, "cannot copy the set-up store: %s\n",
                 ec.message().c_str());
    out->invariant_broken = true;
    return;
  }
  std::unique_ptr<LiveStore> store = Open(live.cycle_dir, DurableOptions());
  if (store == nullptr) {
    out->invariant_broken = true;
    return;
  }
  double excluded = 0;  // oracle checks and WAL size probes
  uint64_t wal_base = WalBytes(live.cycle_dir);
  size_t since_checkpoint = 0;
  size_t written = 0;
  const double start = WallNow();
  for (size_t i = live.preload; i < live.events.size(); ++i) {
    if (written > 0 && WallNow() >= deadline) break;
    const Event& e = live.events[i];
    const int span = traced ? tracer->Begin(e.is_assert ? "core.assert_id"
                                                        : "core.retract_id",
                                            i)
                            : -1;
    const double t0 = WallNow();
    const rdftx::Status st =
        e.is_assert ? store->AssertId(e.t, e.at) : store->RetractId(e.t, e.at);
    const double t1 = WallNow();
    if (traced) tracer->End(span);
    ++out->attempted;
    if (!st.ok()) {
      ++out->failed;
      std::fprintf(stderr, "write %zu failed: %s\n", i, st.ToString().c_str());
      break;
    }
    s->write_s.push_back(t1 - t0);
    ++written;
    ++since_checkpoint;
    if (written % kQueryEvery == 0) {
      LiveQuery(live, *store, traced, pool, tracer, s, out);
    }
    if (since_checkpoint == live.checkpoint_every) {
      const double x0 = WallNow();
      CheckEpoch(live, *store->Snapshot(), live.preload + written, s, out,
                 nullptr);
      s->wal_bytes += WalBytes(live.cycle_dir) - wal_base;
      const double x1 = WallNow();
      const int span_c = traced ? tracer->Begin("core.checkpoint", i) : -1;
      const rdftx::Status cst = store->Checkpoint();
      const double x2 = WallNow();
      if (traced) tracer->End(span_c);
      ++out->attempted;
      if (!cst.ok()) {
        ++out->failed;
        std::fprintf(stderr, "checkpoint failed: %s\n", cst.ToString().c_str());
        break;
      }
      s->checkpoint_s.push_back(x2 - x1);
      wal_base = WalBytes(live.cycle_dir);
      s->snapshot_bytes_per_triple.push_back(
          static_cast<double>(
              fs::file_size(live.cycle_dir + "/snapshot.rtxsnap", ec)) /
          static_cast<double>(
              IntervalsFrom(live.events, live.preload + written).size()));
      since_checkpoint = 0;
      excluded += (x1 - x0) + (WallNow() - x2);
    }
  }
  const double x0 = WallNow();
  s->live_wall_s += x0 - start - excluded;
  s->writes += written;
  s->wal_bytes += WalBytes(live.cycle_dir) - wal_base;
  double bpt = 0;
  CheckEpoch(live, *store->Snapshot(), live.preload + written, s, out, &bpt);
  s->store_bytes_per_triple.push_back(bpt);
  store.reset();

  const int span_r = traced ? tracer->Begin("storage.open_or_recover", 0) : -1;
  const double r0 = WallNow();
  store = Open(live.cycle_dir, DurableOptions());
  const double r1 = WallNow();
  if (traced) tracer->End(span_r);
  ++out->attempted;
  if (store == nullptr) {
    ++out->failed;
    return;
  }
  s->recovery_s.push_back(r1 - r0);
  s->recovered_records += since_checkpoint;
  // Durability: the reopened store must hold every acknowledged write.
  CheckEpoch(live, *store->Snapshot(), live.preload + written, s, out,
             nullptr);
  store.reset();
  fs::remove_all(live.cycle_dir, ec);
}

/// Set-up: preload with fsync off, then the first checkpoint.
bool Preload(const Live& live, const std::string& dir, double* preload_s,
             double* checkpoint_s) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  rdftx::LiveStoreOptions bulk;
  bulk.sync_writes = false;
  const double t0 = WallNow();
  std::unique_ptr<LiveStore> store = Open(dir, bulk);
  if (store == nullptr) return false;
  // Intern the fixture's terms in id order so its ids are the store's.
  for (rdftx::TermId id = 1; id <= live.dict->size(); ++id) {
    auto got = store->InternTerm(live.dict->Decode(id));
    if (!got.ok() || *got != id) {
      std::fprintf(stderr, "term %llu interned out of order\n",
                   static_cast<unsigned long long>(id));
      return false;
    }
  }
  for (size_t i = 0; i < live.preload; ++i) {
    const Event& e = live.events[i];
    const rdftx::Status st =
        e.is_assert ? store->AssertId(e.t, e.at) : store->RetractId(e.t, e.at);
    if (!st.ok()) {
      std::fprintf(stderr, "preload write %zu failed: %s\n", i,
                   st.ToString().c_str());
      return false;
    }
  }
  const double t1 = WallNow();
  const rdftx::Status st = store->Checkpoint();
  const double t2 = WallNow();
  if (!st.ok()) {
    std::fprintf(stderr, "first checkpoint failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  *preload_s = t1 - t0;
  *checkpoint_s = t2 - t1;
  return true;
}

}  // namespace

void RunLiveWorkload(const Options& opt, Metrics* m, Outcome* out) {
  rdftx::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 3);
  Dictionary dict;
  const rdftx::workload::Dataset data = rdftx::workload::GenerateGovTrack(
      &dict, {.num_triples = static_cast<size_t>(60000.0 * opt.scale),
              .seed = rng.Next()});
  Live live;
  live.dict = &dict;
  live.events = HistoryEvents(data);
  live.preload = static_cast<size_t>(kPreloadShare *
                                     static_cast<double>(live.events.size()));
  const size_t tail = live.events.size() - live.preload;
  live.checkpoint_every = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(tail) /
                             (kCheckpointsPerCycle + 0.5)));
  live.queries = rdftx::workload::MakeSelectionQueries(data, dict, 144, &rng);
  for (std::string& q :
       rdftx::workload::MakeJoinQueries(data, dict, 48, &rng)) {
    live.queries.push_back(std::move(q));
  }
  live.base_dir = opt.work_dir + "/live-base";
  live.cycle_dir = opt.work_dir + "/live-cycle";

  InputHash h;
  for (const Event& e : live.events) {
    const uint64_t rec[5] = {e.at, e.is_assert ? 1u : 0u, e.t.s, e.t.p, e.t.o};
    h.Add(rec, sizeof(rec));
  }
  for (rdftx::TermId id = 1; id <= dict.size(); ++id) h.Add(dict.Decode(id));
  for (const std::string& q : live.queries) h.Add(q);
  std::printf("inputs: workload=%s seed=%llu fingerprint=%016llx triples=%zu "
              "terms=%zu deltas=%zu preload=%zu tail=%zu "
              "distinct_queries=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(h.value()), data.triples.size(),
              dict.size(), live.events.size(), live.preload, tail,
              live.queries.size());
  std::printf("flush: sync_writes=on (fsync before every ack) group_commit=on "
              "(one writer, so every commit is its own group) "
              "checkpoint=explicit every %zu deltas, query every %zu writes\n",
              live.checkpoint_every, kQueryEvery);

  std::vector<double> preload_s, checkpoint_s, total;
  while (MoreSetups(total)) {
    double p = 0, c = 0;
    if (!Preload(live, live.base_dir, &p, &c)) {
      out->invariant_broken = true;
      return;
    }
    preload_s.push_back(p);
    checkpoint_s.push_back(c);
    total.push_back(p + c);
  }

  LiveSamples s;
  Tracer tracer;
  rdftx::engine::BlockPool pool;
  const double begin = WallNow();
  const double untraced_end =
      begin + (opt.trace ? opt.seconds / 2 : opt.seconds);
  do {
    RunCycle(live, false, untraced_end, &pool, &tracer, &s, out);
  } while (WallNow() < untraced_end && !out->invariant_broken);
  if (opt.trace) {
    const double end = begin + opt.seconds;
    do {
      RunCycle(live, true, end, &pool, &tracer, &s, out);
    } while (WallNow() < end && !out->invariant_broken);
  }
  std::error_code ec;
  fs::remove_all(live.base_dir, ec);

  double query_wall = 0;
  for (double x : s.query_s) query_wall += x;
  std::printf("timed: writes=%llu query_samples=%zu beyond_p95=%zu "
              "checkpoints=%zu reopens=%zu backlog_max=%llu\n",
              static_cast<unsigned long long>(s.writes), s.query_s.size(),
              SamplesBeyond(s.query_s.size(), 0.95), s.checkpoint_s.size(),
              s.recovery_s.size(),
              static_cast<unsigned long long>(s.backlog_max));

  m->Set("setup_s", Median(total), "s");
  m->Set("query_p50_ms", Median(s.query_s) * 1e3, "ms");
  m->Set("query_p95_ms", Percentile(s.query_s, 0.95) * 1e3, "ms");
  m->Set("query_cpu_ms", Median(s.query_cpu_s) * 1e3, "ms");
  m->Set("result_rows_per_s",
         query_wall > 0 ? static_cast<double>(s.result_rows) / query_wall : 0,
         "rows/s");
  m->Set("store_bytes_per_triple", Median(s.store_bytes_per_triple), "B");

  if (!opt.trace) return;
  s.layers.Print("live");
  PrintSpanSummary(tracer);
  const std::string path = opt.work_dir + "/trace_" + opt.workload + "_" +
                           std::to_string(opt.seed) + ".jsonl";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  s.layers.SetMetrics(Median(s.query_s), m);
  const double first_us = Mean(s.first_s) * 1e6;
  const double repeat_us = Mean(s.repeat_s) * 1e6;
  double recovery_total = 0;
  for (double x : s.recovery_s) recovery_total += x;
  m->Set("core.write_p50_us", Median(s.write_s) * 1e6, "us");
  m->Set("core.write_p99_us", Percentile(s.write_s, 0.99) * 1e6, "us");
  m->Set("core.writes_per_s",
         s.live_wall_s > 0 ? static_cast<double>(s.writes) / s.live_wall_s : 0,
         "1/s");
  m->Set("core.checkpoint_p50_ms", Median(s.checkpoint_s) * 1e3, "ms");
  m->Set("core.snapshot_us", Mean(s.snapshot_s) * 1e6, "us");
  m->Set("core.delta_backlog_max", static_cast<double>(s.backlog_max), "count");
  m->Set("rdf.epoch_first_query_us", first_us, "us");
  m->Set("rdf.epoch_repeat_query_us", repeat_us, "us");
  m->Set("rdf.overlay_build_us", first_us - repeat_us, "us");
  m->Set("rdf.overlay_deltas_mean",
         s.epochs_queried > 0
             ? s.overlay_deltas / static_cast<double>(s.epochs_queried)
             : 0,
         "count");
  m->Set("storage.recovery_s", Median(s.recovery_s), "s");
  m->Set("storage.wal_bytes_per_write",
         s.writes > 0 ? static_cast<double>(s.wal_bytes) /
                            static_cast<double>(s.writes)
                      : 0,
         "B");
  m->Set("storage.snapshot_bytes_per_triple",
         Median(s.snapshot_bytes_per_triple), "B");
  m->Set("storage.recovery_records_per_s",
         recovery_total > 0
             ? static_cast<double>(s.recovered_records) / recovery_total
             : 0,
         "1/s");
  m->Set("setup.preload_s", Median(preload_s), "s");
  m->Set("setup.load_s", Median(checkpoint_s), "s");
  m->Set("setup.compress_s", 0, "s");
  m->Set("setup.stats_s", 0, "s");
}

void ZeroLiveLayerMetrics(Metrics* m) {
  for (const char* name :
       {"core.write_p50_us", "core.write_p99_us", "core.snapshot_us",
        "rdf.epoch_first_query_us", "rdf.epoch_repeat_query_us",
        "rdf.overlay_build_us"}) {
    m->Set(name, 0, "us");
  }
  m->Set("core.writes_per_s", 0, "1/s");
  m->Set("core.checkpoint_p50_ms", 0, "ms");
  m->Set("core.delta_backlog_max", 0, "count");
  m->Set("rdf.overlay_deltas_mean", 0, "count");
  m->Set("storage.recovery_s", 0, "s");
  m->Set("storage.wal_bytes_per_write", 0, "B");
  m->Set("storage.snapshot_bytes_per_triple", 0, "B");
  m->Set("storage.recovery_records_per_s", 0, "1/s");
}

}  // namespace perfbench
