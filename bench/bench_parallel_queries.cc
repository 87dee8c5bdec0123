// Concurrent query serving: throughput of ONE shared QueryEngine under
// 1/2/4/8 client threads. A query runs on the thread that calls
// Execute(), so concurrency comes only from the clients. Wall-clock
// queries/s scales only as far as the host has free cores;
// queries_per_cpu_s (queries per second of process CPU time) stays
// comparable on hosts with fewer effective cores than clients. Each
// client count repeats a round of queries until the rounds have spent
// kMinCpuSeconds of process CPU time and reports the median round, so
// one short round's noise does not set the figure. Every client's
// results are checked against the single-client answer, and any failed
// or differing query exits nonzero. Writes BENCH_parallel.json.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "workload/query_gen.h"

namespace {

using namespace rdftx;
using namespace rdftx::bench;

// Executions per timed round, split across clients, and the process
// CPU time the rounds of one client count spend at least.
constexpr int kQueriesPerRound = 240;
constexpr double kMinCpuSeconds = 0.5;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Throughput {
  double wall_qps = 0;
  double cpu_qps = 0;
  double cpu_secs = 0;
  int rounds = 1;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Runs kQueriesPerRound queries split over `clients` threads, then
/// checks every result against `expected` (exits nonzero on any failure
/// or difference).
Throughput MeasureRound(const engine::QueryEngine& engine,
                        const std::vector<std::string>& queries,
                        const std::vector<std::vector<std::string>>& expected,
                        int clients) {
  const int per_client = kQueriesPerRound / clients;
  std::atomic<int> errors{0};
  // Results are kept and checked after the timed run, so the check's
  // cost stays out of the throughput figures.
  std::vector<std::vector<std::pair<size_t, engine::ResultSet>>> results(
      static_cast<size_t>(clients));
  const double cpu_start = ProcessCpuSeconds();
  const double secs = TimeSeconds([&] {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& mine = results[static_cast<size_t>(c)];
        for (int i = 0; i < per_client; ++i) {
          const size_t qi = static_cast<size_t>(c + i) % queries.size();
          auto r = engine.Execute(queries[qi]);
          if (!r.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          mine.emplace_back(qi, std::move(r).value());
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  const double cpu_secs = ProcessCpuSeconds() - cpu_start;
  if (errors.load() != 0) {
    std::fprintf(stderr, "%d clients: %d queries failed\n", clients,
                 errors.load());
    std::exit(1);
  }
  for (int c = 0; c < clients; ++c) {
    for (const auto& [qi, rs] : results[static_cast<size_t>(c)]) {
      if (rs.rows.size() != expected[qi].size() ||
          CanonicalRows(rs) != expected[qi]) {
        std::fprintf(stderr,
                     "%d clients: client %d query %zu returned %zu rows, "
                     "single client %zu (or different rows)\n",
                     clients, c, qi, rs.rows.size(), expected[qi].size());
        std::exit(1);
      }
    }
  }
  const double total = static_cast<double>(per_client * clients);
  return {total / secs, total / cpu_secs, cpu_secs};
}

/// Repeats MeasureRound until the rounds have spent kMinCpuSeconds of
/// process CPU time; returns the median round's rates.
Throughput Measure(const engine::QueryEngine& engine,
                   const std::vector<std::string>& queries,
                   const std::vector<std::vector<std::string>>& expected,
                   int clients) {
  std::vector<double> wall, cpu;
  double spent = 0;
  while (spent < kMinCpuSeconds) {
    const Throughput round = MeasureRound(engine, queries, expected, clients);
    wall.push_back(round.wall_qps);
    cpu.push_back(round.cpu_qps);
    spent += round.cpu_secs;
  }
  return {Median(wall), Median(cpu), spent, static_cast<int>(wall.size())};
}

}  // namespace

int main() {
  Fixture f = MakeWikipedia(Scaled(60000));
  Rng rng(21);
  auto queries = workload::MakeSelectionQueries(f.data, *f.dict, 6, &rng);
  auto joins = workload::MakeJoinQueries(f.data, *f.dict, 4, &rng);
  queries.insert(queries.end(), joins.begin(), joins.end());
  auto bundle = BuildOptimizer(f);
  auto store = BuildStore(System::kRdfTx, f);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware threads: %u\n\n", hw);
  JsonReport report("parallel");
  report.Add("dataset_triples", static_cast<uint64_t>(f.data.triples.size()));
  report.Add("hardware_concurrency", static_cast<uint64_t>(hw));
  report.Add("queries_per_round", static_cast<uint64_t>(kQueriesPerRound));
  report.Add("min_cpu_s_per_client_count", kMinCpuSeconds);

  engine::QueryEngine shared(store.get(), f.dict.get());
  shared.set_join_order_provider(bundle->optimizer->AsProvider());

  // The single-client answer, from a serial pass that also warms the
  // index caches and the dictionary.
  std::vector<std::vector<std::string>> expected;
  for (const auto& q : queries) {
    auto r = shared.Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(CanonicalRows(*r));
  }

  PrintSeriesHeader("Concurrent serving (one shared engine)",
                    {"client_threads", "rounds", "wall_queries_per_s",
                     "queries_per_cpu_s", "wall_speedup"});
  double base_qps = 0.0;
  for (int clients : {1, 2, 4, 8}) {
    const Throughput t = Measure(shared, queries, expected, clients);
    if (clients == 1) base_qps = t.wall_qps;
    PrintSeriesRow({std::to_string(clients), std::to_string(t.rounds),
                    Fmt(t.wall_qps), Fmt(t.cpu_qps),
                    Fmt(t.wall_qps / base_qps)});
    const std::string prefix = "clients_" + std::to_string(clients);
    report.Add(prefix + "_rounds", static_cast<uint64_t>(t.rounds));
    report.Add(prefix + "_wall_queries_per_s", t.wall_qps);
    report.Add(prefix + "_queries_per_cpu_s", t.cpu_qps);
  }
  return report.Write() ? 0 : 1;
}
