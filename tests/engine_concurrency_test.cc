// Hammers a single shared QueryEngine from many threads. A correct
// engine is stateless per query (PR "thread-safe concurrent serving"):
// every execution must return exactly the rows a serial run returns, and
// TSan must see no races. Covers plain scans, filters, temporal joins,
// UNION, and OPTIONAL shapes, plus the per-query ExecStats carried on
// the ResultSet. A shared QueryOptimizer must plan
// concurrently without locks: its histogram is immutable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "rdf/temporal_graph.h"
#include "store_test_util.h"
#include "workload/query_gen.h"
#include "workload/wikipedia_gen.h"

namespace rdftx::engine {
namespace {

constexpr int kThreads = 8;
constexpr int kQueriesPerThread = 120;

std::multiset<std::string> Canon(const ResultSet& rs) {
  std::multiset<std::string> rows;
  for (const auto& row : rs.rows) {
    std::string s;
    for (const auto& cell : row) s += cell.ToString() + "|";
    rows.insert(s);
  }
  return rows;
}

// A query mix exercising every execution path in the executor: single
// scans, multi-pattern merge and hash joins, UNION branches, OPTIONAL
// groups, and temporal filters.
std::vector<std::string> QueryMix() {
  return {
      // Plain selection.
      "SELECT ?s ?o ?t { ?s term1 ?o ?t }",
      // Two-pattern subject-star temporal join.
      "SELECT ?s ?o1 ?o2 ?t { ?s term1 ?o1 ?t . ?s term2 ?o2 ?t }",
      // Temporal join with range pushdown.
      "SELECT ?s ?o1 ?o2 ?t { ?s term1 ?o1 ?t . ?s term2 ?o2 ?t . "
      "FILTER(?t <= " + FormatChronon(1000) + ") }",
      // Three patterns (join chain with lazy scans).
      "SELECT ?s ?t { ?s term1 ?a ?t . ?s term2 ?b ?t . ?s term3 ?c ?t }",
      // UNION of two branches.
      "SELECT ?s ?t { { ?s term1 ?a ?t } UNION { ?s term2 ?b ?t } }",
      // UNION of three branches with a filter in one.
      "SELECT ?s ?t { { ?s term1 ?a ?t } UNION "
      "{ ?s term2 ?b ?t . FILTER(?t >= " + FormatChronon(500) +
          ") } UNION { ?s term5 ?c ?t } }",
      // OPTIONAL group.
      "SELECT ?s ?a ?b { ?s term1 ?a ?t . OPTIONAL { ?s term2 ?b ?t } }",
      // Two OPTIONAL groups (evaluated and joined in order).
      "SELECT ?s ?a ?b ?c { ?s term1 ?a ?t . "
      "OPTIONAL { ?s term2 ?b ?t } . OPTIONAL { ?s term3 ?c ?t } }",
      // Two-pattern OPTIONAL group: the group runs its own join chain.
      "SELECT ?s ?a ?b ?c { ?s term1 ?a ?t . "
      "OPTIONAL { ?s term2 ?b ?t2 . ?s term3 ?c ?t2 } }",
      // Temporal built-ins.
      "SELECT ?s ?o ?t { ?s term4 ?o ?t . FILTER(LENGTH(?t) > 30 DAY) }",
      "SELECT ?s ?o { ?s term5 ?o ?t . FILTER(TEND(?t) = now) }",
  };
}

class ConcurrencyFixture {
 public:
  ConcurrencyFixture() {
    Rng rng(4242);
    for (int i = 0; i < 40; ++i) dict_.Intern("term" + std::to_string(i));
    auto data = testutil::RandomTriples(&rng, 3000);
    EXPECT_TRUE(graph_.Load(data).ok());
    engine_ = std::make_unique<QueryEngine>(&graph_, &dict_);
  }

  QueryEngine& engine() { return *engine_; }

 private:
  Dictionary dict_;
  TemporalGraph graph_;
  std::unique_ptr<QueryEngine> engine_;
};

// Runs the full hammer against one engine: precompute the
// expected canonical rows serially, then fire kThreads threads each
// executing kQueriesPerThread queries round-robin over the mix.
void Hammer(QueryEngine& engine) {
  const std::vector<std::string> queries = QueryMix();

  std::vector<std::multiset<std::string>> expected;
  std::vector<size_t> expected_rows;
  for (const std::string& q : queries) {
    auto r = engine.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " " << r.status().ToString();
    EXPECT_EQ(r->stats.result_rows, r->rows.size()) << q;
    expected.push_back(Canon(*r));
    expected_rows.push_back(r->rows.size());
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi = (tid + i) % queries.size();
        auto r = engine.Execute(queries[qi]);
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Per-query stats travel on the ResultSet; they must describe
        // this execution, not a racing one.
        if (r->stats.result_rows != r->rows.size() ||
            r->rows.size() != expected_rows[qi] ||
            Canon(*r) != expected[qi]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Each query runs on its calling thread; these hammers check that
// concurrent callers sharing one engine never see each other's state.
TEST(EngineConcurrencyTest, HashJoinSerialEngine) {
  ConcurrencyFixture fx;
  Hammer(fx.engine());
}

TEST(EngineConcurrencyTest, SharedOptimizerPlansMatchSerial) {
  Dictionary dict;
  workload::Dataset data = workload::GenerateWikipedia(
      &dict, workload::WikipediaOptions{.num_triples = 6000, .seed = 8});
  optimizer::CharSetCatalog catalog;
  catalog.Build(data.triples);
  optimizer::TemporalHistogram histogram(
      &catalog, data.triples, data.triples.size() * sizeof(TemporalTriple));
  const optimizer::QueryOptimizer shared(&catalog, &histogram);

  // Mixed 1-7 pattern queries: selections, joins, complex 3-7.
  Rng rng(21);
  std::vector<std::string> texts =
      workload::MakeSelectionQueries(data, dict, 6, &rng);
  for (auto& q : workload::MakeJoinQueries(data, dict, 6, &rng)) {
    texts.push_back(std::move(q));
  }
  for (auto& [size, qs] :
       workload::MakeComplexQueries(data, dict, 3, 7, 3, &rng)) {
    texts.insert(texts.end(), qs.begin(), qs.end());
  }
  std::vector<sparqlt::Query> parsed;  // compiled queries point into these
  parsed.reserve(texts.size());
  std::vector<CompiledQuery> queries;
  // Serial answers: the order, each pattern's estimate, and the
  // estimate of the whole query.
  struct Serial {
    std::vector<int> order;
    std::vector<double> patterns;
    double full = 0.0;
  };
  std::vector<Serial> expected;
  auto estimate = [&shared](const CompiledQuery& cq) {
    Serial out{shared.ChooseOrder(cq), {}, 0.0};
    for (const auto& cp : cq.patterns) {
      out.patterns.push_back(shared.EstimatePattern(cp));
    }
    const uint32_t full = (1u << cq.patterns.size()) - 1;
    out.full = shared.EstimateSubsetCard(cq, full);
    return out;
  };
  for (const std::string& text : texts) {
    auto q = sparqlt::Parse(text);
    ASSERT_TRUE(q.ok()) << text;
    parsed.push_back(std::move(q).value());
    auto cq = Compile(parsed.back(), dict);
    ASSERT_TRUE(cq.ok()) << text;
    expected.push_back(estimate(*cq));
    queries.push_back(std::move(cq).value());
  }
  ASSERT_TRUE(std::any_of(queries.begin(), queries.end(), [](const auto& cq) {
    return cq.patterns.size() == 7;
  }));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi = (tid + i) % queries.size();
        const Serial got = estimate(queries[qi]);
        // Exact comparison: the same table fill on every thread.
        if (got.order != expected[qi].order ||
            got.patterns != expected[qi].patterns ||
            got.full != expected[qi].full) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rdftx::engine
