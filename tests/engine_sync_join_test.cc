// The engine's synchronized-join fast path must return exactly the same
// results as the hash-join pipeline on every query shape it accepts —
// and gracefully fall back on shapes it does not.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "mvbt/sync_join.h"
#include "rdf/temporal_graph.h"
#include "store_test_util.h"

namespace rdftx::engine {
namespace {

std::multiset<std::string> Canon(const ResultSet& rs) {
  std::multiset<std::string> rows;
  for (const auto& row : rs.rows) {
    std::string s;
    for (const auto& cell : row) s += cell.ToString() + "|";
    rows.insert(s);
  }
  return rows;
}

class EngineSyncJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineSyncJoinTest, AgreesWithHashJoin) {
  Rng rng(GetParam());
  Dictionary dict;
  for (int i = 0; i < 40; ++i) dict.Intern("term" + std::to_string(i));
  auto data = testutil::RandomTriples(&rng, 2500);
  TemporalGraph graph;
  ASSERT_TRUE(graph.Load(data).ok());

  QueryEngine hash_engine(&graph, &dict);
  QueryEngine sync_engine(
      &graph, &dict,
      EngineOptions{.join_algorithm = JoinAlgorithm::kSynchronized});

  auto term = [&](uint64_t id) { return dict.Decode(id); };
  for (int q = 0; q < 30; ++q) {
    uint64_t p1 = 1 + rng.Uniform(6), p2 = 1 + rng.Uniform(6);
    if (p1 == p2) continue;
    Chronon t1 = static_cast<Chronon>(rng.Uniform(2000));
    std::string text;
    switch (rng.Uniform(3)) {
      case 0:  // plain subject-star temporal join (fast-path shape)
        text = "SELECT ?s ?o1 ?o2 ?t { ?s " + term(p1) + " ?o1 ?t . ?s " +
               term(p2) + " ?o2 ?t }";
        break;
      case 1:  // with a temporal range constraint (window pushes down)
        text = "SELECT ?s ?o1 ?o2 ?t { ?s " + term(p1) + " ?o1 ?t . ?s " +
               term(p2) + " ?o2 ?t . FILTER(?t <= " + FormatChronon(t1) +
               ") }";
        break;
      default:  // constant object on one side
        text = "SELECT ?s ?o ?t { ?s " + term(p1) + " ?o ?t . ?s " +
               term(p2) + " " + term(1 + rng.Uniform(20)) + " ?t }";
    }
    auto rh = hash_engine.Execute(text);
    auto rs = sync_engine.Execute(text);
    ASSERT_TRUE(rh.ok()) << text;
    ASSERT_TRUE(rs.ok()) << text;
    ASSERT_EQ(Canon(*rh), Canon(*rs)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSyncJoinTest,
                         ::testing::Values(71, 72, 73));

TEST(EngineSyncJoinTest, FallsBackOnUnsupportedShapes) {
  Rng rng(99);
  Dictionary dict;
  for (int i = 0; i < 40; ++i) dict.Intern("term" + std::to_string(i));
  auto data = testutil::RandomTriples(&rng, 1500);
  TemporalGraph graph;
  ASSERT_TRUE(graph.Load(data).ok());
  QueryEngine hash_engine(&graph, &dict);
  QueryEngine sync_engine(
      &graph, &dict,
      EngineOptions{.join_algorithm = JoinAlgorithm::kSynchronized});
  const std::string queries[] = {
      // Three patterns.
      "SELECT ?s ?t { ?s term1 ?a ?t . ?s term2 ?b ?t . ?s term3 ?c ?t }",
      // Separate temporal variables (no temporal join).
      "SELECT ?s { ?s term1 ?a ?t1 . ?s term2 ?b ?t2 }",
      // Duration built-in forces full validity.
      "SELECT ?s ?t { ?s term1 ?a ?t . ?s term2 ?b ?t . "
      "FILTER(LENGTH(?t) > 5 DAY) }",
      // Object-object join variable.
      "SELECT ?s1 ?s2 ?t { ?s1 term1 ?x ?t . ?s2 term2 ?x ?t }",
      // Single pattern.
      "SELECT ?s ?t { ?s term1 ?o ?t }",
  };
  for (const std::string& text : queries) {
    auto rh = hash_engine.Execute(text);
    auto rs = sync_engine.Execute(text);
    ASSERT_TRUE(rh.ok()) << text << rh.status().ToString();
    ASSERT_TRUE(rs.ok()) << text << rs.status().ToString();
    ASSERT_EQ(Canon(*rh), Canon(*rs)) << text;
  }
}

TEST(EngineSyncJoinTest, FastPathReportsDecodedLeaves) {
  Rng rng(5);
  Dictionary dict;
  for (int i = 0; i < 40; ++i) dict.Intern("term" + std::to_string(i));
  auto data = testutil::RandomTriples(&rng, 2500);
  TemporalGraph graph;
  ASSERT_TRUE(graph.Load(data).ok());
  QueryEngine sync_engine(
      &graph, &dict,
      EngineOptions{.join_algorithm = JoinAlgorithm::kSynchronized});

  auto query = sparqlt::Parse(
      "SELECT ?s ?o1 ?o2 ?t { ?s term1 ?o1 ?t . ?s term2 ?o2 ?t }");
  ASSERT_TRUE(query.ok());
  auto rs = sync_engine.Execute(*query);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // The fast path ran: two patterns scanned and no join-chain step.
  ASSERT_EQ(rs->stats.patterns_scanned, 2u);
  ASSERT_EQ(rs->stats.hash_join_steps + rs->stats.merge_join_steps, 0u);
  EXPECT_GT(rs->stats.scan.leaves_visited, 0u);

  // A direct join over the same two regions decodes the same leaves.
  auto cq = Compile(*query, dict);
  ASSERT_TRUE(cq.ok());
  const PatternSpec& a = cq->patterns[0].spec;
  const PatternSpec& b = cq->patterns[1].spec;
  const IndexOrder order_a = TemporalGraph::ChooseIndex(a);
  const IndexOrder order_b = TemporalGraph::ChooseIndex(b);
  auto subject = [](IndexOrder order) {
    return [order](const mvbt::Entry& e) {
      return TemporalGraph::DecodeKey(order, e.key).s;
    };
  };
  mvbt::SyncJoinStats direct;
  mvbt::SynchronizedJoin(
      graph.index(order_a), TemporalGraph::PatternRange(order_a, a), a.time,
      graph.index(order_b), TemporalGraph::PatternRange(order_b, b), b.time,
      mvbt::SyncJoinSpec{subject(order_a), subject(order_b)},
      [](const mvbt::Entry&, const mvbt::Entry&, const Interval&) {},
      &direct);
  EXPECT_EQ(rs->stats.scan.leaves_visited, direct.cache_misses);
  EXPECT_EQ(rs->stats.scan.leaves_pruned, direct.leaves_pruned);
}

}  // namespace
}  // namespace rdftx::engine
