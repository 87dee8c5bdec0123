// ExecStats coverage for the solution-modifier / EXISTS operators:
// agg_groups, topk_pushdowns, and exists_probes must take the asserted
// values, and every counter and row must agree between the
// TemporalGraph and the NaiveStore oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/naive_store.h"
#include "dict/dictionary.h"
#include "engine/executor.h"
#include "rdf/temporal_graph.h"
#include "util/date.h"

namespace rdftx {
namespace {

Chronon day(int y, unsigned m, unsigned d) { return ChrononFromYmd(y, m, d); }

class ModifierStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = [&](const std::string& s) { return dict_.Intern(s); };
    const TermId uc = id("UC"), ut = id("UT");
    const TermId president = id("president"), budget = id("budget");
    std::vector<TemporalTriple> triples = {
        {{uc, president, id("Dynes")}, {day(2003, 10, 2), day(2008, 6, 16)}},
        {{uc, president, id("Yudof")}, {day(2008, 6, 16), day(2013, 9, 30)}},
        {{uc, president, id("Napolitano")}, {day(2013, 9, 30), kChrononNow}},
        {{uc, budget, id("22.7")}, {day(2013, 1, 30), day(2015, 1, 30)}},
        {{uc, budget, id("25.46")}, {day(2015, 1, 30), kChrononNow}},
        {{ut, president, id("Powers")}, {day(2006, 2, 1), day(2015, 6, 2)}},
    };
    ASSERT_TRUE(graph_.Load(triples).ok());
    ASSERT_TRUE(naive_.Load(triples).ok());
  }

  engine::ResultSet Run(const std::string& query,
                        const TemporalStore* store) {
    engine::EngineOptions options;
    options.now = day(2016, 3, 15);
    engine::QueryEngine eng(store, &dict_, options);
    auto r = eng.Execute(query);
    EXPECT_TRUE(r.ok()) << query << "\n" << r.status().ToString();
    return r.ok() ? *r : engine::ResultSet{};
  }

  // Runs on the TemporalGraph and on the NaiveStore oracle, checks the
  // rows agree (as a set — insertion order may differ between stores
  // without ORDER BY) and so do the operator counters, and returns the
  // TemporalGraph run's stats for counter assertions.
  engine::ExecStats RunBoth(const std::string& query) {
    engine::ResultSet graph = Run(query, &graph_);
    engine::ResultSet naive = Run(query, &naive_);
    EXPECT_EQ(graph.columns, naive.columns) << query;
    auto sorted_rows = [](const engine::ResultSet& rs) {
      std::vector<std::string> out;
      for (const auto& row : rs.rows) {
        std::string line;
        for (const engine::Cell& cell : row) line += cell.ToString() + "\t";
        out.push_back(std::move(line));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(sorted_rows(graph), sorted_rows(naive)) << query;
    const engine::ExecStats& g = graph.stats;
    const engine::ExecStats& n = naive.stats;
    EXPECT_EQ(g.patterns_scanned, n.patterns_scanned) << query;
    EXPECT_EQ(g.rows_scanned, n.rows_scanned) << query;
    EXPECT_EQ(g.join_output_rows, n.join_output_rows) << query;
    EXPECT_EQ(g.result_rows, n.result_rows) << query;
    EXPECT_EQ(g.merge_join_steps, n.merge_join_steps) << query;
    EXPECT_EQ(g.hash_join_steps, n.hash_join_steps) << query;
    EXPECT_EQ(g.sort_steps, n.sort_steps) << query;
    EXPECT_EQ(g.agg_groups, n.agg_groups) << query;
    EXPECT_EQ(g.topk_pushdowns, n.topk_pushdowns) << query;
    EXPECT_EQ(g.exists_probes, n.exists_probes) << query;
    return g;
  }

  Dictionary dict_;
  TemporalGraph graph_;
  NaiveStore naive_;
};

TEST_F(ModifierStatsTest, AggGroupsCountsEmittedGroups) {
  const engine::ExecStats s =
      RunBoth("SELECT ?u (COUNT(?p) AS ?n) { ?u president ?p ?t } "
              "GROUP BY ?u");
  EXPECT_EQ(s.agg_groups, 2u);  // UC and UT
  EXPECT_EQ(s.topk_pushdowns, 0u);
  EXPECT_EQ(s.exists_probes, 0u);
}

TEST_F(ModifierStatsTest, AggGroupsCountsTheGlobalGroup) {
  // Ungrouped aggregation over empty input still emits its zero row.
  const engine::ExecStats s =
      RunBoth("SELECT (COUNT(*) AS ?n) { ?u chancellor ?p ?t }");
  EXPECT_EQ(s.agg_groups, 1u);
}

TEST_F(ModifierStatsTest, TopKPushdownFiresOnEligibleShape) {
  // Single pattern, full projection, bound time variable: the executor
  // skips duplicate elimination and bounds the sort.
  const engine::ExecStats s =
      RunBoth("SELECT ?p ?t { UC president ?p ?t } ORDER BY ?t LIMIT 2");
  EXPECT_EQ(s.topk_pushdowns, 1u);
}

TEST_F(ModifierStatsTest, TopKPushdownDeclinesJoinsAndPartialProjections) {
  // A join can produce duplicate projected rows: no pushdown.
  EXPECT_EQ(RunBoth("SELECT ?p ?t { ?u president ?p ?t . ?u budget ?b ?t } "
                    "ORDER BY ?t LIMIT 2")
                .topk_pushdowns,
            0u);
  // Projection that drops a bound variable can collapse rows: no
  // pushdown either.
  EXPECT_EQ(
      RunBoth("SELECT ?p { UC president ?p ?t } ORDER BY ?p LIMIT 2")
          .topk_pushdowns,
      0u);
}

TEST_F(ModifierStatsTest, ExistsProbesCountOuterRows) {
  // Three UC president rows reach the EXISTS probe.
  const engine::ExecStats s = RunBoth(
      "SELECT ?p { UC president ?p ?t . "
      "FILTER EXISTS { UC budget ?b ?t } }");
  EXPECT_EQ(s.exists_probes, 3u);
}

TEST_F(ModifierStatsTest, NotExistsProbesEveryRowOfEveryBlock) {
  // Two stacked EXISTS blocks: 4 president rows probe the first block;
  // the survivors probe the second.
  const engine::ExecStats s = RunBoth(
      "SELECT ?u ?p { ?u president ?p ?t . "
      "FILTER EXISTS { ?u budget ?b ?t2 } . "
      "FILTER NOT EXISTS { ?u budget ?b2 ?t } }");
  EXPECT_GE(s.exists_probes, 4u);
}

}  // namespace
}  // namespace rdftx
