#include "engine/executor.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/naive_store.h"
#include "rdf/temporal_graph.h"
#include "store_test_util.h"

namespace rdftx::engine {
namespace {

// Fixture: the University of California history of paper Table 2.
class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = [&](const std::string& s) { return dict_.Intern(s); };
    auto day = [](int y, unsigned m, unsigned d) {
      return ChrononFromYmd(y, m, d);
    };
    const TermId uc = id("University_of_California");
    const TermId president = id("president");
    const TermId yudof = id("Mark_Yudof");
    const TermId napolitano = id("Janet_Napolitano");
    const TermId endowment = id("endowment");
    const TermId undergraduate = id("undergraduate");
    const TermId staff = id("staff");
    const TermId budget = id("budget");

    std::vector<TemporalTriple> data = {
        {{uc, president, yudof},
         {day(2008, 6, 16), day(2013, 9, 30)}},
        {{uc, president, napolitano}, {day(2013, 9, 30), kChrononNow}},
        {{uc, endowment, id("10.3")},
         {day(2013, 7, 1), day(2014, 7, 1)}},
        {{uc, endowment, id("13.1")}, {day(2014, 7, 1), kChrononNow}},
        {{uc, undergraduate, id("184562")},
         {day(2013, 5, 14), day(2015, 1, 30)}},
        {{uc, undergraduate, id("188300")},
         {day(2015, 1, 30), kChrononNow}},
        {{uc, staff, id("18896")},
         {day(2013, 8, 29), day(2015, 1, 30)}},
        {{uc, staff, id("19700")}, {day(2015, 1, 30), kChrononNow}},
        {{uc, budget, id("22.7")},
         {day(2013, 1, 30), day(2015, 1, 30)}},
        {{uc, budget, id("25.46")}, {day(2015, 1, 30), kChrononNow}},
        // Earlier presidents, for the duration and succession queries.
        {{uc, president, id("Robert_Dynes")},
         {day(2003, 10, 2), day(2008, 6, 16)}},
        {{uc, president, id("Richard_Atkinson")},
         {day(1995, 10, 1), day(2003, 10, 2)}},
    };
    ASSERT_TRUE(graph_.Load(data).ok());
    engine_ = std::make_unique<QueryEngine>(
        &graph_, &dict_,
        EngineOptions{.now = day(2016, 3, 15)});
  }

  Dictionary dict_;
  TemporalGraph graph_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(PaperExamplesTest, Example1WhenQuery) {
  auto r = engine_->Execute(R"(
    SELECT ?t
    { University_of_California president Janet_Napolitano ?t }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  const TemporalSet& t = r->rows[0][0].time;
  ASSERT_EQ(t.runs().size(), 1u);
  EXPECT_EQ(t.runs()[0],
            Interval(ChrononFromYmd(2013, 9, 30), kChrononNow));
  // Display matches the paper's compact format.
  EXPECT_EQ(t.ToString(), "[2013-09-30 ... now]");
}

TEST_F(PaperExamplesTest, Example2BudgetIn2013) {
  auto r = engine_->Execute(R"(
    SELECT ?budget
    { University_of_California budget ?budget ?t .
      FILTER(YEAR(?t) = 2013) }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "22.7");
}

TEST_F(PaperExamplesTest, Example3LongServingPresidentsBefore2010) {
  auto r = engine_->Execute(R"(
    SELECT ?person ?t
    { University_of_California president ?person ?t .
      FILTER(YEAR(?t) <= 2010 && LENGTH(?t) > 365 DAY) }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> people;
  for (const auto& row : r->rows) people.emplace(row[0].term);
  // Napolitano started 2013 (fails YEAR <= 2010); all earlier presidents
  // served > 1 year before 2010.
  EXPECT_EQ(people, (std::set<std::string>{"Mark_Yudof", "Robert_Dynes",
                                           "Richard_Atkinson"}));
  // ?t is the full temporal element (LENGTH forces expansion), so
  // Yudof's element runs to 2013 even though the filter says <= 2010.
  for (const auto& row : r->rows) {
    if (row[0].term == "Mark_Yudof") {
      EXPECT_EQ(row[1].time.End(), ChrononFromYmd(2013, 9, 30));
    }
  }
}

TEST_F(PaperExamplesTest, Example4TemporalJoin) {
  auto r = engine_->Execute(R"(
    SELECT ?university ?number ?t
    { ?university undergraduate ?number ?t .
      ?university president Mark_Yudof ?t . }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only the first undergraduate count overlaps Yudof's term; ?t is the
  // intersection (2013-05-14 .. 2013-09-30).
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "University_of_California");
  EXPECT_EQ(r->rows[0][1].term, "184562");
  const TemporalSet& t = r->rows[0][2].time;
  ASSERT_EQ(t.runs().size(), 1u);
  EXPECT_EQ(t.runs()[0], Interval(ChrononFromYmd(2013, 5, 14),
                                  ChrononFromYmd(2013, 9, 30)));
}

TEST_F(PaperExamplesTest, Example5Succession) {
  auto r = engine_->Execute(R"(
    SELECT ?successor
    { University_of_California president Mark_Yudof ?t1 .
      University_of_California president ?successor ?t2 .
      FILTER(TEND(?t1) = TSTART(?t2)) . }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "Janet_Napolitano");
}

TEST_F(PaperExamplesTest, WhoWasPresidentOnAGivenDay) {
  // §2.1 motivating query: president of UC on 9/9/2009.
  auto r = engine_->Execute(R"(
    SELECT ?p { University_of_California president ?p 2009-09-09 }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "Mark_Yudof");
}

TEST_F(PaperExamplesTest, ThreePatternJoin) {
  // Undergraduates and staff while Yudof was in office (§3.2 remark:
  // adding a pattern is all it takes).
  auto r = engine_->Execute(R"(
    SELECT ?number ?staff ?t
    { ?u undergraduate ?number ?t .
      ?u staff ?staff ?t .
      ?u president Mark_Yudof ?t . }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "184562");
  EXPECT_EQ(r->rows[0][1].term, "18896");
  // Intersection starts at the staff count (the latest of the three).
  EXPECT_EQ(r->rows[0][2].time.Start(), ChrononFromYmd(2013, 8, 29));
}

TEST_F(PaperExamplesTest, TotalLengthAndOr) {
  auto r = engine_->Execute(R"(
    SELECT ?p
    { University_of_California president ?p ?t .
      FILTER(TOTAL_LENGTH(?t) > 7 YEARS || TSTART(?t) >= 2013-01-01) }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> people;
  for (const auto& row : r->rows) people.emplace(row[0].term);
  // Atkinson served ~8 years; Napolitano started in 2013.
  EXPECT_EQ(people, (std::set<std::string>{"Richard_Atkinson",
                                           "Janet_Napolitano"}));
}

TEST_F(PaperExamplesTest, UnknownConstantYieldsEmptyResult) {
  auto r = engine_->Execute(
      "SELECT ?t { Nonexistent_Entity president ?x ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(PaperExamplesTest, SelectStarProjectsEverything) {
  auto r = engine_->Execute(
      "SELECT * { University_of_California budget ?b ?t }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns, (std::vector<std::string>{"b", "t"}));
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(PaperExamplesTest, ProjectionOfUnknownVariableFails) {
  auto r = engine_->Execute("SELECT ?zzz { ?s ?p ?o ?t }");
  EXPECT_FALSE(r.ok());
}

TEST_F(PaperExamplesTest, VariableUsedAsKeyAndTimeFails) {
  auto r = engine_->Execute("SELECT ?x { ?x president ?p ?x }");
  EXPECT_FALSE(r.ok());
}

TEST_F(PaperExamplesTest, ExplicitPlanMatchesDefault) {
  auto query = sparqlt::Parse(R"(
    SELECT ?number ?t
    { ?u undergraduate ?number ?t .
      ?u president Mark_Yudof ?t . }
  )");
  ASSERT_TRUE(query.ok());
  auto r1 = engine_->ExecutePlan(*query, {0, 1});
  auto r2 = engine_->ExecutePlan(*query, {1, 0});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->ToString(), r2->ToString());
}

TEST_F(PaperExamplesTest, ExecutePlanRejectsNonPermutationOrders) {
  auto query = sparqlt::Parse(R"(
    SELECT ?number ?t
    { ?u undergraduate ?number ?t .
      ?u president Mark_Yudof ?t . }
  )");
  ASSERT_TRUE(query.ok());
  // Out of range, repeated, and negative pattern indices.
  for (const std::vector<int>& order :
       {std::vector<int>{0, 7}, std::vector<int>{0, 0},
        std::vector<int>{-1, 1}}) {
    auto r = engine_->ExecutePlan(*query, order);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PaperExamplesTest, EmptyIntermediateStopsScanning) {
  // The second pattern names known terms but matches no triple, so the
  // chain is empty after two steps and the third pattern is never
  // scanned.
  auto query = sparqlt::Parse(R"(
    SELECT ?number ?t
    { ?u undergraduate ?number ?t .
      ?u endowment Mark_Yudof ?t .
      ?u staff ?staff ?t . }
  )");
  ASSERT_TRUE(query.ok());
  auto r = engine_->ExecutePlan(*query, {0, 1, 2});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
  EXPECT_EQ(r->stats.patterns_scanned, 2u);
}

// --- Sideways key filters, observed through ResultSet::stats ---

// Four universities over two eras. UT has a president but no endowment
// and Stanford an endowment but no president, so OPTIONAL groups leave
// keys unbound and EXISTS groups have witnesses no bound key names.
class SidewaysFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = [&](const std::string& s) { return dict_.Intern(s); };
    const Interval early{ChrononFromYmd(2000, 1, 1),
                         ChrononFromYmd(2005, 1, 1)};
    const Interval late{ChrononFromYmd(2010, 1, 1),
                        ChrononFromYmd(2012, 1, 1)};
    const Interval both{early.start, late.end};
    const TermId president = id("president");
    const TermId endowment = id("endowment");
    const TermId budget = id("budget");
    id("chancellor");  // known, but no facts
    const std::vector<TemporalTriple> data = {
        {{id("UC"), president, id("P1")}, early},
        {{id("UC"), endowment, id("10.3")}, early},
        {{id("UC"), budget, id("22.7")}, early},
        {{id("UT"), president, id("P2")}, late},
        {{id("UT"), budget, id("9.1")}, late},
        {{id("Stanford"), endowment, id("20.0")}, late},
        {{id("Stanford"), budget, id("5.5")}, both},
        {{id("MIT"), budget, id("7.7")}, both},
    };
    ASSERT_TRUE(graph_.Load(data).ok());
    ASSERT_TRUE(naive_.Load(data).ok());
  }

  /// Runs `q` on both stores, checks equal rows, returns the graph run.
  ResultSet RunBoth(const std::string& q) {
    auto got = QueryEngine(&graph_, &dict_).Execute(q);
    auto want = QueryEngine(&naive_, &dict_).Execute(q);
    EXPECT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    if (!got.ok() || !want.ok()) return {};
    EXPECT_EQ(Rows(*got), Rows(*want)) << q;
    EXPECT_EQ(want->stats.key_filtered_fragments, 0u) << q;
    return *got;
  }

  static std::multiset<std::string> Rows(const ResultSet& rs) {
    std::multiset<std::string> rows;
    for (const auto& row : rs.rows) {
      std::string s;
      for (const Cell& cell : row) s += cell.ToString() + "|";
      rows.insert(s);
    }
    return rows;
  }

  Dictionary dict_;
  TemporalGraph graph_;
  NaiveStore naive_;
};

TEST_F(SidewaysFilterTest, AnchoredJoinScansOnlyJoinableKeys) {
  // The budget scan keeps UC's fragment and drops the other three.
  const ResultSet rs =
      RunBoth("SELECT ?u ?b { ?u president P1 ?t . ?u budget ?b ?t }");
  EXPECT_EQ(Rows(rs), (std::multiset<std::string>{"UC|22.7|"}));
  EXPECT_GT(rs.stats.key_filtered_fragments, 0u);
  EXPECT_EQ(rs.stats.rows_scanned, 2u);
}

TEST_F(SidewaysFilterTest, ExistsAfterOptionalWithUnboundKeyIsNotFiltered) {
  // UT's OPTIONAL leaves ?e unbound, which EXISTS treats as a wildcard:
  // Stanford's endowment is UT's only witness. A filter from the bound
  // ?e values ({10.3}) would drop it, so the group must scan unfiltered.
  const std::string optional =
      "SELECT ?u { ?u president ?p ?t . OPTIONAL { ?u endowment ?e ?t } ";
  const ResultSet without = RunBoth(optional + "}");
  const ResultSet with =
      RunBoth(optional + ". FILTER EXISTS { ?x endowment ?e ?t } }");
  EXPECT_EQ(Rows(with), (std::multiset<std::string>{"UC|", "UT|"}));
  // The OPTIONAL group is filtered by ?u (Stanford dropped); the EXISTS
  // group adds no filtered fragment.
  EXPECT_GT(without.stats.key_filtered_fragments, 0u);
  EXPECT_EQ(with.stats.key_filtered_fragments,
            without.stats.key_filtered_fragments);
}

TEST_F(SidewaysFilterTest, SecondOptionalOnAnUnboundSlotIsNotFiltered) {
  // UT's row leaves ?e unbound, so the second group's scan, whose first
  // pattern binds ?e, is not filtered.
  const std::string first =
      "{ ?u president ?p ?t . OPTIONAL { ?u endowment ?e ?t } ";
  const ResultSet without = RunBoth("SELECT ?u ?e " + first + "}");
  const ResultSet with = RunBoth("SELECT ?u ?e ?x " + first +
                                 ". OPTIONAL { ?x endowment ?e ?t2 } }");
  EXPECT_EQ(Rows(with),
            (std::multiset<std::string>{"UC|10.3|UC|", "UT|||"}));
  EXPECT_EQ(with.stats.key_filtered_fragments,
            without.stats.key_filtered_fragments);
}

TEST_F(SidewaysFilterTest, EmptyExistsStopsLaterGroups) {
  // Nothing survives the first EXISTS, so the second group is never
  // scanned and probes nothing.
  const ResultSet rs = RunBoth(
      "SELECT ?u { ?u president ?p ?t . "
      "FILTER EXISTS { ?u chancellor ?c ?t2 } . "
      "FILTER EXISTS { ?u budget ?b ?t3 } }");
  EXPECT_TRUE(rs.rows.empty());
  EXPECT_EQ(rs.stats.patterns_scanned, 2u);
  EXPECT_EQ(rs.stats.exists_probes, 2u);
}

// --- Engine/store cross-checks on random data ---

// Runs the same generated queries against RDF-TX and the naive store;
// both engines must agree.
class EngineConformanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineConformanceTest, GraphAndNaiveAgree) {
  Rng rng(GetParam());
  Dictionary dict;
  for (int i = 0; i < 40; ++i) dict.Intern("term" + std::to_string(i));

  auto data = testutil::RandomTriples(&rng, 2500);
  TemporalGraph graph(TemporalGraphOptions{.block_capacity = 16});
  NaiveStore naive;
  ASSERT_TRUE(graph.Load(data).ok());
  ASSERT_TRUE(naive.Load(data).ok());
  QueryEngine ge(&graph, &dict), ne(&naive, &dict);

  auto term = [&](uint64_t id) { return dict.Decode(id); };
  for (int q = 0; q < 40; ++q) {
    // Random 2-pattern subject join with a random time constraint.
    uint64_t p1 = 1 + rng.Uniform(6), p2 = 1 + rng.Uniform(6);
    Chronon t1 = static_cast<Chronon>(rng.Uniform(2000));
    std::string text;
    switch (rng.Uniform(4)) {
      case 0:
        text = "SELECT ?s ?o ?t { ?s " + term(p1) + " ?o ?t }";
        break;
      case 1:
        text = "SELECT ?s ?o { ?s " + term(p1) + " ?o " +
               FormatChronon(t1) + " }";
        break;
      case 2:
        text = "SELECT ?s ?o1 ?o2 ?t { ?s " + term(p1) + " ?o1 ?t . ?s " +
               term(p2) + " ?o2 ?t }";
        break;
      default:
        text = "SELECT ?s ?o ?t { ?s " + term(p1) + " ?o ?t . FILTER(?t <= " +
               FormatChronon(t1) + ") }";
    }
    auto rg = ge.Execute(text);
    auto rn = ne.Execute(text);
    ASSERT_TRUE(rg.ok()) << text << ": " << rg.status().ToString();
    ASSERT_TRUE(rn.ok()) << text << ": " << rn.status().ToString();
    // Compare as sorted row strings (row order is not defined).
    auto canon = [](const ResultSet& rs) {
      std::multiset<std::string> rows;
      for (const auto& row : rs.rows) {
        std::string s;
        for (const auto& cell : row) s += cell.ToString() + "|";
        rows.insert(s);
      }
      return rows;
    };
    ASSERT_EQ(canon(*rg), canon(*rn)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConformanceTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005));

}  // namespace
}  // namespace rdftx::engine
