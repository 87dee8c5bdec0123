// Edge-case coverage for the engine beyond the paper examples:
// disconnected patterns (cross products), empty stores, numeric
// comparisons on object literals, repeated variables, `now` handling,
// and window/filter interaction.
#include <gtest/gtest.h>

#include "core/rdftx.h"
#include "engine/translate.h"

namespace rdftx::engine {
namespace {

class EdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Add("a", "size", "10", "2010-01-01", "2012-01-01").ok());
    ASSERT_TRUE(db_.Add("a", "size", "250", "2012-01-01", "now").ok());
    ASSERT_TRUE(db_.Add("b", "size", "9.5", "2010-01-01", "now").ok());
    ASSERT_TRUE(db_.Add("a", "color", "red", "2010-01-01", "now").ok());
    ASSERT_TRUE(db_.Add("c", "shape", "round", "2011-05-01",
                        "2011-05-02").ok());
    ASSERT_TRUE(db_.Finish().ok());
  }
  RdfTx db_;
};

TEST_F(EdgeFixture, NumericComparisonOnObjects) {
  // "9.5" < "10" numerically but not lexicographically; the engine must
  // compare numerically when both sides parse as numbers.
  auto r = db_.Query(
      "SELECT ?s ?v { ?s size ?v ?t . FILTER(?v < 10.5) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> values;
  for (const auto& row : r->rows) values.emplace(row[1].term);
  EXPECT_EQ(values, (std::set<std::string>{"10", "9.5"}));
}

TEST_F(EdgeFixture, StringComparisonFallsBackToLexicographic) {
  auto r = db_.Query(
      "SELECT ?s { ?s color ?c ?t . FILTER(?c = red) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "a");
}

TEST_F(EdgeFixture, CrossProductOfDisconnectedPatterns) {
  auto r = db_.Query(
      "SELECT ?x ?y { ?x color red ?t1 . ?y shape round ?t2 }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "a");
  EXPECT_EQ(r->rows[0][1].term, "c");
}

TEST_F(EdgeFixture, PatternWithAllConstantsActsAsExistenceCheck) {
  auto r = db_.Query("SELECT ?v { a color red ?t1 . a size ?v ?t1 }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);  // both size versions overlap color
}

TEST_F(EdgeFixture, FalseFilterYieldsEmpty) {
  auto r = db_.Query(
      "SELECT ?s { ?s size ?v ?t . FILTER(YEAR(?t) = 1950) }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(EdgeFixture, NotOperator) {
  auto r = db_.Query(
      "SELECT ?s ?v { ?s size ?v ?t . FILTER(!(?v = 10)) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> values;
  for (const auto& row : r->rows) values.emplace(row[1].term);
  EXPECT_EQ(values, (std::set<std::string>{"250", "9.5"}));
}

TEST_F(EdgeFixture, TEndNowDetectsLiveFacts) {
  auto r = db_.Query(
      "SELECT ?s ?v { ?s size ?v ?t . FILTER(TEND(?t) = now) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> values;
  for (const auto& row : r->rows) values.emplace(row[1].term);
  EXPECT_EQ(values, (std::set<std::string>{"250", "9.5"}));
}

TEST_F(EdgeFixture, SingleDayFact) {
  auto r = db_.Query("SELECT ?o { c shape ?o 2011-05-01 }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  // The day after, it is gone (half-open interval).
  r = db_.Query("SELECT ?o { c shape ?o 2011-05-02 }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(EdgeFixture, RepeatedKeyVariable) {
  // {?x ?p ?x}: no triple has subject == object here.
  auto r = db_.Query("SELECT ?x { ?x ?p ?x ?t }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST(EngineEdgeTest, EmptyStore) {
  RdfTx db;
  ASSERT_TRUE(db.Finish().ok());
  auto r = db.Query("SELECT ?s { ?s ?p ?o ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST(EngineEdgeTest, QueryBeforeFinishFails) {
  RdfTx db;
  ASSERT_TRUE(db.Add("a", "b", "c", "2010-01-01", "now").ok());
  EXPECT_FALSE(db.Query("SELECT ?t { a b c ?t }").ok());
}

TEST(EngineEdgeTest, AddAfterFinishFails) {
  RdfTx db;
  ASSERT_TRUE(db.Finish().ok());
  EXPECT_FALSE(db.Add("a", "b", "c", "2010-01-01", "now").ok());
  EXPECT_FALSE(db.Finish().ok());  // double finish
}

TEST(EngineEdgeTest, BadDatesRejected) {
  RdfTx db;
  EXPECT_FALSE(db.Add("a", "b", "c", "not-a-date", "now").ok());
  EXPECT_FALSE(db.Add("a", "b", "c", "2012-01-01", "2010-01-01").ok());
}

// FilterWindow inference unit checks (engine/translate.h).
TEST(FilterWindowTest, InfersYearAndRangeWindows) {
  auto window_of = [](const std::string& text) {
    auto q = sparqlt::Parse("SELECT ?t { a b ?o ?t . FILTER(" + text +
                            ") }");
    EXPECT_TRUE(q.ok()) << text;
    return FilterWindow(*q->filters[0], "t");
  };
  EXPECT_EQ(window_of("YEAR(?t) = 2013"),
            Interval(YearStart(2013), YearEnd(2013) + 1));
  EXPECT_EQ(window_of("?t <= 2013-06-01"),
            Interval(0, ChrononFromYmd(2013, 6, 1) + 1));
  EXPECT_EQ(window_of("?t < 2013-06-01"),
            Interval(0, ChrononFromYmd(2013, 6, 1)));
  EXPECT_EQ(window_of("?t > 2013-06-01"),
            Interval(ChrononFromYmd(2013, 6, 1) + 1, kChrononNow));
  // Conjunction intersects.
  EXPECT_EQ(window_of("YEAR(?t) = 2013 && ?t >= 2013-06-01"),
            Interval(ChrononFromYmd(2013, 6, 1), YearEnd(2013) + 1));
  // Disjunction takes the hull.
  EXPECT_EQ(window_of("YEAR(?t) = 2012 || YEAR(?t) = 2014"),
            Interval(YearStart(2012), YearEnd(2014) + 1));
  // Unanalyzable conditions widen to everything.
  EXPECT_EQ(window_of("LENGTH(?t) > 10"), Interval::All());
  EXPECT_EQ(window_of("!(?t <= 2013-06-01)"), Interval::All());
  // Conditions on other variables don't constrain ?t.
  EXPECT_EQ(window_of("?o = 5"), Interval::All());
}

}  // namespace
}  // namespace rdftx::engine
