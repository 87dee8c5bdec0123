// Coverage for the RdfTx facade (the public API of deliverable (a)).
#include "core/rdftx.h"

#include <gtest/gtest.h>

namespace rdftx {
namespace {

TEST(RdfTxTest, EndToEndLifecycle) {
  RdfTx db;
  ASSERT_TRUE(db.Add("e1", "p", "v1", "2010-01-01", "2011-01-01").ok());
  ASSERT_TRUE(db.Add("e1", "p", "v2", "2011-01-01", "now").ok());
  EXPECT_EQ(db.triple_count(), 2u);
  ASSERT_TRUE(db.Finish().ok());
  auto r = db.Query("SELECT ?v { e1 p ?v 2010-06-01 }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].term, "v1");
  EXPECT_GT(db.MemoryUsage(), 0u);
}

TEST(RdfTxTest, PaperDateFormatAccepted) {
  RdfTx db;
  ASSERT_TRUE(db.Add("e", "p", "v", "06/16/2008", "09/30/2013").ok());
  ASSERT_TRUE(db.Finish().ok());
  auto r = db.Query("SELECT ?t { e p v ?t }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].time.Start(), ChrononFromYmd(2008, 6, 16));
}

TEST(RdfTxTest, ParseErrorsSurfaceFromQuery) {
  RdfTx db;
  ASSERT_TRUE(db.Finish().ok());
  auto r = db.Query("SELEC ?t { a b c ?t }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(RdfTxTest, QueryIsConstAndRepeatable) {
  RdfTx db;
  ASSERT_TRUE(db.Add("a", "p", "x", "2010-01-01", "2012-01-01").ok());
  ASSERT_TRUE(db.Finish().ok());
  const RdfTx& cref = db;
  auto r1 = cref.Query("SELECT ?t { a p x ?t }");
  auto r2 = cref.Query("SELECT ?t { a p x ?t }");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->ToString(), r2->ToString());
}

TEST(RdfTxTest, LiveIntervalDisplaysAsNow) {
  RdfTx db;
  ASSERT_TRUE(db.Add("a", "p", "x", "2010-01-01", "now").ok());
  ASSERT_TRUE(db.Finish().ok());
  auto r = db.Query("SELECT ?t { a p x ?t }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].time.ToString(), "[2010-01-01 ... now]");
}

// Parser robustness: malformed inputs must fail cleanly (Status, never
// a crash), and whitespace/comment variations must not matter.
TEST(ParserRobustnessTest, MalformedInputsReturnStatus) {
  RdfTx db;
  ASSERT_TRUE(db.Finish().ok());
  const char* bad[] = {
      "",
      "SELECT",
      "SELECT ?x",
      "SELECT ?x {",
      "SELECT ?x { }",
      "SELECT ?x { ?x }",
      "SELECT ?x { ?x ?y }",
      "SELECT ?x { ?x ?y ?z ?t ?u }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER( }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER(?t <) }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER(YEAR()) }",
      "SELECT ?x { ?x ?y ?z ?t }}",
      "select ?x where { ?x ?y ?z 13/13/2013 }",
      "SELECT ?x { \"unterminated ?y ?z ?t }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER(?t && ) }",
      "SELECT ?x { ?x ?y ?z ?t . FILTER((?t = now) }",
  };
  for (const char* q : bad) {
    auto r = db.Query(q);
    EXPECT_FALSE(r.ok()) << "should fail: " << q;
  }
}

TEST(ParserRobustnessTest, WhitespaceAndCaseVariations) {
  RdfTx db;
  ASSERT_TRUE(db.Add("a", "p", "x", "2010-01-01", "now").ok());
  ASSERT_TRUE(db.Finish().ok());
  const char* good[] = {
      "select ?t{a p x ?t}",
      "SELECT ?t\n\n{\n  a\tp\tx ?t\n}",
      "Select ?t Where { a p x ?t . }",
      "SELECT ?t { a p x ?t . # trailing comment\n }",
  };
  for (const char* q : good) {
    auto r = db.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 1u) << q;
  }
}

}  // namespace
}  // namespace rdftx
