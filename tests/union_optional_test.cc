// UNION and OPTIONAL — the paper's declared future work (§3.1),
// implemented here as an extension (see DESIGN.md §4).
#include <gtest/gtest.h>

#include <set>

#include "core/rdftx.h"

namespace rdftx {
namespace {

class UnionOptionalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Cities with mayors; one city has no mayor on record.
    ASSERT_TRUE(db_.Add("Springfield", "population", "30000", "2010-01-01",
                        "now").ok());
    ASSERT_TRUE(db_.Add("Springfield", "mayor", "Quimby", "2010-01-01",
                        "2014-01-01").ok());
    ASSERT_TRUE(db_.Add("Springfield", "mayor", "Terwilliger",
                        "2014-01-01", "now").ok());
    ASSERT_TRUE(db_.Add("Shelbyville", "population", "25000", "2010-01-01",
                        "now").ok());
    ASSERT_TRUE(
        db_.Add("Ogdenville", "population", "8000", "2011-01-01", "now")
            .ok());
    ASSERT_TRUE(db_.Add("Ogdenville", "twin_city", "North_Haverbrook",
                        "2012-01-01", "now").ok());
    ASSERT_TRUE(db_.Finish().ok());
  }
  RdfTx db_;
};

TEST_F(UnionOptionalFixture, OptionalKeepsUnmatchedRows) {
  auto r = db_.Query(R"(
    SELECT ?city ?who
    { ?city population ?p ?t .
      OPTIONAL { ?city mayor ?who ?t } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::pair<std::string, std::string>> got;
  for (const auto& row : r->rows) got.emplace(row[0].term, row[1].term);
  EXPECT_TRUE(got.contains({"Springfield", "Quimby"}));
  EXPECT_TRUE(got.contains({"Springfield", "Terwilliger"}));
  EXPECT_TRUE(got.contains({"Shelbyville", ""}));  // unbound mayor
  EXPECT_TRUE(got.contains({"Ogdenville", ""}));
  EXPECT_EQ(got.size(), 4u);
}

TEST_F(UnionOptionalFixture, OptionalTemporalJoinIntersects) {
  // The optional group shares ?t: the mayor binding only survives when
  // validities overlap; the time element is the intersection.
  auto r = db_.Query(R"(
    SELECT ?who ?t
    { Springfield population ?p ?t .
      OPTIONAL { Springfield mayor ?who ?t .
                 FILTER(YEAR(?t) <= 2013) } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Quimby matches (<= 2013); Terwilliger's term starts 2014 and his
  // scan window excludes him, so only one optional match exists, but
  // the population row survives regardless.
  std::set<std::string> whos;
  for (const auto& row : r->rows) whos.emplace(row[0].term);
  EXPECT_TRUE(whos.contains("Quimby"));
  EXPECT_FALSE(whos.contains("Terwilliger"));
}

TEST_F(UnionOptionalFixture, UnionMergesBranches) {
  auto r = db_.Query(R"(
    SELECT ?city
    { { ?city mayor ?m ?t }
      UNION
      { ?city twin_city ?other ?t } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> cities;
  for (const auto& row : r->rows) cities.emplace(row[0].term);
  EXPECT_EQ(cities,
            (std::set<std::string>{"Springfield", "Ogdenville"}));
}

TEST_F(UnionOptionalFixture, UnionDeduplicatesAcrossBranches) {
  auto r = db_.Query(R"(
    SELECT ?city
    { { ?city population ?p ?t }
      UNION
      { ?city population ?p ?t . FILTER(YEAR(?t) = 2012) } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);  // each city once
}

TEST_F(UnionOptionalFixture, ThreeWayUnionWithFilters) {
  auto r = db_.Query(R"(
    SELECT ?city
    { { ?city mayor Quimby ?t }
      UNION
      { ?city population ?p ?t . FILTER(?p < 10000) }
      UNION
      { ?city twin_city North_Haverbrook ?t } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> cities;
  for (const auto& row : r->rows) cities.emplace(row[0].term);
  EXPECT_EQ(cities,
            (std::set<std::string>{"Springfield", "Ogdenville"}));
}

TEST_F(UnionOptionalFixture, MultipleOptionals) {
  auto r = db_.Query(R"(
    SELECT ?city ?who ?other
    { ?city population ?p ?t .
      OPTIONAL { ?city mayor ?who ?t } .
      OPTIONAL { ?city twin_city ?other ?t } }
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_ogdenville_twin = false;
  for (const auto& row : r->rows) {
    if (row[0].term == "Ogdenville") {
      EXPECT_EQ(row[1].term, "");
      if (row[2].term == "North_Haverbrook") saw_ogdenville_twin = true;
    }
  }
  EXPECT_TRUE(saw_ogdenville_twin);
}

TEST_F(UnionOptionalFixture, ErrorCases) {
  // UNION without explicit SELECT.
  EXPECT_FALSE(db_.Query(
                      "SELECT * { { ?c mayor ?m ?t } UNION "
                      "{ ?c twin_city ?o ?t } }")
                   .ok());
  // Projected variable missing from one branch.
  EXPECT_FALSE(db_.Query(
                      "SELECT ?m { { ?c mayor ?m ?t } UNION "
                      "{ ?c twin_city ?o ?t } }")
                   .ok());
  // Single-branch union.
  EXPECT_FALSE(db_.Query("SELECT ?c { { ?c mayor ?m ?t } }").ok());
  // Empty OPTIONAL.
  EXPECT_FALSE(
      db_.Query("SELECT ?c { ?c mayor ?m ?t . OPTIONAL { } }").ok());
  // Nested OPTIONAL.
  EXPECT_FALSE(db_.Query("SELECT ?c { ?c mayor ?m ?t . OPTIONAL { "
                         "?c population ?p ?t . OPTIONAL { ?c twin_city "
                         "?o ?t } } }")
                   .ok());
}

TEST_F(UnionOptionalFixture, ParserRoundTrip) {
  auto q = sparqlt::Parse(
      "SELECT ?c ?m { ?c population ?p ?t . OPTIONAL { ?c mayor ?m ?t } }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->optionals.size(), 1u);
  auto q2 = sparqlt::Parse(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString();
  EXPECT_EQ(q2->optionals.size(), 1u);

  auto u = sparqlt::Parse(
      "SELECT ?c { { ?c mayor ?m ?t } UNION { ?c twin_city ?o ?t } }");
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->union_branches.size(), 2u);
  auto u2 = sparqlt::Parse(u->ToString());
  ASSERT_TRUE(u2.ok()) << u->ToString();
  EXPECT_EQ(u2->union_branches.size(), 2u);
}

}  // namespace
}  // namespace rdftx
