// Regression coverage for point-based temporal FILTER evaluation:
//
//  * Unsatisfiable MONTH/DAY comparisons (MONTH(?t) = 13, DAY(?t) < 1)
//    must return empty even on runs a year or longer — the ≥366-day
//    "covers every classifier value" shortcut only applies when the
//    comparison is satisfiable within the classifier's value range
//    (months 1..12, days 1..31).
//  * ExistsIdentity / ExistsYear edge cases on live (end = now) facts.
#include <gtest/gtest.h>

#include <set>

#include "core/rdftx.h"

namespace rdftx::engine {
namespace {

class TemporalFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pin "now" so live-fact semantics are deterministic.
    RdfTxOptions options;
    options.now = ChrononFromYmd(2020, 6, 15);
    db_ = std::make_unique<RdfTx>(options);
    // Long-lived closed fact: > 366 days, triggers the coverage shortcut.
    ASSERT_TRUE(
        db_->Add("a", "size", "10", "2010-01-01", "2014-03-01").ok());
    // Live fact: [2018-02-10, now).
    ASSERT_TRUE(db_->Add("b", "size", "20", "2018-02-10", "now").ok());
    // Short fact inside one month: [2011-05-03, 2011-05-07).
    ASSERT_TRUE(
        db_->Add("c", "size", "30", "2011-05-03", "2011-05-07").ok());
    ASSERT_TRUE(db_->Finish().ok());
  }

  std::set<std::string> Subjects(const std::string& filter) {
    auto r = db_->Query("SELECT ?s { ?s size ?v ?t . FILTER(" + filter +
                        ") }");
    EXPECT_TRUE(r.ok()) << filter << " " << r.status().ToString();
    std::set<std::string> out;
    if (r.ok()) {
      for (const auto& row : r->rows) out.emplace(row[0].term);
    }
    return out;
  }

  std::unique_ptr<RdfTx> db_;
};

using Set = std::set<std::string>;

TEST_F(TemporalFilterTest, UnsatisfiableMonthComparisonsAreEmpty) {
  // Months only take values 1..12; these can never hold, even though
  // "a" and "b" span more than 366 days.
  EXPECT_EQ(Subjects("MONTH(?t) = 13"), Set{});
  EXPECT_EQ(Subjects("MONTH(?t) > 12"), Set{});
  EXPECT_EQ(Subjects("MONTH(?t) >= 13"), Set{});
  EXPECT_EQ(Subjects("MONTH(?t) < 1"), Set{});
  EXPECT_EQ(Subjects("MONTH(?t) <= 0"), Set{});
  EXPECT_EQ(Subjects("MONTH(?t) = 0"), Set{});
}

TEST_F(TemporalFilterTest, UnsatisfiableDayComparisonsAreEmpty) {
  EXPECT_EQ(Subjects("DAY(?t) < 1"), Set{});
  EXPECT_EQ(Subjects("DAY(?t) = 0"), Set{});
  EXPECT_EQ(Subjects("DAY(?t) > 31"), Set{});
  EXPECT_EQ(Subjects("DAY(?t) = 32"), Set{});
}

TEST_F(TemporalFilterTest, BoundaryValuesStillMatchOnLongRuns) {
  // Any ≥366-day span contains a December and a 31st.
  EXPECT_EQ(Subjects("MONTH(?t) = 12"), (Set{"a", "b"}));
  EXPECT_EQ(Subjects("DAY(?t) = 31"), (Set{"a", "b"}));
  EXPECT_EQ(Subjects("MONTH(?t) >= 1"), (Set{"a", "b", "c"}));
  EXPECT_EQ(Subjects("DAY(?t) <= 31"), (Set{"a", "b", "c"}));
  // The satisfiability gate must not reject satisfiable comparisons.
  EXPECT_EQ(Subjects("MONTH(?t) < 13"), (Set{"a", "b", "c"}));
}

TEST_F(TemporalFilterTest, ShortRunsStillUsePointScan) {
  // "c" covers only 2011-05-03 .. 2011-05-06 (inclusive display); long
  // runs "a" and "b" contain every day-of-month value.
  EXPECT_EQ(Subjects("DAY(?t) = 4"), (Set{"a", "b", "c"}));
  EXPECT_EQ(Subjects("DAY(?t) = 8"), (Set{"a", "b"}));
  EXPECT_EQ(Subjects("MONTH(?t) = 6"), (Set{"a", "b"}));
}

TEST_F(TemporalFilterTest, IdentityComparisonOnLiveFacts) {
  // "b" is live: [2018-02-10, now). ?t > d holds for any past or
  // future d because the element is still accruing points.
  EXPECT_EQ(Subjects("?t > 2013-01-01"), (Set{"a", "b"}));
  EXPECT_EQ(Subjects("?t > 2030-01-01"), (Set{"b"}));
  EXPECT_EQ(Subjects("?t >= 2018-02-10"), (Set{"b"}));
  // No point of "b" precedes its start.
  EXPECT_EQ(Subjects("?t < 2018-02-10"), (Set{"a", "c"}));
  EXPECT_EQ(Subjects("?t = 2019-07-04"), (Set{"b"}));
}

TEST_F(TemporalFilterTest, YearComparisonOnLiveFacts) {
  // ExistsYear clamps a live end to "now" (2020-06-15 here) for the
  // order comparisons.
  EXPECT_EQ(Subjects("YEAR(?t) = 2019"), (Set{"b"}));
  EXPECT_EQ(Subjects("YEAR(?t) >= 2020"), (Set{"b"}));
  EXPECT_EQ(Subjects("YEAR(?t) > 2020"), Set{});
  EXPECT_EQ(Subjects("YEAR(?t) <= 2010"), (Set{"a"}));
  EXPECT_EQ(Subjects("YEAR(?t) < 2011"), (Set{"a"}));
  EXPECT_EQ(Subjects("YEAR(?t) = 2013"), (Set{"a"}));
}

}  // namespace
}  // namespace rdftx::engine
