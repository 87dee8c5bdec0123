// The query result table and its tail: numeric-aware term comparison,
// ORDER BY / LIMIT / OFFSET over heavy ties, the row table itself, the
// row count of zero-width results, and the lifetime of result cells,
// which view the Dictionary (run these under ASan too).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/naive_store.h"
#include "dict/dictionary.h"
#include "engine/executor.h"
#include "engine/modifiers.h"
#include "engine/operators.h"
#include "rdf/temporal_graph.h"
#include "util/date.h"

namespace rdftx {
namespace {

Chronon day(int y, unsigned m, unsigned d) { return ChrononFromYmd(y, m, d); }

engine::Cell TermCell(const char* text) {
  engine::Cell cell;
  cell.term = text;
  return cell;
}

int Compare(const char* a, const char* b) {
  const int c = engine::CompareCells(TermCell(a), TermCell(b));
  return (c > 0) - (c < 0);
}

// ParseNumeric accepts exactly what strtod consumes in full: leading
// white space and a sign, exponents, inf / nan and hexadecimal, but no
// trailing characters and no empty text.
TEST(ParseNumericTest, AcceptsExactlyTheStrtodSyntax) {
  double v = -1;
  EXPECT_FALSE(engine::ParseNumeric("", &v));
  EXPECT_TRUE(engine::ParseNumeric(" 1", &v));
  EXPECT_EQ(v, 1.0);
  EXPECT_TRUE(engine::ParseNumeric("+1", &v));
  EXPECT_EQ(v, 1.0);
  EXPECT_FALSE(engine::ParseNumeric("1 ", &v));
  EXPECT_TRUE(engine::ParseNumeric("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_TRUE(engine::ParseNumeric("inf", &v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(engine::ParseNumeric("nan", &v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(engine::ParseNumeric("0x10", &v));
  EXPECT_EQ(v, 16.0);
  v = 7;
  EXPECT_FALSE(engine::ParseNumeric("-", &v));
  EXPECT_EQ(v, 7.0);  // untouched on failure
  EXPECT_TRUE(engine::ParseNumeric("-2.5", &v));
  EXPECT_EQ(v, -2.5);
  EXPECT_FALSE(engine::ParseNumeric("12abc", &v));
  // A view is read to its own end, not to the end of the text behind it.
  const std::string text = "12abc";
  EXPECT_TRUE(engine::ParseNumeric(std::string_view(text).substr(0, 2), &v));
  EXPECT_EQ(v, 12.0);
  EXPECT_FALSE(engine::ParseNumeric(std::string_view("1\0" "2", 3), &v));
  const std::string long_number = std::string(100, '0') + "42";
  EXPECT_TRUE(engine::ParseNumeric(long_number, &v));
  EXPECT_EQ(v, 42.0);
}

// Term cells order unbound first, then numbers by value, then the rest
// by bytes; the inputs above keep their strtod reading.
TEST(CompareCellsTest, NumericAwareTermOrder) {
  EXPECT_EQ(Compare("", "1"), -1);
  EXPECT_EQ(Compare("", ""), 0);
  EXPECT_EQ(Compare("9", "10"), -1);
  EXPECT_EQ(Compare(" 1", "+1"), 0);
  EXPECT_EQ(Compare("1e3", "999"), 1);
  EXPECT_EQ(Compare("0x10", "9"), 1);
  EXPECT_EQ(Compare("inf", "1e300"), 1);
  EXPECT_EQ(Compare("nan", "1"), 0);  // unordered reads as a tie
  EXPECT_EQ(Compare("1 ", "1"), 1);   // text sorts after numbers
  EXPECT_EQ(Compare("-", "a"), -1);   // text by bytes
  EXPECT_EQ(Compare("2", "2.0"), 0);
}

// A dataset of heavy ties: thirty subjects share five score texts (two
// of them numerically equal), three start dates, and some subjects hold
// their score over two runs.
class OrderTiesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* scores[] = {"2", "10", "x", "2.0", "b"};
    const TermId score = dict_.Intern("score");
    std::vector<TemporalTriple> triples;
    for (int i = 0; i < 30; ++i) {
      const std::string name = (i < 10 ? "e0" : "e") + std::to_string(i);
      const Triple t{dict_.Intern(name), score, dict_.Intern(scores[i % 5])};
      triples.push_back(
          {t, {day(2000 + i % 3, 1, 1), day(2005, 1, 1)}});
      if (i % 4 == 0) triples.push_back({t, {day(2007, 1, 1), kChrononNow}});
    }
    ASSERT_TRUE(graph_.Load(triples).ok());
    ASSERT_TRUE(naive_.Load(triples).ok());
  }

  static std::vector<std::string> Lines(const engine::ResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string line;
      for (const engine::Cell& cell : row) line += cell.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  engine::ResultSet Run(const TemporalStore* store, const std::string& q) {
    engine::EngineOptions options;
    options.now = day(2016, 3, 15);
    engine::QueryEngine eng(store, &dict_, options);
    auto r = eng.Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
    return r.ok() ? std::move(*r) : engine::ResultSet{};
  }

  // The reference answer: the unordered result of `where`, sorted by
  // `keys` (column, descending) with ties broken on the row fingerprint,
  // then sliced.
  std::vector<std::string> Reference(
      const std::string& select_where,
      const std::vector<std::pair<size_t, bool>>& keys, int64_t limit,
      int64_t offset) {
    const engine::ResultSet all = Run(&naive_, select_where);
    std::vector<size_t> order(all.rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::vector<std::string> fps;
    for (const auto& row : all.rows) fps.push_back(engine::RowFingerprint(row));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [col, desc] : keys) {
        const int c = engine::CompareCells(all.rows[a][col], all.rows[b][col]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return fps[a] < fps[b];
    });
    const std::vector<std::string> lines = Lines(all);
    std::vector<std::string> out;
    const size_t skip = static_cast<size_t>(std::max<int64_t>(offset, 0));
    for (size_t k = skip; k < order.size(); ++k) {
      if (limit >= 0 && out.size() == static_cast<size_t>(limit)) break;
      out.push_back(lines[order[k]]);
    }
    return out;
  }

  void Check(const std::string& select_where, const std::string& modifiers,
             const std::vector<std::pair<size_t, bool>>& keys, int64_t limit,
             int64_t offset) {
    const std::string q = select_where + " " + modifiers;
    const std::vector<std::string> want =
        Reference(select_where, keys, limit, offset);
    EXPECT_EQ(Lines(Run(&graph_, q)), want) << q;
    EXPECT_EQ(Lines(Run(&naive_, q)), want) << q;
  }

  Dictionary dict_;
  TemporalGraph graph_;
  NaiveStore naive_;
};

TEST_F(OrderTiesTest, TiesBreakOnTheRowFingerprint) {
  const std::string all = "SELECT ?e ?v ?t { ?e score ?v ?t }";
  Check(all, "ORDER BY ?v LIMIT 7 OFFSET 5", {{1, false}}, 7, 5);
  Check(all, "ORDER BY DESC(?v) LIMIT 9 OFFSET 2", {{1, true}}, 9, 2);
  Check(all, "ORDER BY ?t ?v OFFSET 3", {{2, false}, {1, false}}, -1, 3);
  Check(all, "ORDER BY DESC(?t) LIMIT 12", {{2, true}}, 12, 0);
  Check(all, "ORDER BY ?v", {{1, false}}, -1, 0);
  Check(all, "LIMIT 6 OFFSET 10", {}, 6, 10);
  Check("SELECT ?v ?t { ?e score ?v ?t }", "ORDER BY ?v LIMIT 4 OFFSET 1",
        {{0, false}}, 4, 1);
  Check("SELECT ?e ?v { ?e score ?v ?t }", "OFFSET 25", {}, -1, 25);
}

TEST_F(OrderTiesTest, TiedRowsComeOutInSubjectOrder) {
  // "2" and "2.0" tie numerically, so their ten subjects interleave in
  // fingerprint (subject) order.
  const engine::ResultSet rs =
      Run(&graph_,
          "SELECT ?e ?v { ?e score ?v ?t } ORDER BY ?v LIMIT 5 OFFSET 2");
  std::vector<std::string> subjects;
  for (const auto& row : rs.rows) subjects.emplace_back(row[0].term);
  EXPECT_EQ(subjects, (std::vector<std::string>{"e05", "e08", "e10", "e13",
                                                "e15"}));
}

TEST_F(OrderTiesTest, UnionOrdersAndSlicesTheMergedRows) {
  const std::string q =
      "SELECT ?e ?v { { ?e score ?v ?t FILTER(?v = 10) } UNION "
      "{ ?e score ?v ?t FILTER(?v = \"x\") } } ORDER BY DESC(?v) LIMIT 4 "
      "OFFSET 3";
  const std::vector<std::string> want = {"e17|x|", "e22|x|", "e27|x|",
                                         "e01|10|"};
  EXPECT_EQ(Lines(Run(&graph_, q)), want);
  EXPECT_EQ(Lines(Run(&naive_, q)), want);
}

TEST_F(OrderTiesTest, ZeroWidthResultsCountTheirRows) {
  // No variable: the answer is one empty row when the pattern matches,
  // none otherwise; LIMIT and OFFSET slice the one row.
  const engine::ResultSet hit = Run(&graph_, "SELECT * { e01 score 10 }");
  EXPECT_TRUE(hit.columns.empty());
  ASSERT_EQ(hit.rows.size(), 1u);
  EXPECT_TRUE(hit.rows[0].empty());
  EXPECT_EQ(hit.stats.result_rows, 1u);
  EXPECT_EQ(hit.ToString(), "\n\n");
  EXPECT_TRUE(Run(&graph_, "SELECT * { e01 score x }").rows.empty());
  EXPECT_EQ(Run(&naive_, "SELECT * { e01 score 10 } LIMIT 1").rows.size(),
            1u);
  EXPECT_TRUE(Run(&graph_, "SELECT * { e01 score 10 } OFFSET 1").rows.empty());
  EXPECT_TRUE(Run(&graph_, "SELECT * { e01 score 10 } LIMIT 0").rows.empty());
}


engine::Cell Term(std::string_view text) {
  engine::Cell cell;
  cell.term = text;
  return cell;
}

std::vector<std::string> Column(const engine::RowTable& rows, size_t col) {
  std::vector<std::string> out;
  for (const auto& row : rows) out.push_back(row[col].ToString());
  return out;
}

TEST(RowTableTest, AppendIndexPopAndReorder) {
  engine::RowTable rows(2);
  EXPECT_TRUE(rows.empty());
  for (const char* name : {"a", "b", "c", "d"}) {
    const std::span<engine::Cell> row = rows.AppendRow();
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0], engine::Cell{});  // appended rows start unbound
    row[0] = Term(name);
    row[1].is_time = true;
    row[1].time = TemporalSet(Interval(1, 5));
  }
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[2][0].term, "c");
  EXPECT_EQ(Column(rows, 0), (std::vector<std::string>{"a", "b", "c", "d"}));

  rows.pop_back();
  EXPECT_EQ(Column(rows, 0), (std::vector<std::string>{"a", "b", "c"}));
  rows.AppendRow()[0] = Term("e");
  EXPECT_EQ(Column(rows, 0), (std::vector<std::string>{"a", "b", "c", "e"}));
  EXPECT_TRUE(rows[3][1].time.empty());  // the popped row left nothing

  const engine::RowTable before = rows;
  const std::vector<uint32_t> order = {3, 0, 2};
  rows.Reorder(order);
  EXPECT_EQ(Column(rows, 0), (std::vector<std::string>{"e", "a", "c"}));
  EXPECT_EQ(rows[1][1].time, TemporalSet(Interval(1, 5)));
  EXPECT_NE(rows, before);
  rows.Reorder(std::vector<uint32_t>{});
  EXPECT_TRUE(rows.empty());
}

TEST(RowTableTest, ZeroWidthRowsAreCounted) {
  engine::RowTable rows(0);
  rows.AppendRow();
  rows.AppendRow();
  rows.AppendRow();
  EXPECT_EQ(rows.size(), 3u);
  size_t visited = 0;
  for (const auto& row : rows) {
    EXPECT_TRUE(row.empty());
    ++visited;
  }
  EXPECT_EQ(visited, 3u);
  rows.pop_back();
  EXPECT_EQ(rows.size(), 2u);
  rows.Reorder(std::vector<uint32_t>{1});
  EXPECT_EQ(rows.size(), 1u);
}

// The store and the engine of each query are gone before its result is
// read; only the Dictionary stays. Under ASan a cell that kept a view
// of anything else (the engine, the store, the query text, a temporary
// of the tail) reads freed memory.
class ResultLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = [&](const std::string& s) { return dict_.Intern(s); };
    const TermId president = id("president"), budget = id("budget");
    const TermId uc = id("University_of_California");
    triples_ = {
        {{uc, president, id("Dynes")}, {day(2003, 10, 2), day(2008, 6, 16)}},
        {{uc, president, id("Yudof")}, {day(2008, 6, 16), day(2013, 9, 30)}},
        {{uc, president, id("Napolitano")}, {day(2013, 9, 30), kChrononNow}},
        {{uc, budget, id("22.7")}, {day(2013, 1, 30), day(2015, 1, 30)}},
        {{uc, budget, id("25.46")}, {day(2015, 1, 30), kChrononNow}},
        {{id("UT"), president, id("Powers")},
         {day(2006, 2, 1), day(2015, 6, 2)}},
        {{id("UT"), president, id("Powers")}, {day(2016, 1, 1), kChrononNow}},
    };
  }

  engine::ResultSet Execute(std::string query) {
    std::optional<engine::ResultSet> out;
    {
      auto graph = std::make_unique<TemporalGraph>();
      EXPECT_TRUE(graph->Load(triples_).ok());
      engine::EngineOptions options;
      options.now = day(2016, 3, 15);
      auto eng = std::make_unique<engine::QueryEngine>(graph.get(), &dict_,
                                                       options);
      auto r = eng->Execute(query);
      EXPECT_TRUE(r.ok()) << query << "\n" << r.status().ToString();
      if (r.ok()) out = std::move(*r);
      query.assign(query.size(), '#');  // the text is gone too
    }
    return out ? std::move(*out) : engine::ResultSet{};
  }

  static std::string ReadAll(const engine::ResultSet& rs) {
    std::string text = rs.ToString();
    for (const auto& row : rs.rows) text += engine::RowFingerprint(row);
    return text;
  }

  Dictionary dict_;
  std::vector<TemporalTriple> triples_;
};

TEST_F(ResultLifetimeTest, ResultOutlivesItsEngineAndStore) {
  const engine::ResultSet plain =
      Execute("SELECT ?p ?t { ?u president ?p ?t FILTER(?p != \"Dynes\") } "
              "ORDER BY ?p");
  EXPECT_EQ(plain.ToString(),
            "?p\t?t\n"
            "Napolitano\t[2013-09-30 ... now]\n"
            "Powers\t[2006-02-01 ... 2015-06-01], [2016-01-01 ... now]\n"
            "Yudof\t[2008-06-16 ... 2013-09-29]\n");
  const engine::ResultSet agg = Execute(
      "SELECT ?u (COUNT(?p) AS ?n) (MIN(?p) AS ?first) (MAX(?t) AS ?last) "
      "{ ?u president ?p ?t } GROUP BY ?u");
  EXPECT_EQ(agg.ToString(),
            "?u\t?n\t?first\t?last\n"
            "UT\t1\tPowers\tnow\n"
            "University_of_California\t3\tDynes\tnow\n");
  const engine::ResultSet sums = Execute(
      "SELECT (MIN(?b) AS ?lo) (SUM(?b) AS ?total) (DCOUNT(?t) AS ?days) "
      "{ ?u budget ?b ?t }");
  EXPECT_EQ(sums.ToString(), "?lo\t?total\t?days\n22.7\t48.16\t1140\n");
  const engine::ResultSet both = Execute(
      "SELECT ?p { { ?u president ?p ?t FILTER(?u = \"UT\") } UNION "
      "{ ?u budget ?p ?t } } ORDER BY ?p");
  EXPECT_EQ(both.ToString(), "?p\n22.7\n25.46\nPowers\n");
  // Every cell, down to its raw bytes, reads after the engines are gone.
  for (const engine::ResultSet* rs : {&plain, &agg, &sums, &both}) {
    EXPECT_FALSE(ReadAll(*rs).empty());
  }
}

TEST_F(ResultLifetimeTest, CopiesAndMovesReadBackIdentically) {
  for (const char* q :
       {"SELECT ?u (COUNT(?p) AS ?n) (DCOUNT(?t) AS ?days) "
        "(MIN(?t) AS ?since) { ?u president ?p ?t } GROUP BY ?u",
        "SELECT (MIN(?b) AS ?lo) (MAX(?b) AS ?hi) (DSUM(?b, ?t) AS ?x) "
        "{ ?u budget ?b ?t }",
        "SELECT ?p ?t { { ?u president ?p ?t } UNION { ?u budget ?p ?t } } "
        "ORDER BY DESC(?t) LIMIT 4"}) {
    std::optional<engine::ResultSet> original = Execute(q);
    const std::string want = ReadAll(*original);
    ASSERT_GT(original->rows.size(), 0u) << q;

    engine::ResultSet copy = *original;
    engine::ResultSet assigned = Execute("SELECT (COUNT(*) AS ?n) "
                                         "{ ?u president ?p ?t }");
    assigned = *original;
    EXPECT_EQ(copy.rows, original->rows) << q;
    original.reset();  // the copies must not lean on the original
    EXPECT_EQ(ReadAll(copy), want) << q;
    EXPECT_EQ(ReadAll(assigned), want) << q;

    engine::ResultSet moved = std::move(copy);
    EXPECT_EQ(ReadAll(moved), want) << q;
    engine::ResultSet move_assigned;
    move_assigned = std::move(assigned);
    EXPECT_EQ(ReadAll(move_assigned), want) << q;
    EXPECT_EQ(moved.rows, move_assigned.rows) << q;
  }
}

}  // namespace
}  // namespace rdftx
