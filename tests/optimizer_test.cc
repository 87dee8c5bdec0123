#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/rdftx.h"
#include "rdf/temporal_graph.h"
#include "util/rng.h"

namespace rdftx::optimizer {
namespace {

using engine::CompiledQuery;

// A small university-like dataset: many subjects share characteristic
// sets; predicate "rare" is highly selective, "common" is not.
class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    Chronon t0 = ChrononFromYmd(2010, 1, 1);
    // Appends rather than "c" + std::to_string(n), which GCC 12 rejects
    // under -Werror=restrict in Release builds.
    auto term = [](const char* prefix, uint64_t n) {
      return std::string(prefix).append(std::to_string(n));
    };
    for (int s = 0; s < 200; ++s) {
      std::string subject = "entity" + std::to_string(s);
      // Every entity has ~6 "common" values over time.
      Chronon t = t0;
      for (int v = 0; v < 6; ++v) {
        Chronon end = t + 100 + static_cast<Chronon>(rng.Uniform(200));
        AddFact(subject, "common", term("c", rng.Uniform(50)),
                Interval(t, end));
        t = end;
      }
      // Entities also carry a "name" fact (static).
      AddFact(subject, "name", term("n", s), Interval(t0, kChrononNow));
      // Only a few entities have the "rare" predicate.
      if (s < 5) {
        AddFact(subject, "rare", term("r", s), Interval(t0 + 50, t0 + 400));
      }
    }
    ASSERT_TRUE(db_.Finish().ok());
  }

  // Adds a fact to db_ and records it, encoded, in triples_.
  void AddFact(const std::string& s, const std::string& p,
               const std::string& o, Interval iv) {
    ASSERT_TRUE(db_.Add(s, p, o, iv).ok());
    Dictionary* dict = db_.dictionary();
    triples_.push_back(
        {{dict->Intern(s), dict->Intern(p), dict->Intern(o)}, iv});
  }

  Result<CompiledQuery> CompileText(const std::string& text) {
    auto q = sparqlt::Parse(text);
    if (!q.ok()) return q.status();
    query_ = std::move(q).value();
    return engine::Compile(query_, *db_.dictionary());
  }

  RdfTx db_;
  sparqlt::Query query_;
  std::vector<TemporalTriple> triples_;
};

TEST_F(OptimizerFixture, SinglePatternCardinalities) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto card = [&](const std::string& text) {
    auto cq = CompileText(text);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return opt->EstimatePattern(cq->patterns[0]);
  };
  double rare = card("SELECT ?s ?o ?t { ?s rare ?o ?t }");
  double common = card("SELECT ?s ?o ?t { ?s common ?o ?t }");
  double name = card("SELECT ?s ?o ?t { ?s name ?o ?t }");
  // True counts: rare = 5, common = 1200, name = 200.
  EXPECT_NEAR(rare, 5.0, 3.0);
  EXPECT_NEAR(common, 1200.0, 250.0);
  EXPECT_NEAR(name, 200.0, 60.0);
  EXPECT_LT(rare, name);
  EXPECT_LT(name, common);
}

TEST_F(OptimizerFixture, TemporalWindowReducesEstimate) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq_all = CompileText("SELECT ?s ?o ?t { ?s common ?o ?t }");
  auto cq_win = CompileText(
      "SELECT ?s ?o ?t { ?s common ?o ?t . FILTER(?t <= 2010-03-01) }");
  ASSERT_TRUE(cq_all.ok());
  ASSERT_TRUE(cq_win.ok());
  double all = opt->EstimatePattern(cq_all->patterns[0]);
  double win = opt->EstimatePattern(cq_win->patterns[0]);
  // Only the first value per entity is alive by 2010-03-01 (~200 of
  // 1200 triples).
  EXPECT_LT(win, all * 0.5);
  EXPECT_GT(win, 50.0);
}

TEST_F(OptimizerFixture, BoundSubjectEstimatesPerSubject) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq = CompileText("SELECT ?o ?t { entity3 common ?o ?t }");
  ASSERT_TRUE(cq.ok());
  double est = opt->EstimatePattern(cq->patterns[0]);
  EXPECT_NEAR(est, 6.0, 4.0);  // ~6 values per subject
}

TEST_F(OptimizerFixture, StarJoinUsesCharacteristicSets) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq = CompileText(
      "SELECT ?s ?o1 ?o2 ?t { ?s rare ?o1 ?t . ?s common ?o2 ?t }");
  ASSERT_TRUE(cq.ok());
  double est = opt->EstimateSubsetCard(*cq, 0b11);
  // Only the 5 rare entities contribute; each pairs its 1 rare fact
  // with ~6 common facts -> tens of pairs, nowhere near 1200 * 5.
  EXPECT_LT(est, 300.0);
  EXPECT_GT(est, 1.0);
}

// The star formula counts in the intersection of its patterns' windows,
// even when one call also needs a predicate under its own wider window.
TEST_F(OptimizerFixture, StarCountsInTheIntersectedWindow) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto star = [&](const std::string& filter) {
    auto cq = CompileText("SELECT ?s { ?s common ?o1 ?t1 . ?s rare ?o2 ?t2 " +
                          filter + " }");
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return opt->EstimateSubsetCard(*cq, 0b11);
  };
  const double one = star(". FILTER(?t1 >= 2011-03-01)");
  const double both =
      star(". FILTER(?t1 >= 2011-03-01 && ?t2 >= 2011-03-01)");
  const double all = star("");
  EXPECT_EQ(one, both);
  EXPECT_NE(one, all);
}

TEST_F(OptimizerFixture, ChoosesSelectivePatternFirst) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq = CompileText(
      "SELECT ?s ?o1 ?o2 ?t { ?s common ?o1 ?t . ?s rare ?o2 ?t }");
  ASSERT_TRUE(cq.ok());
  std::vector<int> order = opt->ChooseOrder(*cq);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "rare pattern must lead";
}

// True when pattern `i` shares a variable with a pattern of `order`'s
// first `k` entries.
bool ConnectsToPrefix(const CompiledQuery& cq, const std::vector<int>& order,
                      size_t k, int i) {
  for (size_t j = 0; j < k; ++j) {
    if (cq.patterns[static_cast<size_t>(i)].SharesVariable(
            cq.patterns[static_cast<size_t>(order[j])])) {
      return true;
    }
  }
  return false;
}

// Checks that `order` is a permutation of the query's patterns and that
// it never extends by an unconnected pattern while a connected one is
// unused.
void ExpectConnectedExtensions(const CompiledQuery& cq,
                               const std::vector<int>& order) {
  const size_t n = cq.patterns.size();
  ASSERT_EQ(order.size(), n);
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(sorted[i], static_cast<int>(i));
  for (size_t k = 1; k < n; ++k) {
    bool any_connected = false;
    for (size_t i = 0; i < n; ++i) {
      const int p = static_cast<int>(i);
      if (std::find(order.begin(), order.begin() + k, p) ==
          order.begin() + k) {
        any_connected = any_connected || ConnectsToPrefix(cq, order, k, p);
      }
    }
    if (any_connected) {
      EXPECT_TRUE(ConnectsToPrefix(cq, order, k, order[k]))
          << "step " << k << " extends by unconnected pattern " << order[k];
    }
  }
}

// Neither golden set holds a query whose connectivity rule has a choice
// to make (every golden query is a connected star or a 2-pattern join).
// Each pattern has its own time variable: a shared one would connect
// every pattern.
TEST_F(OptimizerFixture, ChainOrderExtendsOnlyByConnectedPatterns) {
  const QueryOptimizer* opt = db_.query_optimizer();
  // Chain 0 -(?y)- 2 -(?w)- 1: patterns 0 and 1 share nothing. Their
  // cross product (a few rare facts times one name) is cheaper than the
  // join through the large `common` pattern, but is not allowed while
  // the chain can extend.
  auto cq = CompileText(R"(
    SELECT ?x { ?x rare ?y ?t1 . entity3 name ?w ?t2 . ?y common ?w ?t3 }
  )");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_FALSE(cq->patterns[0].SharesVariable(cq->patterns[1]));
  ExpectConnectedExtensions(*cq, opt->ChooseOrder(*cq));
}

TEST_F(OptimizerFixture, TwoComponentOrderKeepsComponentsContiguous) {
  const QueryOptimizer* opt = db_.query_optimizer();
  // Components {0, 2} (?a) and {1, 3} (?d), interleaved in the text;
  // without the rule the two small patterns 0 and 1 would go first.
  auto cq = CompileText(R"(
    SELECT ?a ?d {
      ?a rare ?b ?t1 . entity3 name ?d ?t2 . ?a common ?e ?t3 .
      ?g common ?d ?t4
    }
  )");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  std::vector<int> order = opt->ChooseOrder(*cq);
  ExpectConnectedExtensions(*cq, order);
  ASSERT_EQ(order.size(), 4u);
  auto component = [](int i) { return i % 2; };
  int switches = 0;
  for (size_t k = 1; k < order.size(); ++k) {
    switches += component(order[k]) != component(order[k - 1]) ? 1 : 0;
  }
  EXPECT_EQ(switches, 1) << "order " << order[0] << order[1] << order[2]
                         << order[3];
}

// Patterns that share no variable multiply: the subset estimate of two
// unconnected patterns is the product of their scan estimates.
TEST_F(OptimizerFixture, UnconnectedSubsetIsProductOfScans) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq = CompileText(R"(
    SELECT ?a ?c { ?a rare ?b ?t1 . ?c name ?d ?t2 }
  )");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_FALSE(cq->patterns[0].SharesVariable(cq->patterns[1]));
  const double rare = opt->EstimatePattern(cq->patterns[0]);
  const double name = opt->EstimatePattern(cq->patterns[1]);
  EXPECT_GT(rare, 0.0);
  EXPECT_GT(name, 0.0);
  EXPECT_EQ(opt->EstimateSubsetCard(*cq, 0b11), rare * name);
}

TEST_F(OptimizerFixture, DpOrderIsCostMinimalAmongPermutations) {
  const QueryOptimizer* opt = db_.query_optimizer();
  auto cq = CompileText(R"(
    SELECT ?s ?o1 ?o2 ?o3 ?t
    { ?s common ?o1 ?t . ?s name ?o2 ?t . ?s rare ?o3 ?t }
  )");
  ASSERT_TRUE(cq.ok());
  std::vector<int> chosen = opt->ChooseOrder(*cq);
  double chosen_cost = opt->EstimateOrderCost(*cq, chosen);
  std::vector<int> perm{0, 1, 2};
  do {
    double cost = opt->EstimateOrderCost(*cq, perm);
    EXPECT_LE(chosen_cost, cost * 1.0001)
        << "order " << perm[0] << perm[1] << perm[2];
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST_F(OptimizerFixture, OptimizedQueryReturnsSameResults) {
  // With and without the optimizer the engine must produce identical
  // result sets.
  const std::string text = R"(
    SELECT ?s ?o1 ?o2 ?t
    { ?s common ?o1 ?t . ?s rare ?o2 ?t . FILTER(YEAR(?t) = 2010) }
  )";
  auto with_opt = db_.Query(text);
  ASSERT_TRUE(with_opt.ok()) << with_opt.status().ToString();
  engine::QueryEngine plain(&db_.graph(), db_.dictionary());
  auto without = plain.Execute(text);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  auto canon = [](const engine::ResultSet& rs) {
    std::multiset<std::string> rows;
    for (const auto& row : rs.rows) {
      std::string s;
      for (const auto& c : row) s += c.ToString() + "|";
      rows.insert(s);
    }
    return rows;
  };
  EXPECT_EQ(canon(*with_opt), canon(*without));
  EXPECT_FALSE(with_opt->rows.empty());
}

// The optimizer's histogram, rebuilt from the fixture's facts: a batch
// of sets answers each set exactly as its one-set batch does.
TEST_F(OptimizerFixture, HistogramBatchesEqualOneSetBatches) {
  CharSetCatalog catalog;
  catalog.Build(triples_);
  TemporalHistogram hist(&catalog, triples_,
                         triples_.size() * sizeof(TemporalTriple));
  std::vector<CharSetId> sets(catalog.set_count());
  for (CharSetId cs = 0; cs < sets.size(); ++cs) sets[cs] = cs;
  std::vector<TermId> preds;
  for (const char* name : {"common", "name", "rare"}) {
    preds.push_back(db_.dictionary()->Intern(name));
  }
  const Chronon t0 = ChrononFromYmd(2010, 1, 1);
  for (const Interval& window :
       {Interval::All(), Interval(t0 + 60, t0 + 300),
        Interval(t0 + 500, kChrononNow)}) {
    std::vector<double> subjects(sets.size());
    hist.EstimateSubjects(sets, window, subjects);
    for (size_t i = 0; i < sets.size(); ++i) {
      double one = -1.0;
      hist.EstimateSubjects(std::span(&sets[i], 1), window,
                            std::span(&one, 1));
      EXPECT_EQ(subjects[i], one) << "set " << sets[i];
    }
    for (TermId p : preds) {
      std::vector<double> occurrences(sets.size());
      hist.EstimateOccurrences(sets, p, window, occurrences);
      for (size_t i = 0; i < sets.size(); ++i) {
        double one = -1.0;
        hist.EstimateOccurrences(std::span(&sets[i], 1), p, window,
                                 std::span(&one, 1));
        EXPECT_EQ(occurrences[i], one) << "set " << sets[i] << " p " << p;
      }
    }
  }
  EXPECT_GT(hist.EstimatePredicateTriples(preds[0], Interval::All()), 0.0);
}

TEST(HistogramTest, SizeCapIsEnforced) {
  // §6.2 / §7.4: the histogram size is capped at a fraction of raw data
  // by growing cm and merging entries.
  Rng rng(3);
  std::vector<TemporalTriple> triples;
  Chronon t = 0;
  for (int i = 0; i < 30000; ++i) {
    t += static_cast<Chronon>(rng.Uniform(2));
    triples.push_back({{1 + rng.Uniform(500), 1 + rng.Uniform(10),
                        1 + rng.Uniform(300)},
                       Interval(t, t + 1 + rng.Uniform(100))});
  }
  CharSetCatalog catalog;
  catalog.Build(triples);
  const size_t raw = triples.size() * sizeof(TemporalTriple);
  TemporalHistogram capped(&catalog, triples, raw,
                           HistogramOptions{.cm = 1,
                                            .max_fraction_of_raw = 0.10});
  EXPECT_LT(capped.MemoryUsage(), raw / 2)
      << "histogram must stay well below raw size";
  // And it still estimates: full-window predicate count close to truth.
  double est = 0;
  for (TermId p = 1; p <= 10; ++p) {
    est += capped.EstimatePredicateTriples(p, Interval::All());
  }
  EXPECT_NEAR(est, 30000.0, 3000.0);
}

TEST(HistogramTest, PredicatesDifferingBy2To24DoNotAlias) {
  // Predicate ids past 2^24 occur once a dictionary holds more than
  // 16.7M terms. Two predicates of one characteristic set whose ids
  // differ by exactly 2^24 must keep separate occurrence counts.
  const TermId low = 7;
  const TermId high = low + (TermId{1} << 24);
  std::vector<TemporalTriple> triples;
  for (TermId s = 1; s <= 20; ++s) {
    for (TermId o = 0; o < 4; ++o) {
      triples.push_back({{s, low, 100 + o}, Interval(10, 50)});
    }
    triples.push_back({{s, high, 200}, Interval(10, 50)});
  }
  CharSetCatalog catalog;
  catalog.Build(triples);
  ASSERT_EQ(catalog.set_count(), 1u);
  TemporalHistogram histogram(&catalog, triples,
                              triples.size() * sizeof(TemporalTriple),
                              HistogramOptions{.cm = 1});
  const double low_est =
      histogram.EstimatePredicateTriples(low, Interval::All());
  const double high_est =
      histogram.EstimatePredicateTriples(high, Interval::All());
  EXPECT_NE(low_est, high_est);
  EXPECT_NEAR(low_est, 80.0, 1e-6);
  EXPECT_NEAR(high_est, 20.0, 1e-6);
}

TEST(CharSetCatalogTest, GroupsSubjectsByPredicateSet) {
  std::vector<TemporalTriple> triples = {
      {{1, 10, 100}, {0, 10}},  // s1: {10, 11}
      {{1, 11, 101}, {0, 10}},
      {{2, 10, 102}, {0, 10}},  // s2: {10, 11}
      {{2, 11, 103}, {0, 10}},
      {{2, 11, 104}, {10, 20}},
      {{3, 12, 105}, {0, 10}},  // s3: {12}
  };
  CharSetCatalog catalog;
  catalog.Build(triples);
  EXPECT_EQ(catalog.set_count(), 2u);
  EXPECT_EQ(catalog.SetOf(1), catalog.SetOf(2));
  EXPECT_NE(catalog.SetOf(1), catalog.SetOf(3));
  EXPECT_EQ(catalog.SetOf(99), kNoCharSet);
  EXPECT_EQ(catalog.predicates(catalog.SetOf(1)),
            (std::vector<TermId>{10, 11}));
  EXPECT_EQ(catalog.SetsWithPredicate(10).size(), 1u);
  EXPECT_EQ(catalog.total_triples(), 6u);
  EXPECT_EQ(catalog.total_subjects(), 3u);
  const auto* ps = catalog.pred_stats(11);
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->distinct_subjects, 2u);
  EXPECT_EQ(ps->distinct_objects, 3u);
  // Subject and occurrence counts over all time come from the histogram.
  // Even at cm = 1 the CMVSBT splits the count of a rectangle spanning
  // several keys evenly between them, so the three occurrences of 11
  // (two of them sharing a start time with occurrences of 10) are
  // estimated, not counted.
  TemporalHistogram histogram(&catalog, triples, 1 << 20,
                              HistogramOptions{.cm = 1});
  const CharSetId cs = catalog.SetOf(1);
  double subjects = 0.0;
  histogram.EstimateSubjects(std::span(&cs, 1), Interval::All(),
                             std::span(&subjects, 1));
  EXPECT_EQ(subjects, 2.0);
  double occurrences = 0.0;
  histogram.EstimateOccurrences(std::span(&cs, 1), 11, Interval::All(),
                                std::span(&occurrences, 1));
  EXPECT_NEAR(occurrences, 3.0, 0.5);
  EXPECT_EQ(histogram.EstimatePredicateTriples(11, Interval::All()),
            occurrences);
}

TEST(HistogramTest, TimeVaryingSubjectAndOccurrenceCounts) {
  std::vector<TemporalTriple> triples;
  // 50 subjects alive in [0, 100), 50 alive in [200, 300); one
  // predicate each.
  for (TermId s = 1; s <= 100; ++s) {
    Chronon start = s <= 50 ? 0 : 200;
    triples.push_back({{s, 7, 500 + s}, {start, start + 100}});
  }
  CharSetCatalog catalog;
  catalog.Build(triples);
  TemporalHistogram hist(&catalog, triples, 1 << 20,
                         HistogramOptions{.cm = 4});
  CharSetId cs = catalog.SetOf(1);
  auto subjects = [&](const Interval& window) {
    double out = 0.0;
    hist.EstimateSubjects(std::span(&cs, 1), window, std::span(&out, 1));
    return out;
  };
  double early = subjects(Interval(0, 100));
  double late = subjects(Interval(200, 300));
  double gap = subjects(Interval(120, 180));
  double all = subjects(Interval::All());
  EXPECT_NEAR(early, 50.0, 15.0);
  EXPECT_NEAR(late, 50.0, 15.0);
  EXPECT_LT(gap, 15.0);
  EXPECT_NEAR(all, 100.0, 10.0);
  double occ_early = hist.EstimatePredicateTriples(7, Interval(0, 100));
  EXPECT_NEAR(occ_early, 50.0, 15.0);
}

}  // namespace
}  // namespace rdftx::optimizer
