// Differential conformance of the full SPARQLt stack: the query engine
// over the compressed-MVBT graph must answer generated workloads
// (temporal selections, temporal joins, complex multi-pattern queries —
// all with FILTER / temporal built-ins) exactly like the flat-scan
// NaiveStore oracle. Every check runs twice: on the freshly built graph
// and on a graph restored from a snapshot of it, so persistence can
// never change an answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baselines/naive_store.h"
#include "engine/executor.h"
#include "rdf/temporal_graph.h"
#include "storage/snapshot.h"
#include "store_test_util.h"
#include "workload/govtrack_gen.h"
#include "workload/query_gen.h"
#include "workload/wikipedia_gen.h"

namespace rdftx {
namespace {

using storage::ReadSnapshotFromBuffer;
using storage::SerializeSnapshot;

// Order-independent canonical form of a result set: the column header
// plus the sorted list of per-row fingerprints (raw term text and raw
// run endpoints, so display formatting cannot mask a difference).
std::string SortedFingerprint(const engine::ResultSet& rs) {
  std::string header;
  for (const std::string& c : rs.columns) {
    header += c;
    header += ';';
  }
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string fp;
    for (const engine::Cell& cell : row) cell.AppendFingerprint(&fp);
    rows.push_back(std::move(fp));
  }
  std::sort(rows.begin(), rows.end());
  std::string out = header + "\n";
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

// A random pattern whose constants come from an actual dataset triple,
// cycling through all 8 constant masks and the three time shapes (all
// of history, point, period) — jointly the 16 SPARQLt pattern types.
PatternSpec DatasetPattern(const workload::Dataset& d, uint64_t mask,
                           Rng* rng) {
  const TemporalTriple& tt = d.triples[rng->Uniform(d.triples.size())];
  PatternSpec spec;
  if (mask & 1) spec.s = tt.triple.s;
  if (mask & 2) spec.p = tt.triple.p;
  if (mask & 4) spec.o = tt.triple.o;
  switch (rng->Uniform(3)) {
    case 0:
      spec.time = Interval::All();
      break;
    case 1: {
      Chronon t = d.start + static_cast<Chronon>(
                                rng->Uniform(d.horizon - d.start + 1));
      spec.time = Interval(t, t + 1);
      break;
    }
    default: {
      Chronon t = d.start + static_cast<Chronon>(
                                rng->Uniform(d.horizon - d.start + 1));
      spec.time = Interval(t, t + 1 + rng->Uniform(365));
    }
  }
  return spec;
}

enum class Gen { kWikipedia, kGovTrack };

struct ConformanceCase {
  Gen gen;
  uint64_t seed;
};

class StoreConformanceTest
    : public ::testing::TestWithParam<ConformanceCase> {
 protected:
  void SetUp() override {
    const ConformanceCase& c = GetParam();
    if (c.gen == Gen::kWikipedia) {
      data_ = workload::GenerateWikipedia(
          &dict_, workload::WikipediaOptions{.num_triples = 6000,
                                             .seed = c.seed});
    } else {
      data_ = workload::GenerateGovTrack(
          &dict_, workload::GovTrackOptions{.num_triples = 6000,
                                            .seed = c.seed});
    }
    ASSERT_TRUE(naive_.Load(data_.triples).ok());
    // Small blocks force deep trees with splits and merges, so the
    // snapshot exercises a non-trivial forest.
    graph_ = std::make_unique<TemporalGraph>(
        TemporalGraphOptions{.block_capacity = 64, .compress_leaves = true});
    ASSERT_TRUE(graph_->Load(data_.triples).ok());

    // Round-trip through the snapshot format into a fresh graph and a
    // fresh dictionary.
    const std::vector<uint8_t> image = SerializeSnapshot(*graph_, &dict_);
    loaded_ = std::make_unique<TemporalGraph>();
    ASSERT_TRUE(ReadSnapshotFromBuffer(image.data(), image.size(),
                                       loaded_.get(), &loaded_dict_)
                    .ok());
  }

  // The generated SPARQLt workload: selections (temporal FILTER point /
  // year / range), subject-star temporal joins, and complex queries of
  // 3..5 patterns.
  std::vector<std::string> Workload(uint64_t seed) const {
    Rng rng(seed);
    std::vector<std::string> queries =
        workload::MakeSelectionQueries(data_, dict_, 12, &rng);
    auto joins = workload::MakeJoinQueries(data_, dict_, 8, &rng);
    queries.insert(queries.end(), joins.begin(), joins.end());
    auto complex = workload::MakeComplexQueries(data_, dict_, 3, 5, 3, &rng);
    for (auto& [size, qs] : complex) {
      queries.insert(queries.end(), qs.begin(), qs.end());
    }
    return queries;
  }

  // Queries over the new language surface — aggregates, GROUP BY,
  // ORDER BY/LIMIT (including the top-k pushdown shape), and FILTER
  // [NOT] EXISTS — parameterized by predicates sampled from the data.
  std::vector<std::string> ModifierWorkload(uint64_t seed) const {
    Rng rng(seed);
    auto pred = [&]() {
      const TemporalTriple& tt =
          data_.triples[rng.Uniform(data_.triples.size())];
      return dict_.Decode(tt.triple.p);
    };
    std::vector<std::string> queries;
    for (int i = 0; i < 4; ++i) {
      const std::string p1 = pred(), p2 = pred();
      queries.push_back("SELECT ?s (COUNT(?o) AS ?n) { ?s " + p1 +
                        " ?o ?t } GROUP BY ?s");
      queries.push_back("SELECT (COUNT(*) AS ?n) (MIN(?o) AS ?lo) "
                        "(MAX(?t) AS ?hi) { ?s " + p1 + " ?o ?t }");
      queries.push_back("SELECT ?s (DCOUNT(?t) AS ?d) { ?s " + p1 +
                        " ?o ?t } GROUP BY ?s ORDER BY DESC(?d) ?s "
                        "LIMIT 10");
      // Top-k pushdown shape: single pattern, full projection, bound ?t.
      queries.push_back("SELECT ?s ?o ?t { ?s " + p1 +
                        " ?o ?t } ORDER BY DESC(?t) ?s ?o LIMIT 8");
      queries.push_back("SELECT ?s ?o { ?s " + p1 +
                        " ?o ?t . FILTER EXISTS { ?s " + p2 +
                        " ?o2 ?t } } LIMIT 40");
      queries.push_back("SELECT ?s { ?s " + p1 +
                        " ?o ?t . FILTER NOT EXISTS { ?s " + p2 +
                        " ?o2 ?t2 } }");
    }
    return queries;
  }

  Dictionary dict_;
  Dictionary loaded_dict_;
  workload::Dataset data_;
  NaiveStore naive_;
  std::unique_ptr<TemporalGraph> graph_;
  std::unique_ptr<TemporalGraph> loaded_;
};

TEST_P(StoreConformanceTest, EngineAgreesWithNaiveOracle) {
  // The reference answers come from the engine over the NaiveStore
  // oracle; the engine over the TemporalGraph, before and after a
  // snapshot round trip, must match them.
  engine::QueryEngine oracle(&naive_, &dict_);
  engine::QueryEngine mvbt(graph_.get(), &dict_);
  engine::QueryEngine restored(loaded_.get(), &loaded_dict_);
  int nonempty = 0;
  for (const std::string& q : Workload(/*seed=*/101)) {
    auto want = oracle.Execute(q);
    ASSERT_TRUE(want.ok()) << q << "\n" << want.status().ToString();
    const std::string expect = SortedFingerprint(*want);
    struct Check {
      const char* what;
      engine::QueryEngine* eng;
    };
    for (const Check& c :
         {Check{"mvbt", &mvbt}, Check{"post-load mvbt", &restored}}) {
      auto got = c.eng->Execute(q);
      ASSERT_TRUE(got.ok()) << q << "\n" << got.status().ToString();
      EXPECT_EQ(SortedFingerprint(*got), expect)
          << c.what << " divergence on\n"
          << q;
    }
    if (!want->rows.empty()) ++nonempty;
  }
  // Queries are sampled from dataset facts; if most come back empty the
  // comparison is vacuous.
  EXPECT_GE(nonempty, 20);
}

TEST_P(StoreConformanceTest, ModifierQueriesAgreeAcrossModesAndStores) {
  // Aggregates, ORDER BY/LIMIT, and EXISTS run in the same columnar tail
  // on every store, so the TemporalGraph must produce the NaiveStore
  // oracle's rows AND its operator counters (agg_groups, topk_pushdowns,
  // exists_probes).
  engine::QueryEngine oracle(&naive_, &dict_);
  engine::QueryEngine mvbt(graph_.get(), &dict_);
  uint64_t agg_groups = 0, topk = 0, exists_probes = 0;
  for (const std::string& q : ModifierWorkload(GetParam().seed * 31 + 7)) {
    auto want = oracle.Execute(q);
    ASSERT_TRUE(want.ok()) << q << "\n" << want.status().ToString();
    auto got = mvbt.Execute(q);
    ASSERT_TRUE(got.ok()) << q << "\n" << got.status().ToString();
    EXPECT_EQ(SortedFingerprint(*got), SortedFingerprint(*want))
        << "divergence on\n" << q;
    EXPECT_EQ(got->stats.agg_groups, want->stats.agg_groups)
        << "agg_groups parity on\n" << q;
    EXPECT_EQ(got->stats.topk_pushdowns, want->stats.topk_pushdowns)
        << "topk_pushdowns parity on\n" << q;
    EXPECT_EQ(got->stats.exists_probes, want->stats.exists_probes)
        << "exists_probes parity on\n" << q;
    agg_groups += want->stats.agg_groups;
    topk += want->stats.topk_pushdowns;
    exists_probes += want->stats.exists_probes;
  }
  // The workload must actually exercise each new operator.
  EXPECT_GT(agg_groups, 0u);
  EXPECT_GT(topk, 0u);
  EXPECT_GT(exists_probes, 0u);
}

TEST_P(StoreConformanceTest, ScansAgreeOnAllSixteenPatternTypes) {
  Rng rng(GetParam().seed * 977 + 5);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const PatternSpec spec = DatasetPattern(data_, mask, &rng);
      auto want = testutil::CanonicalScan(naive_, spec);
      auto got = testutil::CanonicalScan(*graph_, spec);
      auto after_load = testutil::CanonicalScan(*loaded_, spec);
      ASSERT_EQ(got, want) << "pre-save scan divergence, mask " << mask;
      ASSERT_EQ(after_load, want) << "post-load scan divergence, mask "
                                  << mask;
    }
  }
}

TEST_P(StoreConformanceTest, DictionaryRestoredExactly) {
  ASSERT_EQ(loaded_dict_.size(), dict_.size());
  for (TermId id = 1; id <= dict_.size(); ++id) {
    ASSERT_EQ(loaded_dict_.Decode(id), dict_.Decode(id)) << "term " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StoreConformanceTest,
    ::testing::Values(ConformanceCase{Gen::kWikipedia, 211},
                      ConformanceCase{Gen::kWikipedia, 212},
                      ConformanceCase{Gen::kGovTrack, 213}),
    [](const ::testing::TestParamInfo<ConformanceCase>& info) {
      return (info.param.gen == Gen::kWikipedia ? std::string("wikipedia")
                                                : std::string("govtrack")) +
             "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rdftx
