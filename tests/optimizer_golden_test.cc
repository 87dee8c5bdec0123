// Golden plan test: the join orders and cardinality estimates the
// optimizer produces on seeded Wikipedia and GovTrack queries are pinned
// in tests/data/optimizer_golden.txt. Performance work on the histogram
// or the DP must leave every order identical and every estimate equal up
// to floating-point summation order.
//
// File format, one record per line:
//   <fixture> <query#> order=<i,j,...> pat=<e0,e1,...> full=<card>
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "workload/govtrack_gen.h"
#include "workload/query_gen.h"
#include "workload/wikipedia_gen.h"

namespace rdftx::optimizer {
namespace {

struct Record {
  std::string name;  // "<fixture> <query#>"
  std::vector<int> order;
  std::vector<double> patterns;
  double full = 0.0;
};

std::string Format(const Record& r) {
  std::ostringstream out;
  out << r.name << " order=";
  for (size_t i = 0; i < r.order.size(); ++i) {
    out << (i ? "," : "") << r.order[i];
  }
  out << " pat=";
  char buf[32];
  for (size_t i = 0; i < r.patterns.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", r.patterns[i]);
    out << (i ? "," : "") << buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", r.full);
  out << " full=" << buf;
  return out.str();
}

bool Parse(const std::string& line, Record* r) {
  std::istringstream in(line);
  std::string fixture, index, order, pat, full;
  if (!(in >> fixture >> index >> order >> pat >> full)) return false;
  if (order.rfind("order=", 0) != 0 || pat.rfind("pat=", 0) != 0 ||
      full.rfind("full=", 0) != 0) {
    return false;
  }
  r->name = fixture + " " + index;
  auto split = [](const std::string& s) {
    std::vector<std::string> parts;
    std::istringstream items(s);
    std::string item;
    while (std::getline(items, item, ',')) parts.push_back(item);
    return parts;
  };
  for (const std::string& s : split(order.substr(6))) {
    r->order.push_back(std::stoi(s));
  }
  for (const std::string& s : split(pat.substr(4))) {
    r->patterns.push_back(std::stod(s));
  }
  r->full = std::stod(full.substr(5));
  return true;
}

// Seeded joins plus complex 3-7 pattern queries over one fixture.
void AppendRecords(const std::string& fixture, const Dictionary& dict,
                   const workload::Dataset& data, uint64_t query_seed,
                   std::vector<Record>* out) {
  CharSetCatalog catalog;
  catalog.Build(data.triples);
  TemporalHistogram histogram(&catalog, data.triples,
                              data.triples.size() * sizeof(TemporalTriple));
  QueryOptimizer optimizer(&catalog, &histogram);

  Rng rng(query_seed);
  std::vector<std::string> queries =
      workload::MakeJoinQueries(data, dict, 24, &rng);
  for (auto& [size, qs] :
       workload::MakeComplexQueries(data, dict, 3, 7, 6, &rng)) {
    queries.insert(queries.end(), qs.begin(), qs.end());
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    auto parsed = sparqlt::Parse(queries[q]);
    ASSERT_TRUE(parsed.ok()) << queries[q];
    auto cq = engine::Compile(*parsed, dict);
    ASSERT_TRUE(cq.ok()) << queries[q];
    Record r;
    r.name = fixture + " " + std::to_string(q);
    r.order = optimizer.ChooseOrder(*cq);
    for (const engine::CompiledPattern& cp : cq->patterns) {
      r.patterns.push_back(optimizer.EstimatePattern(cp));
    }
    const uint32_t full = (1u << cq->patterns.size()) - 1;
    r.full = optimizer.EstimateSubsetCard(*cq, full);
    out->push_back(std::move(r));
  }
}

std::vector<Record> CurrentRecords() {
  std::vector<Record> records;
  {
    Dictionary dict;
    workload::Dataset data = workload::GenerateWikipedia(
        &dict, workload::WikipediaOptions{.num_triples = 12000, .seed = 5});
    AppendRecords("wiki", dict, data, 17, &records);
  }
  {
    Dictionary dict;
    workload::Dataset data = workload::GenerateGovTrack(
        &dict, workload::GovTrackOptions{.num_triples = 12000, .seed = 6});
    AppendRecords("gov", dict, data, 19, &records);
  }
  return records;
}

bool Close(double want, double got) {
  return std::abs(want - got) <= 1e-9 * std::max(1.0, std::abs(want));
}

TEST(OptimizerGoldenTest, OrdersAndEstimatesMatchGoldenFile) {
  std::ifstream in(std::string(RDFTX_TEST_DATA_DIR) +
                   "/optimizer_golden.txt");
  ASSERT_TRUE(in.good()) << "missing tests/data/optimizer_golden.txt";
  std::vector<Record> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Record r;
    ASSERT_TRUE(Parse(line, &r)) << line;
    golden.push_back(std::move(r));
  }
  const std::vector<Record> current = CurrentRecords();
  ASSERT_EQ(current.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    const Record& want = golden[i];
    const Record& got = current[i];
    SCOPED_TRACE(Format(got));
    ASSERT_EQ(got.name, want.name);
    EXPECT_EQ(got.order, want.order);
    ASSERT_EQ(got.patterns.size(), want.patterns.size());
    for (size_t p = 0; p < want.patterns.size(); ++p) {
      EXPECT_TRUE(Close(want.patterns[p], got.patterns[p]))
          << "pattern " << p << ": " << want.patterns[p] << " vs "
          << got.patterns[p];
    }
    EXPECT_TRUE(Close(want.full, got.full))
        << "full: " << want.full << " vs " << got.full;
  }
}

}  // namespace
}  // namespace rdftx::optimizer
