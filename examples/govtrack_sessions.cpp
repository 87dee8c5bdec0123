// GovTrack-style legislative history (paper §7.1.1): congressmen, terms,
// committee service, and votes, with week-snapped timestamps. Shows the
// temporal joins the paper motivates for event-plus-state data and the
// cost-based optimizer picking the selective pattern first.
//
//   ./build/examples/example_govtrack_sessions [num_triples]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/rdftx.h"
#include "engine/translate.h"
#include "workload/govtrack_gen.h"

int main(int argc, char** argv) {
  using namespace rdftx;
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : 50000;

  RdfTx db;
  workload::Dataset data = workload::GenerateGovTrack(
      db.dictionary(), workload::GovTrackOptions{.num_triples = num_triples,
                                                 .seed = 99});
  for (const TemporalTriple& tt : data.triples) {
    if (auto st = db.Add(db.dictionary()->Decode(tt.triple.s),
                         db.dictionary()->Decode(tt.triple.p),
                         db.dictionary()->Decode(tt.triple.o), tt.iv);
        !st.ok()) {
      std::printf("load error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = db.Finish(); !st.ok()) {
    std::printf("finish error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("GovTrack history: %zu records, %zu predicates\n\n",
              data.triples.size(), data.predicates.size());

  auto run = [&](const char* title, const std::string& query) {
    std::printf("-- %s --\n%s\n", title, query.c_str());
    auto r = db.Query(query);
    if (!r.ok()) {
      std::printf("error: %s\n\n", r.status().ToString().c_str());
      return;
    }
    std::printf("%zu rows", r->rows.size());
    for (size_t i = 0; i < r->rows.size() && i < 4; ++i) {
      std::string line = "\n  ";
      for (const auto& cell : r->rows[i]) line += cell.ToString() + "  ";
      std::printf("%s", line.c_str());
    }
    std::printf("\n\n");
  };

  run("Senators and their party as of 2010-01-04",
      "SELECT ?who ?party { ?who member_of_senate senate 2010-01-04 . "
      "?who party ?party 2010-01-04 }");

  run("Committee chairs who voted on category 3 while chairing "
      "(temporal join of state and event)",
      "SELECT ?who ?bill ?t { ?who committee_chair ?c ?t . "
      "?who voted_yes_on_category_3 ?bill ?t }");

  run("Members who served a state for over a decade",
      "SELECT ?who ?state ?t { ?who represents_state ?state ?t . "
      "FILTER(TOTAL_LENGTH(?t) > 10 YEARS) }");

  run("Party affiliation when each yes-vote on category 0 was cast "
      "(3-way join)",
      "SELECT ?who ?party ?bill ?t { ?who voted_yes_on_category_0 ?bill ?t "
      ". ?who party ?party ?t . ?who member_of_house house ?t }");

  // Peek at what the optimizer does with the 3-pattern query.
  auto parsed = sparqlt::Parse(
      "SELECT ?who ?party ?bill ?t { ?who voted_yes_on_category_0 ?bill ?t "
      ". ?who party ?party ?t . ?who member_of_house house ?t }");
  if (parsed.ok()) {
    auto cq = engine::Compile(*parsed, *db.dictionary());
    if (cq.ok()) {
      auto order = db.query_optimizer()->ChooseOrder(*cq);
      std::printf("optimizer join order (pattern indices): ");
      for (int i : order) std::printf("%d ", i);
      std::printf("\n  estimated cards: ");
      for (int i : order) {
        std::printf("%.0f ", db.query_optimizer()->EstimatePattern(
                                 cq->patterns[static_cast<size_t>(i)]));
      }
      std::printf("\n");
    }
  }
  return 0;
}
