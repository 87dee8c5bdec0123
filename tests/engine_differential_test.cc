// Differential test of the query engine at bench-like scale: seeded
// random SPARQLt queries over 50k-triple Wikipedia and GovTrack
// histories, each answered by the engine over the compressed-MVBT
// TemporalGraph and by the same engine over the flat-scan NaiveStore
// oracle. The two answers must be identical as sorted row fingerprints.
//
// The generated queries cover the shapes the executor treats
// differently: anchored and unanchored 2-3 pattern subject stars under
// FILTER windows, a join step sharing two key slots (the composite hash
// path), OPTIONAL groups (including a second group whose key the first
// left unbound), FILTER [NOT] EXISTS (also after an OPTIONAL), GROUP BY
// aggregates, projections that collapse duplicate rows, UNION, and
// built-ins over each fact's whole validity (TSTART, TEND, LENGTH,
// TOTAL_LENGTH, DCOUNT, DSUM, MIN/MAX and ORDER BY over time) under a
// FILTER window.
//
// A live leg replays each history as time-ordered deltas through a
// LiveStore and checks the same query families on its Epochs against a
// NaiveStore holding the replayed prefix: an overlay-only epoch, the
// epoch a checkpoint installs while writes landed during its fold, and
// an epoch with a large backlog over the checkpoint base.
//
// Built as its own binary with the ctest label `differential`
// (`ctest -L differential`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/naive_store.h"
#include "core/live_store.h"
#include "engine/executor.h"
#include "rdf/temporal_graph.h"
#include "util/rng.h"
#include "workload/govtrack_gen.h"
#include "workload/wikipedia_gen.h"

namespace rdftx {
namespace {

constexpr size_t kTriples = 50000;

// Order-independent canonical form of a result set: the column header
// plus the sorted per-row fingerprints (raw term text and raw run
// endpoints).
std::string SortedFingerprint(const engine::ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) out += c + ';';
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string fp;
    for (const engine::Cell& cell : row) cell.AppendFingerprint(&fp);
    rows.push_back(std::move(fp));
  }
  std::sort(rows.begin(), rows.end());
  out += '\n';
  for (const std::string& r : rows) out += r + '\n';
  return out;
}

enum class Gen { kWikipedia, kGovTrack };

/// Per-subject fact lists holding at least two predicates, ordered by
/// subject: the stars the query sampler draws from.
using Stars = std::vector<std::vector<const TemporalTriple*>>;

Stars StarsOf(const std::vector<TemporalTriple>& triples) {
  std::unordered_map<TermId, std::vector<const TemporalTriple*>> by_s;
  for (const TemporalTriple& tt : triples) by_s[tt.triple.s].push_back(&tt);
  Stars stars;
  for (auto& [s, facts] : by_s) {
    std::set<TermId> preds;
    for (const TemporalTriple* tt : facts) preds.insert(tt->triple.p);
    if (preds.size() >= 2) stars.push_back(std::move(facts));
  }
  // Hash-map iteration order is not part of the seed.
  std::sort(stars.begin(), stars.end(), [](const auto& a, const auto& b) {
    return a[0]->triple.s < b[0]->triple.s;
  });
  return stars;
}

/// One generated history loaded into both stores, plus the stars of
/// its facts.
struct Fixture {
  explicit Fixture(Gen gen) {
    if (gen == Gen::kWikipedia) {
      data = workload::GenerateWikipedia(
          &dict, workload::WikipediaOptions{.num_triples = kTriples,
                                            .seed = 2718});
    } else {
      data = workload::GenerateGovTrack(
          &dict, workload::GovTrackOptions{.num_triples = kTriples,
                                           .seed = 3141});
    }
    EXPECT_TRUE(graph.Load(data.triples).ok());
    EXPECT_TRUE(naive.Load(data.triples).ok());
    stars = StarsOf(data.triples);
  }

  Dictionary dict;
  workload::Dataset data;
  TemporalGraph graph;
  NaiveStore naive;
  Stars stars;
};

/// Draws query text from a fixture's terms and `stars` (the fixture's
/// own by default). Every query is built around facts of one sampled
/// subject, so most answers are non-empty.
class QuerySampler {
 public:
  QuerySampler(const Fixture& f, uint64_t seed)
      : QuerySampler(f, f.stars, seed) {}
  QuerySampler(const Fixture& f, const Stars& stars, uint64_t seed)
      : f_(f), stars_(stars), rng_(seed) {}

  /// Samples `k` facts of one subject with pairwise distinct
  /// predicates; the first fact anchors the FILTER window.
  std::vector<const TemporalTriple*> Star(size_t k) {
    for (;;) {
      const auto& facts = stars_[rng_.Uniform(stars_.size())];
      std::vector<const TemporalTriple*> out = {
          facts[rng_.Uniform(facts.size())]};
      for (size_t tries = 0; out.size() < k && tries < 4 * facts.size();
           ++tries) {
        const TemporalTriple* c = facts[rng_.Uniform(facts.size())];
        bool fresh = true;
        for (const TemporalTriple* o : out) fresh &= o->triple.p != c->triple.p;
        if (fresh) out.push_back(c);
      }
      if (out.size() == k) return out;
    }
  }

  std::string T(TermId id) const { return f_.dict.Decode(id); }

  /// A FILTER window on `var` around a point of `tt`'s validity.
  std::string Window(const TemporalTriple& tt, const std::string& var) {
    const Chronon probe =
        tt.iv.start + static_cast<Chronon>(rng_.Uniform(
                          std::max<uint64_t>(1, tt.iv.Length(f_.data.horizon))));
    switch (rng_.Uniform(3)) {
      case 0:
        return "FILTER(YEAR(" + var + ") = " +
               std::to_string(ChrononYear(probe)) + ")";
      case 1:
        return "FILTER(" + var + " >= " + FormatChronon(probe) + " && " +
               var + " <= " +
               FormatChronon(probe + 30 +
                             static_cast<Chronon>(rng_.Uniform(400))) +
               ")";
      default:
        return "FILTER(" + var + " <= " + FormatChronon(probe) + ")";
    }
  }

  /// Anchored or unanchored 2-3 pattern subject star under a window.
  std::string StarJoin() {
    const size_t k = 2 + rng_.Uniform(2);
    const auto facts = Star(k);
    const bool anchored = rng_.Bernoulli(0.5);
    std::string body, select = "?s ?t";
    for (size_t i = 0; i < k; ++i) {
      const std::string o = "?o" + std::to_string(i);
      // The last pattern carries a constant object when anchored.
      const bool constant = anchored && i + 1 == k;
      body += "?s " + T(facts[i]->triple.p) + " " +
              (constant ? T(facts[i]->triple.o) : o) + " ?t . ";
      if (!constant) select += " " + o;
    }
    return "SELECT " + select + " { " + body + Window(*facts[0], "?t") +
           " }";
  }

  /// A join step sharing two key slots (?s and ?o): the composite-key
  /// hash join. With one predicate the pair is a self-join.
  std::string MultiSlot() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 =
        rng_.Bernoulli(0.5) ? p1 : T(facts[1]->triple.p);
    return "SELECT ?s ?o ?t1 ?t2 { ?s " + p1 + " ?o ?t1 . ?s " + p2 +
           " ?o ?t2 . " + Window(*facts[0], "?t1") + " }";
  }

  /// One OPTIONAL group, or two where the second group's first pattern
  /// binds ?o2, which the first group leaves unbound on some rows.
  std::string Optional() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 = T(facts[1]->triple.p);
    const std::string main =
        rng_.Bernoulli(0.5)
            ? "?s " + p1 + " " + T(facts[0]->triple.o) + " ?t . "
            : "?s " + p1 + " ?o1 ?t . " + Window(*facts[0], "?t") + " . ";
    switch (rng_.Uniform(3)) {
      case 0:
        return "SELECT ?s ?o2 { " + main + "OPTIONAL { ?s " + p2 +
               " ?o2 ?t } }";
      case 1:
        return "SELECT ?s ?o2 ?t2 { " + main + "OPTIONAL { ?s " + p2 +
               " ?o2 ?t2 . " + Window(*facts[1], "?t2") + " } }";
      default:
        return "SELECT ?s ?o2 ?s2 { " + main + "OPTIONAL { ?s " + p2 +
               " ?o2 ?t } . OPTIONAL { ?s2 " + p2 + " ?o2 " +
               FormatChronon(facts[1]->iv.start) + " } }";
    }
  }

  /// FILTER [NOT] EXISTS on the main star (correlated on ?s and ?t), or
  /// after an OPTIONAL (the group then correlates on a key the OPTIONAL
  /// may leave unbound).
  std::string Exists() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 = T(facts[1]->triple.p);
    const std::string neg = rng_.Bernoulli(0.5) ? "NOT " : "";
    const std::string main =
        "?s " + p1 + " ?o1 ?t . " + Window(*facts[0], "?t") + " . ";
    switch (rng_.Uniform(4)) {
      case 0:
        return "SELECT ?s ?o1 { " + main + "FILTER " + neg +
               "EXISTS { ?s " + p2 + " ?x ?t } }";
      case 3:
        // One version of p2: whether its validity meets ?t decides.
        return "SELECT ?s ?o1 { " + main + "FILTER " + neg +
               "EXISTS { ?s " + p2 + " " + T(facts[1]->triple.o) +
               " ?t } }";
      case 1:
        return "SELECT ?s ?o2 { " + main + "OPTIONAL { ?s " + p2 +
               " ?o2 ?t } . FILTER " + neg + "EXISTS { ?s " + p2 +
               " ?y ?t3 } }";
      default:
        return "SELECT ?s ?o2 { ?s " + p1 + " " + T(facts[0]->triple.o) +
               " ?t . OPTIONAL { ?s " + p2 + " ?o2 ?t } . FILTER " + neg +
               "EXISTS { ?z " + p2 + " ?o2 ?t4 } }";
    }
  }

  /// GROUP BY / ungrouped aggregates over a 2-pattern star.
  std::string Aggregate() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 = T(facts[1]->triple.p);
    const std::string body = "{ ?s " + p1 + " ?o1 ?t . ?s " + p2 + " " +
                             T(facts[1]->triple.o) + " ?t . " +
                             Window(*facts[0], "?t") + " }";
    switch (rng_.Uniform(3)) {
      case 0:
        return "SELECT ?o1 (COUNT(*) AS ?n) " + body + " GROUP BY ?o1";
      case 1:
        return "SELECT ?s (COUNT(?o1) AS ?n) (MIN(?o1) AS ?lo) "
               "(MAX(?t) AS ?hi) " + body + " GROUP BY ?s";
      default:
        return "SELECT (COUNT(*) AS ?n) (SUM(?o1) AS ?sum) "
               "(MAX(?o1) AS ?hi) " + body;
    }
  }

  /// Projections that drop join variables, so duplicates collapse;
  /// some with ORDER BY + LIMIT.
  std::string Projection() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 = T(facts[1]->triple.p);
    const std::string body = "{ ?s " + p1 + " ?o1 ?t . ?s " + p2 +
                             " ?o2 ?t . " + Window(*facts[0], "?t") + " }";
    switch (rng_.Uniform(3)) {
      case 0:
        return "SELECT ?o1 " + body;
      case 1:
        return "SELECT ?s " + body + " ORDER BY ?s LIMIT 25";
      default:
        return "SELECT ?o2 ?t " + body;
    }
  }

  /// UNION of a windowed selection and a star.
  std::string Union() {
    const auto facts = Star(2);
    const std::string p1 = T(facts[0]->triple.p);
    const std::string p2 = T(facts[1]->triple.p);
    return "SELECT ?s ?o { { ?s " + p1 + " ?o ?t . " +
           Window(*facts[0], "?t") + " } UNION { ?s " + p2 + " ?o ?t . ?s " +
           p1 + " " + T(facts[0]->triple.o) + " ?t } }";
  }

  /// A built-in over each fact's whole validity under a window: a
  /// TSTART, TEND, LENGTH or TOTAL_LENGTH filter, DCOUNT, DSUM, MIN/MAX
  /// over time, or ORDER BY ?t. The subject is a constant half the time.
  std::string FullValidity() {
    const TemporalTriple& tt = *Star(1)[0];
    const std::string s = rng_.Bernoulli(0.5) ? T(tt.triple.s) : "?s";
    const std::string body = "{ " + s + " " + T(tt.triple.p) + " ?o ?t . " +
                             Window(tt, "?t");
    const std::string date = FormatChronon(
        tt.iv.start + static_cast<Chronon>(rng_.Uniform(
                          std::max<uint64_t>(1, tt.iv.Length(f_.data.horizon)))));
    const std::string days =
        std::to_string(1 + rng_.Uniform(std::max<uint64_t>(
                               1, 2 * tt.iv.Length(f_.data.horizon))));
    switch (rng_.Uniform(8)) {
      case 0:
        return "SELECT ?o ?t " + body + " . FILTER(TSTART(?t) <= " + date +
               ") }";
      case 1:
        return "SELECT ?o ?t " + body + " . FILTER(TEND(?t) > " + date +
               ") }";
      case 2:
        return "SELECT ?o " + body + " . FILTER(LENGTH(?t) >= " + days +
               ") }";
      case 3:
        return "SELECT ?o ?t " + body + " . FILTER(TOTAL_LENGTH(?t) < " +
               days + ") }";
      case 4:
        return "SELECT ?o (DCOUNT(?t) AS ?d) " + body + " } GROUP BY ?o";
      case 5:
        return "SELECT (DSUM(?o, ?t) AS ?x) (COUNT(*) AS ?n) " + body + " }";
      case 6:
        return "SELECT (MIN(?t) AS ?lo) (MAX(?t) AS ?hi) " + body + " }";
      default:
        return "SELECT ?o ?t " + body + " } ORDER BY ?t LIMIT 20";
    }
  }

 private:
  const Fixture& f_;
  const Stars& stars_;
  Rng rng_;
};

struct Family {
  const char* name;
  std::string (QuerySampler::*make)();
  int count;
};

const Family kFamilies[] = {
    {"star", &QuerySampler::StarJoin, 60},
    {"multi-slot", &QuerySampler::MultiSlot, 15},
    {"optional", &QuerySampler::Optional, 40},
    {"exists", &QuerySampler::Exists, 40},
    {"aggregate", &QuerySampler::Aggregate, 25},
    {"projection", &QuerySampler::Projection, 25},
    {"union", &QuerySampler::Union, 15},
    {"full-validity", &QuerySampler::FullValidity, 40},
};

class EngineDifferentialTest : public ::testing::TestWithParam<Gen> {};

TEST_P(EngineDifferentialTest, GraphMatchesNaiveOracle) {
  const Fixture f(GetParam());
  ASSERT_FALSE(f.stars.empty());
  engine::QueryEngine graph(&f.graph, &f.dict);
  engine::QueryEngine oracle(&f.naive, &f.dict);
  QuerySampler sampler(f, /*seed=*/GetParam() == Gen::kWikipedia ? 11 : 12);

  int total = 0, nonempty = 0;
  for (const Family& fam : kFamilies) {
    int fam_nonempty = 0;
    for (int i = 0; i < fam.count; ++i) {
      const std::string q = (sampler.*fam.make)();
      auto want = oracle.Execute(q);
      ASSERT_TRUE(want.ok()) << q << "\n" << want.status().ToString();
      auto got = graph.Execute(q);
      ASSERT_TRUE(got.ok()) << q << "\n" << got.status().ToString();
      ASSERT_EQ(SortedFingerprint(*got), SortedFingerprint(*want))
          << fam.name << " divergence on\n" << q;
      ++total;
      if (!want->rows.empty()) ++fam_nonempty;
    }
    // Each family must mostly produce answers, or its comparisons say
    // little.
    EXPECT_GT(fam_nonempty, 0) << fam.name;
    std::printf("%s: %d/%d non-empty\n", fam.name, fam_nonempty, fam.count);
    nonempty += fam_nonempty;
  }
  EXPECT_GE(nonempty * 10, total * 6)
      << nonempty << " of " << total << " answers non-empty";
}

/// One delta of a history replayed through a LiveStore.
struct Event {
  Chronon at = 0;
  bool is_assert = true;
  Triple t;
};

/// The history as deltas in time order: per-triple validity coalesced,
/// retracts before asserts at equal times.
std::vector<Event> HistoryEvents(const workload::Dataset& d) {
  std::map<Triple, TemporalSet> by_triple;
  for (const TemporalTriple& tt : d.triples) {
    if (!tt.iv.empty()) by_triple[tt.triple].Add(tt.iv);
  }
  std::vector<Event> evs;
  for (const auto& [t, set] : by_triple) {
    for (const Interval& run : set.runs()) {
      evs.push_back({run.start, true, t});
      if (run.end != kChrononNow) evs.push_back({run.end, false, t});
    }
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Event& x, const Event& y) {
    return x.at != y.at ? x.at < y.at : x.is_assert < y.is_assert;
  });
  return evs;
}

/// The interval history the first `n` deltas denote (open runs end now).
std::vector<TemporalTriple> IntervalsFrom(const std::vector<Event>& evs,
                                          size_t n) {
  std::map<Triple, Chronon> open;
  std::vector<TemporalTriple> out;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = evs[i];
    if (e.is_assert) {
      open[e.t] = e.at;
    } else {
      out.push_back({e.t, Interval(open[e.t], e.at)});
      open.erase(e.t);
    }
  }
  for (const auto& [t, start] : open) {
    out.push_back({t, Interval(start, kChrononNow)});
  }
  return out;
}

TEST_P(EngineDifferentialTest, LiveEpochMatchesNaiveOracle) {
  const Fixture f(GetParam());
  const std::vector<Event> events = HistoryEvents(f.data);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (GetParam() == Gen::kWikipedia ? "rdftx_differential_live_wiki"
                                      : "rdftx_differential_live_gov"))
          .string();
  std::filesystem::remove_all(dir);
  LiveStoreOptions options;
  options.sync_writes = false;
  auto opened = LiveStore::OpenOrRecover(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LiveStore& store = **opened;
  // Intern the fixture's terms in id order so its ids are the store's.
  for (TermId id = 1; id <= f.dict.size(); ++id) {
    auto got = store.InternTerm(f.dict.Decode(id));
    ASSERT_TRUE(got.ok() && *got == id) << "term " << id;
  }
  size_t written = 0;
  auto write_to = [&](size_t n) {
    for (; written < n; ++written) {
      const Event& e = events[written];
      const Status st =
          e.is_assert ? store.AssertId(e.t, e.at) : store.RetractId(e.t, e.at);
      ASSERT_TRUE(st.ok()) << "delta " << written << ": " << st.ToString();
    }
  };
  auto share = [&](int percent) { return events.size() * percent / 100; };

  // Queries every family at the current epoch, a third of the sealed
  // leg's counts, drawn from the facts of the replayed prefix.
  uint64_t seed = GetParam() == Gen::kWikipedia ? 21 : 22;
  auto check_epoch = [&](const char* label) {
    const std::shared_ptr<const Epoch> epoch = store.Snapshot();
    const std::vector<TemporalTriple> prefix = IntervalsFrom(events, written);
    NaiveStore naive;
    ASSERT_TRUE(naive.Load(prefix).ok());
    const Stars stars = StarsOf(prefix);
    ASSERT_FALSE(stars.empty()) << label;
    engine::QueryEngine live(epoch.get(), &f.dict);
    engine::QueryEngine oracle(&naive, &f.dict);
    QuerySampler sampler(f, stars, seed++);
    int total = 0, nonempty = 0;
    for (const Family& fam : kFamilies) {
      for (int i = 0; i < (fam.count + 2) / 3; ++i) {
        const std::string q = (sampler.*fam.make)();
        auto want = oracle.Execute(q);
        ASSERT_TRUE(want.ok()) << q << "\n" << want.status().ToString();
        auto got = live.Execute(q);
        ASSERT_TRUE(got.ok()) << q << "\n" << got.status().ToString();
        ASSERT_EQ(SortedFingerprint(*got), SortedFingerprint(*want))
            << label << " epoch, " << fam.name << " divergence on\n" << q;
        ++total;
        if (!want->rows.empty()) ++nonempty;
      }
    }
    std::printf("%s epoch (%zu deltas, %llu in the overlay): %d/%d non-empty\n",
                label, written,
                static_cast<unsigned long long>(epoch->delta_count()), nonempty,
                total);
    EXPECT_GE(nonempty * 2, total) << label;
  };

  // Overlay only: nothing folded yet, the epoch was just published.
  write_to(share(25));
  check_epoch("fresh-overlay");
  if (HasFatalFailure()) return;

  // A checkpoint at 50% while the deltas up to 55% land during its fold:
  // the installed epoch keeps them as its backlog.
  write_to(share(50));
  store.SetCheckpointFaultHookForTest([&](CheckpointPhase at) {
    if (at == CheckpointPhase::kAfterRotate) write_to(share(55));
    return Status::OK();
  });
  ASSERT_TRUE(store.Checkpoint().ok());
  store.SetCheckpointFaultHookForTest(nullptr);
  ASSERT_EQ(written, share(55));
  ASSERT_EQ(store.delta_backlog(), share(55) - share(50));
  check_epoch("after-checkpoint");
  if (HasFatalFailure()) return;

  // A large backlog over the checkpoint base.
  write_to(share(85));
  check_epoch("mid-backlog");
  opened->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, EngineDifferentialTest,
                         ::testing::Values(Gen::kWikipedia, Gen::kGovTrack),
                         [](const ::testing::TestParamInfo<Gen>& info) {
                           return info.param == Gen::kWikipedia
                                      ? std::string("Wikipedia")
                                      : std::string("GovTrack");
                         });

}  // namespace
}  // namespace rdftx
