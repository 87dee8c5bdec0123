// wiki-mix and gov-star: closed-loop query streams (one client, each
// call waits for its reply) over a sealed four-index store with the
// cost-based optimizer installed the way RdfTx wires it.
//
// wiki-mix (Wikipedia history, ~245k triples) mixes selections, 2-pattern
// subject-star joins, and aggregate and OPTIONAL variants of sampled
// joins. Its leaf working set is larger than the four 8 MB decoded-leaf
// caches (about two thirds of leaf lookups hit), so leaf decode, the
// cache, scans, merge joins and the row tail carry the cost, while the
// optimizer sees at most two patterns. Selections are most of the stream,
// so the median query is a selection.
//
// gov-star (GovTrack history, ~40k triples) runs 3-7 pattern subject
// stars whose data fits the cache, so join-order optimization dominates
// and scans are most of execution. It is not one of BENCHMARK.json's
// workloads (its spread across runs on a shared host is too wide for the
// bounds) but runs the same way, for work on the optimizer.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/naive_store.h"
#include "engine/executor.h"
#include "optimizer/char_set.h"
#include "optimizer/histogram.h"
#include "optimizer/optimizer.h"
#include "query_trace.h"
#include "rdf/temporal_graph.h"
#include "util/date.h"
#include "util/rng.h"
#include "workload/govtrack_gen.h"
#include "workload/query_gen.h"
#include "workload/wikipedia_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rdftx::Chronon;
using rdftx::Dictionary;
using rdftx::Rng;
using rdftx::TemporalTriple;
using rdftx::TermId;

struct QueryItem {
  std::string text;
  std::string cls;
};

struct Fixture {
  std::unique_ptr<Dictionary> dict;
  rdftx::workload::Dataset data;
};

/// Quotes a term for SPARQLt text when it is not identifier-safe.
std::string Quote(const std::string& term) {
  for (char c : term) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':' || c == '/' || c == '#' || c == '.' || c == '-')) {
      return "\"" + term + "\"";
    }
  }
  return term.empty() ? "\"\"" : term;
}

/// Facts grouped per subject, subjects in id order (deterministic).
std::vector<std::vector<const TemporalTriple*>> BySubject(
    const rdftx::workload::Dataset& d) {
  std::unordered_map<TermId, std::vector<const TemporalTriple*>> map;
  for (const TemporalTriple& tt : d.triples) map[tt.triple.s].push_back(&tt);
  std::vector<TermId> subjects;
  subjects.reserve(map.size());
  for (const auto& [s, list] : map) subjects.push_back(s);
  std::sort(subjects.begin(), subjects.end());
  std::vector<std::vector<const TemporalTriple*>> out;
  out.reserve(subjects.size());
  for (TermId s : subjects) out.push_back(std::move(map[s]));
  return out;
}

/// Aggregate and OPTIONAL variants of sampled 2-pattern subject joins:
/// two facts of one subject with distinct predicates and overlapping
/// validity, as workload::MakeJoinQueries samples them.
void AddJoinVariants(const Fixture& f, size_t per_kind, Rng* rng,
                     std::vector<QueryItem>* out) {
  std::vector<std::vector<const TemporalTriple*>> fanout;
  for (auto& list : BySubject(f.data)) {
    if (list.size() >= 2) fanout.push_back(std::move(list));
  }
  const Dictionary& dict = *f.dict;
  size_t aggs = 0, opts = 0, tries = 0;
  while ((aggs < per_kind || opts < per_kind) && !fanout.empty() &&
         ++tries < 100 * per_kind) {
    const auto& list = fanout[rng->Uniform(fanout.size())];
    const TemporalTriple* a = list[rng->Uniform(list.size())];
    const TemporalTriple* b = nullptr;
    for (const TemporalTriple* cand : list) {
      if (cand->triple.p != a->triple.p && cand->iv.Overlaps(a->iv)) {
        b = cand;
        break;
      }
    }
    if (b == nullptr) continue;
    const std::string s = Quote(dict.Decode(a->triple.s));
    const std::string p1 = Quote(dict.Decode(a->triple.p));
    const std::string p2 = Quote(dict.Decode(b->triple.p));
    const std::string o2 = Quote(dict.Decode(b->triple.o));
    if (aggs < per_kind) {
      if (aggs % 2 == 0) {
        out->push_back({"SELECT ?o (COUNT(*) AS ?n) { ?s " + p1 +
                            " ?o ?t . ?s " + p2 + " " + o2 +
                            " ?t } GROUP BY ?o",
                        "aggregate"});
      } else {
        // DCOUNT needs each match's full validity, which costs one
        // history probe per row; a constant subject keeps rows few.
        out->push_back({"SELECT ?o1 (DCOUNT(?t) AS ?d) { " + s + " " + p1 +
                            " ?o1 ?t . " + s + " " + p2 +
                            " ?o2 ?t } GROUP BY ?o1",
                        "aggregate"});
      }
      ++aggs;
    } else {
      if (opts % 2 == 0) {
        out->push_back({"SELECT ?s ?o2 { ?s " + p2 + " " + o2 +
                            " ?t . OPTIONAL { ?s " + p1 + " ?o2 ?t } }",
                        "optional"});
      } else {
        out->push_back({"SELECT ?o1 ?o2 { " + s + " " + p1 +
                            " ?o1 ?t . OPTIONAL { " + s + " " + p2 +
                            " ?o2 ?t } }",
                        "optional"});
      }
      ++opts;
    }
  }
}

std::vector<QueryItem> WikiMixQueries(const Fixture& f, Rng* rng) {
  std::vector<QueryItem> out;
  for (std::string& q :
       rdftx::workload::MakeSelectionQueries(f.data, *f.dict, 600, rng)) {
    out.push_back({std::move(q), "selection"});
  }
  for (std::string& q :
       rdftx::workload::MakeJoinQueries(f.data, *f.dict, 200, rng)) {
    out.push_back({std::move(q), "join"});
  }
  AddJoinVariants(f, 40, rng, &out);
  return out;
}

/// One subject's facts valid at one common chronon, one per predicate.
struct Star {
  std::vector<const TemporalTriple*> facts;
};

/// Stars for gov-star. For every subject, a sweep over its facts' start
/// and end events finds the chronon at which the most distinct
/// predicates are valid at once; a star anchors its patterns on facts
/// valid at that chronon, so every k-pattern prefix has a non-empty
/// answer (the subject itself, at that chronon).
std::vector<QueryItem> GovStarQueries(const Fixture& f, size_t stars,
                                      Rng* rng, int* max_size) {
  std::vector<Star> candidates;
  int best_width = 0;
  for (const auto& list : BySubject(f.data)) {
    struct Ev {
      Chronon at;
      int delta;
      const TemporalTriple* tt;
    };
    std::vector<Ev> evs;
    for (const TemporalTriple* tt : list) {
      evs.push_back({tt->iv.start, +1, tt});
      evs.push_back({tt->iv.end, -1, tt});
    }
    // Ends before starts at equal time: intervals are half-open.
    std::sort(evs.begin(), evs.end(), [](const Ev& x, const Ev& y) {
      return x.at != y.at ? x.at < y.at : x.delta < y.delta;
    });
    std::map<TermId, int> live_per_pred;
    size_t best = 0;
    Chronon best_at = 0;
    for (const Ev& e : evs) {
      int& c = live_per_pred[e.tt->triple.p];
      c += e.delta;
      if (c == 0) live_per_pred.erase(e.tt->triple.p);
      if (e.delta > 0 && live_per_pred.size() > best) {
        best = live_per_pred.size();
        best_at = e.at;
      }
    }
    if (best < 3) continue;
    Star star;
    std::map<TermId, const TemporalTriple*> pick;
    for (const TemporalTriple* tt : list) {
      if (tt->iv.Contains(best_at) && !pick.contains(tt->triple.p)) {
        pick[tt->triple.p] = tt;
      }
    }
    for (const auto& [p, tt] : pick) star.facts.push_back(tt);
    best_width = std::max(best_width, static_cast<int>(star.facts.size()));
    candidates.push_back(std::move(star));
  }
  *max_size = std::min(7, best_width);
  std::vector<Star> wide;
  for (Star& s : candidates) {
    if (static_cast<int>(s.facts.size()) >= *max_size) wide.push_back(s);
  }
  std::printf("stars: subjects=%zu width=%d\n", wide.size(), *max_size);
  std::vector<QueryItem> out;
  if (wide.empty()) return out;
  const Dictionary& dict = *f.dict;
  for (size_t qi = 0; qi < stars; ++qi) {
    Star star = wide[rng->Uniform(wide.size())];
    for (size_t i = star.facts.size(); i > 1; --i) {
      std::swap(star.facts[i - 1], star.facts[rng->Uniform(i)]);
    }
    // The first pattern is anchored by its object; later ones with
    // probability 0.4, fixed per star so each size extends the previous.
    std::vector<bool> anchored(static_cast<size_t>(*max_size), false);
    anchored[0] = true;
    for (size_t i = 1; i < anchored.size(); ++i) {
      anchored[i] = rng->Bernoulli(0.4);
    }
    for (int size = 3; size <= *max_size; ++size) {
      std::string q = "SELECT ?s ?t { ";
      for (int i = 0; i < size; ++i) {
        const TemporalTriple* tt = star.facts[static_cast<size_t>(i)];
        q += "?s " + Quote(dict.Decode(tt->triple.p)) + " " +
             (anchored[static_cast<size_t>(i)]
                  ? Quote(dict.Decode(tt->triple.o))
                  : "?o" + std::to_string(i)) +
             " ?t . ";
      }
      q += "}";
      out.push_back({std::move(q), "complex-" + std::to_string(size)});
    }
  }
  return out;
}

/// The sealed store plus the optimizer state RdfTx builds beside it.
struct ReadStore {
  std::unique_ptr<rdftx::TemporalGraph> graph;
  rdftx::optimizer::CharSetCatalog catalog;
  std::unique_ptr<rdftx::optimizer::TemporalHistogram> histogram;
  std::unique_ptr<rdftx::optimizer::QueryOptimizer> optimizer;
};

struct SetupTimes {
  double load_s = 0, compress_s = 0, stats_s = 0, total_s = 0;
};

std::unique_ptr<ReadStore> BuildStore(const Fixture& f, SetupTimes* t) {
  auto rs = std::make_unique<ReadStore>();
  const double t0 = WallNow();
  rs->graph = std::make_unique<rdftx::TemporalGraph>();
  const rdftx::Status st = rs->graph->Load(f.data.triples);
  if (!st.ok()) {
    std::fprintf(stderr, "store load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  const double t1 = WallNow();
  rs->graph->CompressAll();
  const double t2 = WallNow();
  rs->catalog.Build(f.data.triples);
  rs->histogram = std::make_unique<rdftx::optimizer::TemporalHistogram>(
      &rs->catalog, f.data.triples,
      f.data.triples.size() * sizeof(TemporalTriple));
  rs->optimizer = std::make_unique<rdftx::optimizer::QueryOptimizer>(
      &rs->catalog, rs->histogram.get());
  const double t3 = WallNow();
  *t = SetupTimes{t1 - t0, t2 - t1, t3 - t2, t3 - t0};
  return rs;
}

uint64_t InputFingerprint(const Fixture& f,
                          const std::vector<QueryItem>& queries) {
  InputHash h;
  for (const TemporalTriple& tt : f.data.triples) {
    const uint64_t rec[5] = {tt.triple.s, tt.triple.p, tt.triple.o,
                             tt.iv.start, tt.iv.end};
    h.Add(rec, sizeof(rec));
  }
  for (TermId id = 1; id <= f.dict->size(); ++id) h.Add(f.dict->Decode(id));
  for (const QueryItem& q : queries) h.Add(q.text);
  return h.value();
}

}  // namespace

void RunReadWorkload(const Options& opt, Metrics* m, Outcome* out) {
  const bool wiki = opt.workload == "wiki-mix";
  const size_t target =
      static_cast<size_t>((wiki ? 210000.0 : 60000.0) * opt.scale);
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + (wiki ? 1 : 2));
  double phase = WallNow();
  auto end_phase = [&phase](const char* name) {
    const double now = WallNow();
    std::printf("phase: %s %.3f s\n", name, now - phase);
    phase = now;
  };

  Fixture f;
  f.dict = std::make_unique<Dictionary>();
  if (wiki) {
    f.data = rdftx::workload::GenerateWikipedia(
        f.dict.get(), {.num_triples = target, .seed = rng.Next()});
  } else {
    f.data = rdftx::workload::GenerateGovTrack(
        f.dict.get(), {.num_triples = target, .seed = rng.Next()});
  }
  int max_size = 0;
  std::vector<QueryItem> queries =
      wiki ? WikiMixQueries(f, &rng) : GovStarQueries(f, 96, &rng, &max_size);
  if (queries.empty()) {
    std::fprintf(stderr, "%s: the generator produced no queries\n",
                 opt.workload.c_str());
    out->invariant_broken = true;
    return;
  }
  // The stream visits every distinct query once per pass, in a seeded
  // order, and repeats passes until the run's time is up.
  std::vector<size_t> stream(queries.size());
  for (size_t i = 0; i < stream.size(); ++i) stream[i] = i;
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.Uniform(i)]);
  }
  end_phase("inputs");
  std::printf("inputs: workload=%s seed=%llu fingerprint=%016llx triples=%zu "
              "terms=%zu distinct_queries=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(InputFingerprint(f, queries)),
              f.data.triples.size(), f.dict->size(), queries.size());

  // Set-up: index load + CompressAll + catalog/histogram, repeated.
  std::vector<double> load, compress, stats, total;
  std::unique_ptr<ReadStore> store;
  while (MoreSetups(total)) {
    store.reset();
    SetupTimes t;
    store = BuildStore(f, &t);
    if (store == nullptr) {
      out->invariant_broken = true;
      return;
    }
    load.push_back(t.load_s);
    compress.push_back(t.compress_s);
    stats.push_back(t.stats_s);
    total.push_back(t.total_s);
  }
  end_phase("setup");
  rdftx::engine::QueryEngine engine(store->graph.get(), f.dict.get(),
                                    rdftx::engine::EngineOptions{.now = 0});
  engine.set_join_order_provider(store->optimizer->AsProvider());

  // Oracle pass (untimed): the expected answer of every distinct query.
  std::vector<uint64_t> expected(queries.size(), 0);
  std::map<std::string, uint64_t> answer_rows;
  {
    rdftx::NaiveStore naive;
    if (!naive.Load(f.data.triples).ok()) {
      out->invariant_broken = true;
      return;
    }
    rdftx::engine::QueryEngine oracle(&naive, f.dict.get());
    for (size_t k = 0; k < queries.size(); ++k) {
      const QueryItem& q = queries[k];
      auto want = oracle.Execute(q.text);
      if (!want.ok()) {
        out->invariant_broken = true;
        std::fprintf(stderr, "oracle failed (%s): %s\n",
                     want.status().ToString().c_str(), q.text.c_str());
        continue;
      }
      expected[k] = ResultFingerprint(*want);
      answer_rows[q.cls] += want->rows.size();
      if (!wiki && want->rows.empty()) {
        out->invariant_broken = true;
        std::fprintf(stderr, "gov-star query has an empty answer: %s\n",
                     q.text.c_str());
      }
    }
  }
  end_phase("oracle");
  for (const auto& [cls, rows] : answer_rows) {
    std::printf("answers: class=%s oracle_rows=%llu\n", cls.c_str(),
                static_cast<unsigned long long>(rows));
  }

  // One closed-loop call; its answer is checked against the oracle's.
  struct Sample {
    bool ok = false;
    double wall_s = 0;
    double cpu_s = 0;
    size_t rows = 0;
  };
  bool dropped = false;
  auto run_query = [&](size_t k) {
    Sample s;
    const QueryItem& q = queries[k];
    const double c0 = CpuNow();
    const double t0 = WallNow();
    auto r = engine.Execute(q.text);
    s.wall_s = WallNow() - t0;
    s.cpu_s = CpuNow() - c0;
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
      std::fprintf(stderr, "query failed (%s): %s\n",
                   r.status().ToString().c_str(), q.text.c_str());
      return s;
    }
    if (opt.drop_row && !dropped && !r->rows.empty()) {
      r->rows.pop_back();
      dropped = true;
    }
    if (ResultFingerprint(*r) != expected[k]) {
      ++out->failed;
      std::fprintf(stderr, "answer mismatch (%zu rows): %s\n", r->rows.size(),
                   q.text.c_str());
      return s;
    }
    s.ok = true;
    s.rows = r->rows.size();
    return s;
  };

  // Warm-up (untimed): one pass fills the decoded-leaf caches; the slow
  // gov-star pass, whose data fits the caches, is cut short.
  size_t pos = 0;
  const double warm_end = WallNow() + opt.seconds / 4;
  while (pos < stream.size() && WallNow() < warm_end) run_query(stream[pos++]);
  end_phase("warm-up");

  // Timed closed loop, tracing off.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> lat, cpu;
  std::map<std::string, std::vector<double>> class_ms;
  uint64_t rows = 0;
  const double deadline = WallNow() + untraced_s;
  while (lat.empty() || WallNow() < deadline) {
    const size_t k = stream[pos++ % stream.size()];
    const Sample s = run_query(k);
    if (!s.ok) continue;
    lat.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
    class_ms[queries[k].cls].push_back(s.wall_s * 1e3);
    rows += s.rows;
  }
  double lat_sum = 0;
  for (double x : lat) lat_sum += x;
  std::printf("timed: samples=%zu beyond_p95=%zu passes=%.2f "
              "wall_in_queries_s=%.3f result_rows=%llu\n",
              lat.size(), SamplesBeyond(lat.size(), 0.95),
              static_cast<double>(lat.size()) / stream.size(), lat_sum,
              static_cast<unsigned long long>(rows));
  PrintClassLatencies("timed", class_ms);

  m->Set("setup_s", Median(total), "s");
  m->Set("query_p50_ms", Median(lat) * 1e3, "ms");
  m->Set("query_p95_ms", Percentile(lat, 0.95) * 1e3, "ms");
  m->Set("query_cpu_ms", Median(cpu) * 1e3, "ms");
  m->Set("result_rows_per_s", lat_sum > 0 ? rows / lat_sum : 0, "rows/s");
  m->Set("store_bytes_per_triple",
         static_cast<double>(store->graph->MemoryUsage()) /
             static_cast<double>(f.data.triples.size()),
         "B");

  if (!opt.trace) return;

  // Traced run: the same stream through the split, replayed path.
  Tracer tracer;
  rdftx::engine::BlockPool pool;
  LayerTotals totals;
  std::map<std::string, LayerTotals> by_class;
  const double trace_deadline = WallNow() + opt.seconds / 2;
  uint64_t qid = 0;
  while (totals.queries == 0 || WallNow() < trace_deadline) {
    const size_t k = stream[(pos + qid) % stream.size()];
    const QueryItem& q = queries[k];
    QueryTrace qt;
    auto r = TracedQuery(engine, *store->graph, *f.dict, store->optimizer.get(),
                         q.text, qid++, &pool, &tracer, &qt);
    ++out->attempted;
    if (!r.ok() || ResultFingerprint(*r) != expected[k]) {
      ++out->failed;
      std::fprintf(stderr, "traced query failed or mismatched: %s\n",
                   q.text.c_str());
      continue;
    }
    if (!qt.replay_matches) {
      out->invariant_broken = true;
      std::fprintf(stderr,
                   "join replay mismatch (replay %llu rows, engine %llu): %s\n",
                   static_cast<unsigned long long>(qt.replay_join_rows),
                   static_cast<unsigned long long>(qt.stats.join_output_rows),
                   q.text.c_str());
    }
    totals.Add(qt);
    by_class[q.cls].Add(qt);
  }
  for (const auto& [cls, t] : by_class) t.Print(cls);
  totals.Print("all");
  PrintSpanSummary(tracer);
  std::printf("trace: spans=%zu replay_mismatches=%llu\n", tracer.size(),
              static_cast<unsigned long long>(totals.replay_mismatches));
  const std::string path =
      opt.work_dir + "/trace_" + opt.workload + "_" + std::to_string(opt.seed) +
      ".jsonl";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  totals.SetMetrics(Median(lat), m);
  m->Set("setup.load_s", Median(load), "s");
  m->Set("setup.compress_s", Median(compress), "s");
  m->Set("setup.stats_s", Median(stats), "s");
  m->Set("setup.preload_s", 0, "s");
  ZeroLiveLayerMetrics(m);
}

}  // namespace perfbench
