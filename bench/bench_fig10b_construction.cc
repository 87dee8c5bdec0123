// Fig 10(b): index construction time — building the four compressed
// MVBT indices from interval triples — as the dataset grows (paper:
// approximately linear in the number of triples; their super-linear
// bump at 25-30M was JVM garbage collection, which has no C++
// counterpart).
//
// Construction is split into the update replay (TemporalGraph::Load,
// which compresses each leaf as it dies) and CompressAll over the
// leaves still live at the end; build_seconds is their sum. Each built
// graph is checked outside the timed region: it must pass
// analysis::ValidateTemporalGraph and hold exactly the triples that are
// live in the coalesced input. The bench exits 1 otherwise.
#include <cstdio>
#include <unordered_map>

#include "analysis/invariants.h"
#include "bench_common.h"
#include "temporal/temporal_set.h"

namespace {

using namespace rdftx;

// Triples live now once each triple's intervals are coalesced, the way
// Load normalizes its input.
size_t CoalescedLiveTriples(const std::vector<TemporalTriple>& triples) {
  std::unordered_map<Triple, TemporalSet, TripleHash> by_triple;
  for (const TemporalTriple& tt : triples) {
    if (!tt.iv.empty()) by_triple[tt.triple].Add(tt.iv);
  }
  size_t live = 0;
  for (const auto& [triple, set] : by_triple) {
    if (!set.runs().empty() && set.runs().back().end == kChrononNow) ++live;
  }
  return live;
}

}  // namespace

int main() {
  using namespace rdftx::bench;

  PrintSeriesHeader("Fig 10(b): index construction time",
                    {"triples", "build_seconds", "load_seconds",
                     "compress_seconds", "triples_per_second"});
  int failures = 0;
  for (size_t n : WikipediaSweep()) {
    Fixture f = MakeWikipedia(n);
    TemporalGraph graph(TemporalGraphOptions{.compress_leaves = true});
    const double load_s = TimeSeconds([&] {
      if (!graph.Load(f.data.triples).ok()) std::abort();
    });
    const double compress_s = TimeSeconds([&] { graph.CompressAll(); });
    const double build_s = load_s + compress_s;
    PrintSeriesRow({std::to_string(f.data.triples.size()), Fmt(build_s),
                    Fmt(load_s), Fmt(compress_s),
                    Fmt(static_cast<double>(f.data.triples.size()) /
                        build_s)});

    const Status st = analysis::ValidateTemporalGraph(graph);
    if (!st.ok()) {
      std::fprintf(stderr, "INVALID GRAPH at %zu triples: %s\n", n,
                   st.ToString().c_str());
      ++failures;
    }
    const size_t want_live = CoalescedLiveTriples(f.data.triples);
    if (graph.live_size() != want_live) {
      std::fprintf(stderr,
                   "LIVE SIZE MISMATCH at %zu triples: graph %zu, input %zu\n",
                   n, graph.live_size(), want_live);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
