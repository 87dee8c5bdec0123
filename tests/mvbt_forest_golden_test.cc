// Forest golden test: the exact shape and bytes of the four MVBT
// indices built from seeded Wikipedia and GovTrack fixtures are pinned
// in tests/data/mvbt_forest_golden.txt. Work on the update path (how an
// Insert or Erase finds its leaf and slot) must leave every node — key
// range, lifespan, live counts, router entries, backlinks, the encoded
// leaf bytes and the decoded entries — and the memory those nodes own
// exactly as they were.
//
// Each fixture is hashed at three stages: after Load, after CompressAll,
// and after a round of retracts and asserts applied to the compressed
// live leaves (the live-ingest checkpoint path).
//
// File format, one record per line:
//   <fixture> <stage> <index> nodes=<n> memory=<bytes> hash=<hex>
// where memory is MemoryUsage() less node_count() * sizeof(Mvbt::Node):
// the bytes the nodes own, which do not move when the Node struct itself
// gains or loses a field.
// On a mismatch the test prints the current records in this format.
// Never regenerate the file to make a change pass: a differing forest is
// the defect this test exists to catch.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/temporal_graph.h"
#include "util/checksum.h"
#include "workload/govtrack_gen.h"
#include "workload/wikipedia_gen.h"

namespace rdftx {
namespace {

using mvbt::Entry;
using mvbt::Key3;
using mvbt::Mvbt;

class Hasher {
 public:
  void Add(uint64_t v) { words_.push_back(v); }
  void Add(const Key3& k) {
    Add(k.a);
    Add(k.b);
    Add(k.c);
  }
  void Add(const Entry& e) {
    Add(e.key);
    Add(e.start);
    Add(e.end);
  }
  uint64_t Digest() const {
    return util::XxHash64(words_.data(), words_.size() * sizeof(uint64_t));
  }

 private:
  std::vector<uint64_t> words_;
};

std::string ForestRecord(const std::string& prefix, const Mvbt& tree) {
  std::unordered_map<const Mvbt::Node*, uint64_t> id;
  tree.ForEachNode(
      [&](const Mvbt::Node& n) { id.emplace(&n, id.size()); });
  auto id_of = [&](const Mvbt::Node* n) {
    return n == nullptr ? UINT64_MAX : id.at(n);
  };
  Hasher h;
  tree.ForEachNode([&](const Mvbt::Node& n) {
    h.Add(n.is_leaf);
    h.Add(n.created);
    h.Add(n.dead);
    h.Add(n.range.lo);
    h.Add(n.range.hi);
    h.Add(id_of(n.parent));
    h.Add(n.live_count);
    h.Add(n.created_live);
    h.Add(n.root_at_creation);
    h.Add(n.strong_exempt);
    if (!n.is_leaf) {
      h.Add(n.entries.size());
      h.Add(n.entries.capacity());
      for (const Mvbt::IndexEntry& e : n.entries) {
        h.Add(e.min_key);
        h.Add(e.start);
        h.Add(e.end);
        h.Add(id_of(e.child));
      }
      return;
    }
    h.Add(n.block.compressed());
    h.Add(n.block.count());
    h.Add(n.block.MemoryUsage());
    if (n.block.compressed()) {
      const std::vector<uint8_t>& bytes = n.block.compressed_bytes();
      h.Add(bytes.size());
      for (uint8_t b : bytes) h.Add(b);
    }
    for (const Entry& e : n.block.Decode()) h.Add(e);
    h.Add(n.backlinks.size());
    for (const Mvbt::Node* b : n.backlinks) h.Add(id_of(b));
  });
  tree.ForEachRoot([&](Chronon start, Chronon end, const Mvbt::Node* root) {
    h.Add(start);
    h.Add(end);
    h.Add(id_of(root));
  });
  const mvbt::MvbtStats& s = tree.stats();
  for (uint64_t v : {s.version_splits, s.key_splits, s.merges,
                     s.inplace_splits, s.leaf_nodes, s.inner_nodes,
                     s.roots}) {
    h.Add(v);
  }
  h.Add(tree.live_size());
  h.Add(tree.last_time());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s nodes=%zu memory=%zu hash=%016" PRIx64,
                prefix.c_str(), tree.node_count(),
                tree.MemoryUsage() - tree.node_count() * sizeof(Mvbt::Node),
                h.Digest());
  return buf;
}

void AppendStage(const std::string& fixture, const std::string& stage,
                 const TemporalGraph& graph, std::vector<std::string>* out) {
  static constexpr const char* kOrders[] = {"spo", "sop", "pos", "ops"};
  for (size_t i = 0; i < 4; ++i) {
    const auto order = static_cast<IndexOrder>(i);
    out->push_back(ForestRecord(fixture + " " + stage + " " + kOrders[i],
                                graph.index(order)));
  }
}

// Retracts every third live triple one chronon after the load, then
// re-asserts every other retracted triple and asserts one fresh triple
// per retraction one chronon later. Runs on compressed live leaves, so
// it pins the compressed append, splice close and entry-0 re-encode.
void ChurnCompressed(TemporalGraph* graph) {
  const Chronon t = graph->last_time() + 1;
  std::vector<Triple> live;
  graph->index(IndexOrder::kSpo)
      .QuerySnapshot(mvbt::KeyRange{}, graph->last_time(),
                     [&](const Key3& k) {
                       live.push_back(
                           TemporalGraph::DecodeKey(IndexOrder::kSpo, k));
                     });
  std::vector<Triple> retracted;
  for (size_t i = 0; i < live.size(); i += 3) {
    ASSERT_TRUE(graph->Retract(live[i], t).ok());
    retracted.push_back(live[i]);
  }
  for (size_t i = 0; i < retracted.size(); ++i) {
    const Triple& r = retracted[i];
    if (i % 2 == 0) {
      ASSERT_TRUE(graph->Assert(r, t + 1).ok());
    }
    ASSERT_TRUE(
        graph->Assert(Triple{r.s, r.p, r.o + (uint64_t{1} << 40)}, t + 1)
            .ok());
  }
}

void AppendFixture(const std::string& fixture, const workload::Dataset& data,
                   std::vector<std::string>* out) {
  TemporalGraph graph;
  ASSERT_TRUE(graph.Load(data.triples).ok());
  AppendStage(fixture, "load", graph, out);
  graph.CompressAll();
  AppendStage(fixture, "compressed", graph, out);
  ChurnCompressed(&graph);
  AppendStage(fixture, "updated", graph, out);
}

std::vector<std::string> CurrentRecords() {
  std::vector<std::string> records;
  {
    Dictionary dict;
    workload::Dataset data = workload::GenerateWikipedia(
        &dict, workload::WikipediaOptions{.num_triples = 20000, .seed = 7});
    AppendFixture("wiki", data, &records);
  }
  {
    Dictionary dict;
    workload::Dataset data = workload::GenerateGovTrack(
        &dict, workload::GovTrackOptions{.num_triples = 20000, .seed = 8});
    AppendFixture("gov", data, &records);
  }
  return records;
}

TEST(MvbtForestGoldenTest, ForestMatchesGoldenFile) {
  std::ifstream in(std::string(RDFTX_TEST_DATA_DIR) +
                   "/mvbt_forest_golden.txt");
  ASSERT_TRUE(in.good()) << "missing tests/data/mvbt_forest_golden.txt";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden.push_back(line);
  }
  const std::vector<std::string> current = CurrentRecords();
  std::string dump;
  for (const std::string& r : current) dump += r + "\n";
  EXPECT_TRUE(current == golden) << "current records:\n" << dump;
}

}  // namespace
}  // namespace rdftx
