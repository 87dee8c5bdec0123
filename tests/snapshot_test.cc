// Snapshot persistence tests: round-trip property tests over graph
// shapes, eager checksum validation, corruption injection (both
// checksum-detected and checksum-repaired structural damage), and the
// RdfTx-level save/open path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/invariants.h"
#include "core/rdftx.h"
#include "dict/dictionary.h"
#include "rdf/temporal_graph.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"
#include "store_test_util.h"
#include "util/checksum.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace rdftx {
namespace {

using storage::ReadSnapshotFromBuffer;
using storage::SerializeSnapshot;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Recomputes every section checksum and the table hash, so a byte flip
/// in a payload is no longer detectable by hashing and must be caught by
/// the structural validation layer instead. Entries whose (possibly
/// flipped) extent runs outside the file are left alone — the bounds
/// check rejects them before any hashing.
void RepairChecksums(std::vector<uint8_t>* image) {
  if (image->size() < storage::kHeaderBytes) return;
  uint8_t* data = image->data();
  const size_t size = image->size();
  const uint32_t count = LoadU32(data + 12);
  if (count > (size - storage::kHeaderBytes) / storage::kTableEntryBytes) {
    return;
  }
  uint8_t* table = data + storage::kHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t* e = table + size_t{i} * storage::kTableEntryBytes;
    const uint64_t offset = LoadU64(e + 8);
    const uint64_t length = LoadU64(e + 16);
    if (offset > size || length > size - offset) continue;
    StoreU64(e + 24,
             util::XxHash64(data + offset, length, storage::kChecksumSeed));
  }
  StoreU64(data + 16,
           util::XxHash64(table, size_t{count} * storage::kTableEntryBytes,
                          storage::kChecksumSeed));
}

/// Builds a graph, loads `n` random triples, returns it.
TemporalGraph BuildGraph(const TemporalGraphOptions& opts, uint64_t seed,
                         size_t n) {
  TemporalGraph g(opts);
  Rng rng(seed);
  auto data = testutil::RandomTriples(&rng, n);
  EXPECT_TRUE(g.Load(data).ok());
  return g;
}

/// Full scan-level equivalence between two stores on `queries` random
/// patterns (all 16 SPARQLt pattern types), plus a full-history scan.
void ExpectScansAgree(const TemporalGraph& a, const TemporalGraph& b,
                      uint64_t seed, int queries) {
  EXPECT_EQ(testutil::CanonicalScan(a, PatternSpec{}),
            testutil::CanonicalScan(b, PatternSpec{}));
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    PatternSpec spec = testutil::RandomPattern(&rng);
    ASSERT_EQ(testutil::CanonicalScan(a, spec),
              testutil::CanonicalScan(b, spec))
        << "pattern s=" << spec.s << " p=" << spec.p << " o=" << spec.o
        << " time=" << spec.time.ToString();
  }
}

void ExpectIndexStatsEqual(const TemporalGraph& a, const TemporalGraph& b) {
  for (int i = 0; i < 4; ++i) {
    const auto order = static_cast<IndexOrder>(i);
    const mvbt::MvbtStats& sa = a.index(order).stats();
    const mvbt::MvbtStats& sb = b.index(order).stats();
    EXPECT_EQ(sa.version_splits, sb.version_splits);
    EXPECT_EQ(sa.key_splits, sb.key_splits);
    EXPECT_EQ(sa.merges, sb.merges);
    EXPECT_EQ(sa.inplace_splits, sb.inplace_splits);
    EXPECT_EQ(sa.leaf_nodes, sb.leaf_nodes);
    EXPECT_EQ(sa.inner_nodes, sb.inner_nodes);
    EXPECT_EQ(sa.roots, sb.roots);
    EXPECT_EQ(a.index(order).node_count(), b.index(order).node_count());
    EXPECT_EQ(a.index(order).live_size(), b.index(order).live_size());
    EXPECT_EQ(a.index(order).last_time(), b.index(order).last_time());
  }
}

// A shape names itself through an index into kShapeNames, not a string
// pointer: gtest lists a parameter it cannot print as a dump of its bytes,
// and a pointer there would make the listed test names vary between builds.
enum ShapeName : size_t {
  kEmpty,
  kSingleLeaf,
  kSplitHeavy,
  kCompressed,
  kUncompressed,
};
const char* const kShapeNames[] = {"empty", "single-leaf", "split-heavy",
                                   "compressed", "uncompressed"};

struct Shape {
  ShapeName name;
  TemporalGraphOptions opts;
  size_t triples;
};

// Empty graph, one never-split leaf, a split/merge-heavy forest (minimum
// block capacity + deletions), and the RDF-TX and standard-MVBT leaf
// formats.
const Shape kShapes[] = {
    {kEmpty, {}, 0},
    {kSingleLeaf, {}, 30},
    {kSplitHeavy, {.block_capacity = 8}, 900},
    {kCompressed, {.block_capacity = 16, .compress_leaves = true}, 500},
    {kUncompressed, {.block_capacity = 16, .compress_leaves = false}, 500},
};

class SnapshotRoundTripTest : public ::testing::TestWithParam<Shape> {};

TEST_P(SnapshotRoundTripTest, BufferRoundTripPreservesQueriesAndInvariants) {
  const Shape& shape = GetParam();
  TemporalGraph original = BuildGraph(shape.opts, /*seed=*/42, shape.triples);
  const std::vector<uint8_t> image = SerializeSnapshot(original, nullptr);

  TemporalGraph loaded;  // default options: snapshot's config must win
  ASSERT_TRUE(
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, nullptr)
          .ok());
  EXPECT_EQ(loaded.index(IndexOrder::kSpo).options().block_capacity,
            std::max<size_t>(8, shape.opts.block_capacity));
  EXPECT_EQ(loaded.index(IndexOrder::kSpo).options().compress_leaves,
            shape.opts.compress_leaves);

  ExpectIndexStatsEqual(original, loaded);
  ExpectScansAgree(original, loaded, /*seed=*/7, /*queries=*/25);

  // The deep validator must accept every
  // loaded index exactly as it accepts the original.
  for (int i = 0; i < 4; ++i) {
    Status st = analysis::ValidateMvbt(loaded.index(static_cast<IndexOrder>(i)));
    EXPECT_TRUE(st.ok()) << kShapeNames[shape.name] << " index " << i << ": "
                         << st.ToString();
  }
}

TEST_P(SnapshotRoundTripTest, SerializationIsDeterministic) {
  const Shape& shape = GetParam();
  TemporalGraph g1 = BuildGraph(shape.opts, /*seed=*/42, shape.triples);
  TemporalGraph g2 = BuildGraph(shape.opts, /*seed=*/42, shape.triples);
  EXPECT_EQ(SerializeSnapshot(g1, nullptr), SerializeSnapshot(g2, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SnapshotRoundTripTest,
                         ::testing::ValuesIn(kShapes),
                         [](const auto& info) {
                           std::string s = kShapeNames[info.param.name];
                           for (char& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST(SnapshotTest, CompressAllLeavesThenRoundTrip) {
  TemporalGraph original = BuildGraph(
      {.block_capacity = 16, .compress_leaves = true}, /*seed=*/3, 400);
  original.CompressAll();  // live leaves become compressed too
  const auto image = SerializeSnapshot(original, nullptr);
  TemporalGraph loaded;
  ASSERT_TRUE(
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, nullptr)
          .ok());
  ExpectScansAgree(original, loaded, /*seed=*/9, /*queries=*/20);
}

TEST(SnapshotTest, FileRoundTripViaMappedFile) {
  TemporalGraph original =
      BuildGraph({.block_capacity = 16}, /*seed=*/5, 300);
  const std::string path = TempPath("rdftx_snapshot_file_test.snap");
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  TemporalGraph loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  ExpectScansAgree(original, loaded, /*seed=*/11, /*queries=*/15);

  // The atomic writer must not leave its temporary behind.
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    EXPECT_EQ(e.path().string().find("rdftx_snapshot_file_test.snap.tmp"),
              std::string::npos)
        << e.path();
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, OnlineUpdatesAfterLoadKeepWorking) {
  TemporalGraph original =
      BuildGraph({.block_capacity = 8}, /*seed=*/21, 300);
  const auto image = SerializeSnapshot(original, nullptr);
  TemporalGraph loaded;
  ASSERT_TRUE(
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, nullptr)
          .ok());
  // The restored forest must accept further nondecreasing-time updates
  // exactly like the original: assert a few hundred fresh triples, then
  // retract half of them at a later time.
  Chronon t = loaded.last_time() + 1;
  std::vector<Triple> fresh;
  for (uint64_t i = 0; i < 200; ++i) {
    fresh.push_back(Triple{900 + i / 20, 950 + i % 7, 1000 + i});
  }
  for (size_t i = 0; i < fresh.size(); ++i) {
    const Chronon at = t + static_cast<Chronon>(i / 10);
    ASSERT_TRUE(original.Assert(fresh[i], at).ok());
    ASSERT_TRUE(loaded.Assert(fresh[i], at).ok());
  }
  t = loaded.last_time() + 5;
  for (size_t i = 0; i < fresh.size(); i += 2) {
    ASSERT_TRUE(original.Retract(fresh[i], t).ok());
    ASSERT_TRUE(loaded.Retract(fresh[i], t).ok());
  }
  ExpectScansAgree(original, loaded, /*seed=*/13, /*queries=*/20);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        analysis::ValidateMvbt(loaded.index(static_cast<IndexOrder>(i))).ok());
  }
}

TEST(SnapshotTest, LoadIntoUsedGraphFails) {
  TemporalGraph original = BuildGraph({}, /*seed=*/1, 50);
  const auto image = SerializeSnapshot(original, nullptr);
  TemporalGraph used = BuildGraph({}, /*seed=*/2, 10);
  Status st = ReadSnapshotFromBuffer(image.data(), image.size(), &used,
                                     nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, MissingDictionarySectionIsNotFound) {
  TemporalGraph original = BuildGraph({}, /*seed=*/1, 50);
  const auto image = SerializeSnapshot(original, /*dict=*/nullptr);
  TemporalGraph loaded;
  Dictionary dict;
  Status st =
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, &dict);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, LoadIntoNonEmptyDictionaryFails) {
  TemporalGraph original = BuildGraph({}, /*seed=*/1, 50);
  Dictionary saved;
  saved.Intern("a");
  const auto image = SerializeSnapshot(original, &saved);
  TemporalGraph loaded;
  Dictionary target;
  target.Intern("already-here");
  Status st =
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, &target);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, DictionaryRoundTripsTermsAndIds) {
  TemporalGraph g;
  Dictionary dict;
  const TermId a = dict.Intern("alpha");
  const TermId b = dict.Intern("beta");
  const TermId c = dict.Intern("");  // empty term is a legal value
  const auto image = SerializeSnapshot(g, &dict);
  TemporalGraph loaded;
  Dictionary out;
  ASSERT_TRUE(
      ReadSnapshotFromBuffer(image.data(), image.size(), &loaded, &out).ok());
  EXPECT_EQ(out.size(), dict.size());
  EXPECT_EQ(out.Decode(a), "alpha");
  EXPECT_EQ(out.Decode(b), "beta");
  EXPECT_EQ(out.Decode(c), "");
  EXPECT_EQ(out.Lookup("alpha"), a);
}

// --- corruption injection --------------------------------------------------

std::vector<uint8_t> SmallImage() {
  TemporalGraph g = BuildGraph(
      {.block_capacity = 8, .compress_leaves = true}, /*seed=*/77, 60);
  Dictionary dict;
  for (int i = 0; i < 40; ++i) dict.Intern("term_" + std::to_string(i));
  return SerializeSnapshot(g, &dict);
}

TEST(SnapshotCorruptionTest, EverySingleByteFlipIsDetected) {
  const std::vector<uint8_t> good = SmallImage();
  // A fresh copy per position; every byte of the file is covered by the
  // magic, an explicit field check, the table hash, or a section hash.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0xFF;
    TemporalGraph g;
    Dictionary d;
    Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, &d);
    ASSERT_FALSE(st.ok()) << "flip at byte " << pos << " went undetected";
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationIsDetected) {
  const std::vector<uint8_t> good = SmallImage();
  for (size_t len = 0; len < good.size(); ++len) {
    TemporalGraph g;
    Dictionary d;
    Status st = ReadSnapshotFromBuffer(good.data(), len, &g, &d);
    ASSERT_FALSE(st.ok()) << "truncation to " << len << " went undetected";
  }
}

TEST(SnapshotCorruptionTest,
     RepairedChecksumFlipsNeverCrashAndNeverLoadWrongData) {
  const std::vector<uint8_t> good = SmallImage();
  TemporalGraph original;
  Dictionary odict;
  ASSERT_TRUE(ReadSnapshotFromBuffer(good.data(), good.size(), &original,
                                     &odict)
                  .ok());
  // Flip each byte, then recompute all checksums so the flip reaches the
  // structural layer. A repaired file may legitimately describe a
  // *different* valid store (e.g. an altered entry interval in a dead
  // node), so byte-for-byte query equality with the original is not a
  // property here. What must hold for every survivor: no crash, the
  // loader's structural validation accepted it, scans produce
  // well-formed intervals, and the survivor itself round-trips.
  int survived = 0;
  for (size_t pos = storage::kHeaderBytes; pos < good.size(); ++pos) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0xFF;
    RepairChecksums(&bad);
    TemporalGraph g;
    Dictionary d;
    Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, &d);
    if (!st.ok()) continue;
    ++survived;
    size_t rows = 0;
    g.ScanPattern(PatternSpec{}, [&](const Triple&, const Interval& iv) {
      ++rows;
      EXPECT_FALSE(iv.empty())
          << "flip at byte " << pos << " loaded an empty interval";
    });
    EXPECT_GT(rows, 0u) << "flip at byte " << pos;
    // The survivor must be a coherent store in its own right: saving it
    // and loading that image back must succeed.
    const std::vector<uint8_t> resaved = SerializeSnapshot(g, &d);
    TemporalGraph g2;
    Dictionary d2;
    ASSERT_TRUE(
        ReadSnapshotFromBuffer(resaved.data(), resaved.size(), &g2, &d2).ok())
        << "flip at byte " << pos << " survived load but failed re-save";
    ExpectScansAgree(g, g2, /*seed=*/17, /*queries=*/5);
  }
  // Detecting arbitrary flips is the checksums' job (and
  // EverySingleByteFlipIsDetected proves they catch 100%). With the
  // checksums repaired, many flips land in term strings or entry
  // payloads and simply describe a different valid store — but the
  // structural layer alone must still reject a solid share (broken
  // varint framing, counts, ranges, wiring).
  const int caught = static_cast<int>(good.size() - storage::kHeaderBytes) -
                     survived;
  EXPECT_GT(caught, static_cast<int>(good.size() / 3));
}

TEST(SnapshotCorruptionTest, ZeroedSectionNamesTheSection) {
  const std::vector<uint8_t> good = SmallImage();
  const uint32_t count = LoadU32(good.data() + 12);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* e =
        good.data() + storage::kHeaderBytes + i * storage::kTableEntryBytes;
    const uint32_t id = LoadU32(e);
    const uint64_t offset = LoadU64(e + 8);
    const uint64_t length = LoadU64(e + 16);
    if (length == 0) continue;
    std::vector<uint8_t> bad = good;
    std::fill(bad.begin() + offset, bad.begin() + offset + length, 0);
    TemporalGraph g;
    Dictionary d;
    Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, &d);
    ASSERT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find(storage::SectionName(id)), std::string::npos)
        << "error does not name the failing section: " << st.message();
  }
}

TEST(SnapshotCorruptionTest, BadMagicAndFutureVersion) {
  std::vector<uint8_t> image = SmallImage();
  {
    std::vector<uint8_t> bad = image;
    bad[0] = 'X';
    TemporalGraph g;
    Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("magic"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = image;
    bad[8] = 0x63;  // version 99: a future format must fail structurally
    TemporalGraph g;
    Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kNotSupported);
  }
}

TEST(SnapshotCorruptionTest, OlderVersionIsNotSupported) {
  // Version 1 images carried per-leaf zone maps; parsing one with the
  // current node layout would misread every leaf after the first.
  std::vector<uint8_t> bad = SmallImage();
  ASSERT_EQ(LoadU32(bad.data() + 8), storage::kFormatVersion);
  bad[8] = 1;
  TemporalGraph g;
  Dictionary d;
  Status st = ReadSnapshotFromBuffer(bad.data(), bad.size(), &g, &d);
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
}

TEST(SnapshotCorruptionTest, GarbageAndEmptyBuffers) {
  TemporalGraph g;
  EXPECT_FALSE(ReadSnapshotFromBuffer(nullptr, 0, &g, nullptr).ok());
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> junk(1 + rng.Uniform(512));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    TemporalGraph fresh;
    Dictionary d;
    EXPECT_FALSE(
        ReadSnapshotFromBuffer(junk.data(), junk.size(), &fresh, &d).ok());
  }
}

TEST(SnapshotCorruptionTest, MissingFileIsAnError) {
  TemporalGraph g;
  EXPECT_FALSE(g.LoadSnapshot(TempPath("rdftx_definitely_absent.snap")).ok());
}

// --- RdfTx facade ----------------------------------------------------------

std::string Fingerprint(const engine::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string s;
    for (const auto& cell : row) cell.AppendFingerprint(&s);
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

TEST(RdfTxSnapshotTest, SaveOpenPreservesQueryResults) {
  RdfTx db;
  ASSERT_TRUE(db.Add("UC", "president", "Mark_Yudof", "2008-06-16",
                     "2013-09-30")
                  .ok());
  ASSERT_TRUE(db.Add("UC", "president", "Janet_Napolitano", "2013-09-30",
                     "now")
                  .ok());
  ASSERT_TRUE(db.Add("Mark_Yudof", "chancellor", "UH", "1986-01-01",
                     "1994-06-30")
                  .ok());
  ASSERT_TRUE(db.Add("UC", "campus", "UCLA", "1919-05-23", "now").ok());
  ASSERT_TRUE(db.Finish().ok());
  const std::string path = TempPath("rdftx_facade_snapshot_test.snap");
  ASSERT_TRUE(db.SaveSnapshot(path).ok());

  auto reopened = RdfTx::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->triple_count(), db.triple_count());

  const char* queries[] = {
      "SELECT ?t { UC president Janet_Napolitano ?t }",
      "SELECT ?who ?t { UC president ?who ?t }",
      "SELECT ?s ?p ?o ?t { ?s ?p ?o ?t }",
      "SELECT ?who { UC president ?who 2014-01-01 }",
      "SELECT ?who ?t { UC president ?who ?t . FILTER(LENGTH(?t) > 100) }",
  };
  for (const char* q : queries) {
    auto before = db.Query(q);
    auto after = (*reopened)->Query(q);
    ASSERT_TRUE(before.ok()) << q << ": " << before.status().ToString();
    ASSERT_TRUE(after.ok()) << q << ": " << after.status().ToString();
    EXPECT_EQ(Fingerprint(*before), Fingerprint(*after)) << q;
  }
  std::filesystem::remove(path);
}

TEST(RdfTxSnapshotTest, SaveBeforeFinishFails) {
  RdfTx db;
  ASSERT_TRUE(db.Add("a", "b", "c", "2001-01-01", "now").ok());
  EXPECT_EQ(db.SaveSnapshot(TempPath("never_written.snap")).code(),
            StatusCode::kInvalidArgument);
}

TEST(RdfTxSnapshotTest, TermIdOutsideDictionaryIsCorruption) {
  // Hand-assemble a snapshot whose index references term ids beyond the
  // dictionary: save a populated graph but pair it with a dictionary
  // that is too small.
  TemporalGraph g = BuildGraph({}, /*seed=*/19, 40);  // ids up to ~38
  Dictionary tiny;
  tiny.Intern("only-term");
  const std::string path = TempPath("rdftx_dangling_terms.snap");
  ASSERT_TRUE(storage::WriteSnapshot(g, &tiny, path).ok());
  auto opened = RdfTx::OpenSnapshot(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rdftx
