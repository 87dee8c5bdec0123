// The RDF-TX store (paper §4.1.2): four MVBT indices — SPO, SOP, POS,
// OPS — over dictionary-encoded temporal triples. Together they cover
// all 16 SPARQLt graph pattern types with a prefix range scan on one
// index. Interval loads decompose into insert-at-start / delete-at-end
// events applied in time order.
#ifndef RDFTX_RDF_TEMPORAL_GRAPH_H_
#define RDFTX_RDF_TEMPORAL_GRAPH_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mvbt/mvbt.h"
#include "rdf/store_interface.h"
#include "rdf/triple.h"
#include "temporal/temporal_set.h"

namespace rdftx {

class Dictionary;

/// Which permutation of (s, p, o) an index stores.
enum class IndexOrder { kSpo = 0, kSop = 1, kPos = 2, kOps = 3 };

/// The index layout: the triple component (0 = s, 1 = p, 2 = o) at each
/// key position (a, b, c) of an index. Every key permutation derives
/// from this table.
inline constexpr std::array<std::array<int, 3>, 4> kIndexLayout = {{
    {0, 1, 2},  // kSpo
    {0, 2, 1},  // kSop
    {1, 2, 0},  // kPos
    {2, 1, 0},  // kOps
}};

/// Configuration of a TemporalGraph.
struct TemporalGraphOptions {
  /// MVBT block capacity. Larger blocks amortize per-node overhead and
  /// give the delta encoder longer runs to share bases across.
  size_t block_capacity = 192;
  /// Delta-compress leaves (the full RDF-TX configuration). Off gives
  /// the "standard MVBT" baseline of §7.2.
  bool compress_leaves = true;
  /// Decoded-leaf cache budget per MVBT index (the store holds four), in
  /// bytes; 0 disables. Hot dead compressed leaves are then decoded once
  /// and served from the cache.
  size_t leaf_cache_bytes = 8u << 20;
};

/// The RDF-TX temporal RDF graph store.
class TemporalGraph : public TemporalStore {
 public:
  explicit TemporalGraph(const TemporalGraphOptions& options = {});

  /// Maps a triple into the key of the given index order.
  static mvbt::Key3 EncodeKey(IndexOrder order, const Triple& t);
  /// Inverse of EncodeKey.
  static Triple DecodeKey(IndexOrder order, const mvbt::Key3& k);

  /// Picks the covering index and prefix key range for a pattern
  /// (paper: "the query engine parses the SPARQLt prefix patterns to
  /// identify the corresponding MVBT index").
  static IndexOrder ChooseIndex(const PatternSpec& spec);
  static mvbt::KeyRange PatternRange(IndexOrder order,
                                     const PatternSpec& spec);

  // TemporalStore:
  Status Load(const std::vector<TemporalTriple>& triples) override;
  using TemporalStore::ScanPattern;
  void ScanPattern(const PatternSpec& spec, const ScanCallback& visit,
                   ScanStats* stats) const override;
  size_t MemoryUsage() const override;
  std::string name() const override { return "RDF-TX"; }
  Chronon last_time() const override { return indices_[0]->last_time(); }

  /// Online updates (transaction time must be nondecreasing).
  Status Assert(const Triple& t, Chronon at);
  Status Retract(const Triple& t, Chronon at);

  /// Full temporal element of one triple (all validity runs, coalesced).
  TemporalSet Validity(const Triple& t) const;

  /// Compresses all (remaining) uncompressed leaves across the four
  /// indices; returns the number of leaves compressed (Fig 3(b)).
  size_t CompressAll(mvbt::CompressionStats* stats = nullptr);

  /// Number of live triples.
  size_t live_size() const { return indices_[0]->live_size(); }

  /// Direct access for the vectorized scan, snapshots, the
  /// synchronized-join bench and white-box tests.
  const mvbt::Mvbt& index(IndexOrder order) const {
    return *indices_[static_cast<size_t>(order)];
  }

  // --- snapshot persistence (storage/snapshot.cc) ---

  /// Writes this graph — and `dict`, when non-null — to a snapshot file
  /// at `path` (atomic: tmp file + rename).
  Status SaveSnapshot(const std::string& path,
                      const Dictionary* dict = nullptr) const;

  /// Restores this graph (and `dict`, when non-null) from a snapshot
  /// file. The graph must be freshly constructed and never updated; its
  /// leaf-cache settings are kept, while block capacity and the
  /// compression flag come from the snapshot. Corruption of any kind
  /// surfaces as a Status error naming the failing section.
  Status LoadSnapshot(const std::string& path, Dictionary* dict = nullptr);

  /// Restore hook for the snapshot loader: swaps in four fully rebuilt
  /// and validated indices. Fails unless this graph is still empty and
  /// the four indices agree on their clock and live size.
  Status InstallRestoredIndices(
      std::array<std::unique_ptr<mvbt::Mvbt>, 4> indices);

 private:
  TemporalGraphOptions options_;
  std::array<std::unique_ptr<mvbt::Mvbt>, 4> indices_;
};

}  // namespace rdftx

#endif  // RDFTX_RDF_TEMPORAL_GRAPH_H_
