#include "rdf/temporal_graph.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "storage/snapshot.h"

#ifdef RDFTX_CHECK_INVARIANTS
#include "analysis/invariants.h"
#endif

namespace rdftx {
namespace {

using mvbt::Key3;
using mvbt::KeyRange;

struct LoadEvent {
  Chronon time;
  bool is_insert;
  Triple triple;
};

}  // namespace

TemporalGraph::TemporalGraph(const TemporalGraphOptions& options)
    : options_(options) {
  mvbt::MvbtOptions mo{.block_capacity = options_.block_capacity,
                       .compress_leaves = options_.compress_leaves,
                       .leaf_cache_bytes = options_.leaf_cache_bytes};
  for (auto& idx : indices_) idx = std::make_unique<mvbt::Mvbt>(mo);
}

mvbt::Key3 TemporalGraph::EncodeKey(IndexOrder order, const Triple& t) {
  switch (order) {
    case IndexOrder::kSpo:
      return Key3{t.s, t.p, t.o};
    case IndexOrder::kSop:
      return Key3{t.s, t.o, t.p};
    case IndexOrder::kPos:
      return Key3{t.p, t.o, t.s};
    case IndexOrder::kOps:
      return Key3{t.o, t.p, t.s};
  }
  return Key3{};
}

Triple TemporalGraph::DecodeKey(IndexOrder order, const mvbt::Key3& k) {
  switch (order) {
    case IndexOrder::kSpo:
      return Triple{k.a, k.b, k.c};
    case IndexOrder::kSop:
      return Triple{k.a, k.c, k.b};
    case IndexOrder::kPos:
      return Triple{k.c, k.a, k.b};
    case IndexOrder::kOps:
      return Triple{k.c, k.b, k.a};
  }
  return Triple{};
}

IndexOrder TemporalGraph::ChooseIndex(const PatternSpec& spec) {
  const bool s = spec.s != kInvalidTerm;
  const bool p = spec.p != kInvalidTerm;
  const bool o = spec.o != kInvalidTerm;
  if (s && o && !p) return IndexOrder::kSop;
  if (s) return IndexOrder::kSpo;  // covers S, SP, SPO (and full w/ s)
  if (p) return IndexOrder::kPos;  // covers P, PO
  if (o) return IndexOrder::kOps;  // covers O
  return IndexOrder::kSpo;         // full scan
}

mvbt::KeyRange TemporalGraph::PatternRange(IndexOrder order,
                                           const PatternSpec& spec) {
  // Bound components, in the component order of the chosen index.
  TermId c1 = 0, c2 = 0, c3 = 0;
  switch (order) {
    case IndexOrder::kSpo:
      c1 = spec.s;
      c2 = spec.p;
      c3 = spec.o;
      break;
    case IndexOrder::kSop:
      c1 = spec.s;
      c2 = spec.o;
      c3 = spec.p;
      break;
    case IndexOrder::kPos:
      c1 = spec.p;
      c2 = spec.o;
      c3 = spec.s;
      break;
    case IndexOrder::kOps:
      c1 = spec.o;
      c2 = spec.p;
      c3 = spec.s;
      break;
  }
  KeyRange r{mvbt::kKeyMin, mvbt::kKeyMax};
  if (c1 == kInvalidTerm) return r;
  r.lo.a = r.hi.a = c1;
  r.lo.b = 0;
  r.hi.b = UINT64_MAX;
  r.lo.c = 0;
  r.hi.c = UINT64_MAX;
  if (c2 == kInvalidTerm) return r;
  r.lo.b = r.hi.b = c2;
  if (c3 == kInvalidTerm) return r;
  r.lo.c = r.hi.c = c3;
  return r;
}

Status TemporalGraph::Load(const std::vector<TemporalTriple>& triples) {
  // Normalize: coalesce overlapping/adjacent intervals per triple so the
  // event stream never inserts a live duplicate.
  std::unordered_map<Triple, TemporalSet, TripleHash> by_triple;
  by_triple.reserve(triples.size());
  for (const TemporalTriple& tt : triples) {
    if (tt.iv.empty()) continue;
    by_triple[tt.triple].Add(tt.iv);
  }
  std::vector<LoadEvent> events;
  events.reserve(2 * by_triple.size());
  for (const auto& [triple, set] : by_triple) {
    for (const Interval& run : set.runs()) {
      events.push_back(LoadEvent{run.start, true, triple});
      if (run.end != kChrononNow) {
        events.push_back(LoadEvent{run.end, false, triple});
      }
    }
  }
  // Deletes before inserts at equal time, so a triple re-asserted at the
  // boundary of its previous run round-trips.
  std::stable_sort(events.begin(), events.end(),
                   [](const LoadEvent& x, const LoadEvent& y) {
                     if (x.time != y.time) return x.time < y.time;
                     return x.is_insert < y.is_insert;
                   });
  for (const LoadEvent& ev : events) {
    Status st = ev.is_insert ? Assert(ev.triple, ev.time)
                             : Retract(ev.triple, ev.time);
    RDFTX_RETURN_IF_ERROR(st);
  }
#ifdef RDFTX_CHECK_INVARIANTS
  // Invariant-checked builds verify the whole forest after each batch of
  // nondecreasing-time updates (see DESIGN.md "Invariant catalog").
  RDFTX_RETURN_IF_ERROR(analysis::ValidateTemporalGraph(*this));
#endif
  return Status::OK();
}

Status TemporalGraph::Assert(const Triple& t, Chronon at) {
  for (size_t i = 0; i < indices_.size(); ++i) {
    const auto order = static_cast<IndexOrder>(i);
    RDFTX_RETURN_IF_ERROR(indices_[i]->Insert(EncodeKey(order, t), at));
  }
  return Status::OK();
}

Status TemporalGraph::Retract(const Triple& t, Chronon at) {
  for (size_t i = 0; i < indices_.size(); ++i) {
    const auto order = static_cast<IndexOrder>(i);
    RDFTX_RETURN_IF_ERROR(indices_[i]->Erase(EncodeKey(order, t), at));
  }
  return Status::OK();
}

void TemporalGraph::ScanPattern(const PatternSpec& spec,
                                const ScanCallback& visit,
                                ScanStats* stats) const {
  const IndexOrder order = ChooseIndex(spec);
  const KeyRange range = PatternRange(order, spec);
  // QueryRangeT keeps the whole leaf scan devirtualized; the only
  // std::function hop left is the engine-boundary `visit` itself.
  index(order).QueryRangeT(
      range, spec.time,
      [&](const Key3& k, const Interval& iv) {
        visit(DecodeKey(order, k), iv);
      },
      stats);
}

TemporalSet TemporalGraph::Validity(const Triple& t) const {
  const Key3 k = EncodeKey(IndexOrder::kSpo, t);
  std::vector<Interval> runs;
  index(IndexOrder::kSpo)
      .QueryRange(KeyRange{k, k}, Interval::All(),
                  [&](const Key3&, const Interval& iv) {
                    runs.push_back(iv);
                  });
  return TemporalSet::FromIntervals(std::move(runs));
}

size_t TemporalGraph::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& idx : indices_) bytes += idx->MemoryUsage();
  return bytes;
}

size_t TemporalGraph::CompressAll(mvbt::CompressionStats* stats) {
  size_t n = 0;
  for (auto& idx : indices_) n += idx->CompressAllLeaves(stats);
  return n;
}

Status TemporalGraph::SaveSnapshot(const std::string& path,
                                   const Dictionary* dict) const {
  return storage::WriteSnapshot(*this, dict, path);
}

Status TemporalGraph::LoadSnapshot(const std::string& path,
                                   Dictionary* dict) {
  return storage::ReadSnapshot(path, this, dict);
}

Status TemporalGraph::InstallRestoredIndices(
    std::array<std::unique_ptr<mvbt::Mvbt>, 4> indices) {
  if (last_time() != 0 || live_size() != 0 ||
      indices_[0]->node_count() != 1) {
    return Status::InvalidArgument(
        "snapshot load requires a freshly constructed graph");
  }
  for (const auto& idx : indices) {
    if (idx == nullptr) {
      return Status::InvalidArgument("restored index is null");
    }
  }
  // The four permutation indices hold the same triples, so their clocks
  // and live sizes must agree; a snapshot stitched together from
  // different stores fails here even though each index is self-consistent.
  for (size_t i = 1; i < indices.size(); ++i) {
    if (indices[i]->last_time() != indices[0]->last_time() ||
        indices[i]->live_size() != indices[0]->live_size()) {
      return Status::Corruption("restored indices disagree on clock or size");
    }
  }
  indices_ = std::move(indices);
  // Keep the option block truthful about what is now installed.
  options_.block_capacity = indices_[0]->options().block_capacity;
  options_.compress_leaves = indices_[0]->options().compress_leaves;
#ifdef RDFTX_CHECK_INVARIANTS
  RDFTX_RETURN_IF_ERROR(analysis::ValidateTemporalGraph(*this));
#endif
  return Status::OK();
}

}  // namespace rdftx
