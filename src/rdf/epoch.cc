#include "rdf/epoch.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>

namespace rdftx {
namespace {

bool MatchesConstants(const PatternSpec& spec, const Triple& t) {
  return (spec.s == kInvalidTerm || spec.s == t.s) &&
         (spec.p == kInvalidTerm || spec.p == t.p) &&
         (spec.o == kInvalidTerm || spec.o == t.o);
}

bool ByTripleLsn(const Delta& x, const Delta& y) {
  return std::tie(x.triple, x.lsn) < std::tie(y.triple, y.lsn);
}

}  // namespace

DeltaChunk::DeltaChunk(std::vector<Delta> sorted,
                       std::shared_ptr<const DeltaChunk> prev)
    : deltas_(std::move(sorted)), prev_(std::move(prev)) {
  total_ = deltas_.size() + (prev_ ? prev_->total() : 0);
  last_lsn_ = prev_ ? prev_->last_lsn() : 0;
  for (const Delta& d : deltas_) last_lsn_ = std::max(last_lsn_, d.lsn);
}

std::shared_ptr<const DeltaChunk> DeltaChunk::Push(
    std::shared_ptr<const DeltaChunk> head, std::vector<Delta> batch) {
  if (batch.empty()) return head;
  std::sort(batch.begin(), batch.end(), ByTripleLsn);
  while (head != nullptr && head->deltas_.size() < 2 * batch.size()) {
    std::vector<Delta> merged;
    merged.reserve(head->deltas_.size() + batch.size());
    std::merge(head->deltas_.begin(), head->deltas_.end(), batch.begin(),
               batch.end(), std::back_inserter(merged), ByTripleLsn);
    batch = std::move(merged);
    head = head->prev_;
  }
  return std::shared_ptr<const DeltaChunk>(
      new DeltaChunk(std::move(batch), std::move(head)));
}

Chronon OverlayPatch::CloseOf(const Triple& t) const {
  const auto it = std::lower_bound(
      closes.begin(), closes.end(), t,
      [](const std::pair<Triple, Chronon>& c, const Triple& k) {
        return c.first < k;
      });
  return it != closes.end() && it->first == t ? it->second : kChrononNow;
}

Epoch::Epoch(std::shared_ptr<const TemporalGraph> base,
             std::shared_ptr<const DeltaChunk> head, Chronon last_time)
    : base_(std::move(base)), head_(std::move(head)), last_time_(last_time) {}

Status Epoch::Load([[maybe_unused]] const std::vector<TemporalTriple>& triples) {
  return Status::NotSupported(
      "Epoch is a read view; write through LiveStore");
}

OverlayPatch Epoch::Patch(const PatternSpec& spec) const {
  // The matching deltas of every chunk, merged into (triple, LSN) order
  // so each triple's events come out adjacent and oldest first.
  std::vector<const Delta*> hits;
  for (const DeltaChunk* c = head_.get(); c != nullptr; c = c->prev().get()) {
    auto lo = c->deltas().begin();
    auto hi = c->deltas().end();
    if (spec.s != kInvalidTerm) {  // the subject's deltas are one range
      lo = std::partition_point(
          lo, hi, [&](const Delta& d) { return d.triple.s < spec.s; });
      hi = std::partition_point(
          lo, hi, [&](const Delta& d) { return d.triple.s == spec.s; });
    }
    const size_t mid = hits.size();
    for (auto it = lo; it != hi; ++it) {
      if (MatchesConstants(spec, it->triple)) hits.push_back(&*it);
    }
    std::inplace_merge(hits.begin(), hits.begin() + static_cast<ptrdiff_t>(mid),
                       hits.end(), [](const Delta* x, const Delta* y) {
                         return ByTripleLsn(*x, *y);
                       });
  }

  OverlayPatch patch;
  for (size_t i = 0; i < hits.size();) {
    const Triple& t = hits[i]->triple;
    size_t end = i + 1;
    while (end < hits.size() && hits[end]->triple == t) ++end;
    size_t k = i;
    // A leading retract closes the run that is live in the base.
    if (!hits[k]->is_assert) patch.closes.emplace_back(t, hits[k++]->time);
    // The rest alternate assert/retract (writer-validated) in chronon
    // order: each pair is one run, a trailing assert is open until now.
    for (; k < end; k += 2) {
      const Chronon stop = k + 1 < end ? hits[k + 1]->time : kChrononNow;
      // rdftx-analyzer: allow(interval-soundness)
      const Interval run(hits[k]->time, stop);
      if (run.Overlaps(spec.time)) patch.runs.emplace_back(t, run);
    }
    i = end;
  }
  return patch;
}

void Epoch::ScanPattern(const PatternSpec& spec, const ScanCallback& visit,
                        ScanStats* stats) const {
  if (head_ == nullptr) {  // no overlay: the view IS the base graph
    base_->ScanPattern(spec, visit, stats);
    return;
  }
  const OverlayPatch patch = Patch(spec);
  // Closed base fragments are final (the writer never touches the past);
  // only fragments still open at the base clock can be closed.
  base_->ScanPattern(
      spec,
      [&](const Triple& t, const Interval& iv) {
        if (iv.end != kChrononNow) {
          visit(t, iv);
          return;
        }
        // Writer validation orders every retract after the assert that
        // opened the run, so the close cannot precede iv.start.
        // rdftx-analyzer: allow(interval-soundness)
        const Interval run(iv.start, patch.CloseOf(t));
        if (run.Overlaps(spec.time)) visit(t, run);
      },
      stats);
  for (const auto& [t, run] : patch.runs) visit(t, run);
}

TemporalSet Epoch::Validity(const Triple& t) const {
  std::vector<Interval> runs;
  ScanPattern(PatternSpec{t.s, t.p, t.o, Interval::All()},
              [&](const Triple&, const Interval& iv) { runs.push_back(iv); });
  return TemporalSet::FromIntervals(std::move(runs));
}

size_t Epoch::MemoryUsage() const {
  return base_->MemoryUsage() + delta_count() * sizeof(Delta);
}

}  // namespace rdftx
