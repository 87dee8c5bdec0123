#include "core/rdftx.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "temporal/temporal_set.h"

namespace rdftx {

RdfTx::RdfTx(const RdfTxOptions& options)
    : options_(options), graph_(options.graph) {}

RdfTx::~RdfTx() = default;

Status RdfTx::Add(std::string_view subject, std::string_view predicate,
                  std::string_view object, std::string_view start,
                  std::string_view end) {
  auto s = ParseChronon(start);
  if (!s.ok()) return s.status();
  auto e = ParseChronon(end);
  if (!e.ok()) return e.status();
  if (*e < *s) {
    return Status::InvalidArgument("validity end precedes start");
  }
  return Add(subject, predicate, object, Interval(*s, *e));
}

Status RdfTx::Add(std::string_view subject, std::string_view predicate,
                  std::string_view object, Interval validity) {
  if (finished_) {
    return Status::InvalidArgument("Add() after Finish() is not supported; "
                                   "use graph().Assert for online updates");
  }
  if (validity.empty()) {
    return Status::InvalidArgument("empty validity interval");
  }
  Triple t{dict_.Intern(subject), dict_.Intern(predicate),
           dict_.Intern(object)};
  staged_.push_back(TemporalTriple{t, validity});
  ++staged_count_;
  return Status::OK();
}

Status RdfTx::Finish() {
  if (finished_) return Status::InvalidArgument("Finish() called twice");
  RDFTX_RETURN_IF_ERROR(graph_.Load(staged_));
  return BuildDerivedState();
}

Status RdfTx::BuildDerivedState() {
  if (options_.enable_optimizer) {
    catalog_.Build(staged_);
    // Raw-data size estimate for the histogram's 10% cap: five values
    // per temporal triple.
    const size_t raw_bytes = staged_.size() * sizeof(TemporalTriple);
    histogram_ = std::make_unique<optimizer::TemporalHistogram>(
        &catalog_, staged_, raw_bytes, options_.histogram);
    optimizer_ = std::make_unique<optimizer::QueryOptimizer>(
        &catalog_, histogram_.get());
  }
  staged_.clear();
  staged_.shrink_to_fit();
  engine_ = std::make_unique<engine::QueryEngine>(
      &graph_, &dict_, engine::EngineOptions{.now = options_.now});
  if (optimizer_ != nullptr) {
    engine_->set_join_order_provider(optimizer_->AsProvider());
  }
  finished_ = true;
  return Status::OK();
}

Result<engine::ResultSet> RdfTx::Query(std::string_view text) const {
  if (!finished_) {
    return Status::InvalidArgument("call Finish() before Query()");
  }
  return engine_->Execute(text);
}

Status RdfTx::SaveSnapshot(const std::string& path) const {
  if (!finished_) {
    return Status::InvalidArgument("call Finish() before SaveSnapshot()");
  }
  return graph_.SaveSnapshot(path, &dict_);
}

Result<std::unique_ptr<RdfTx>> RdfTx::OpenSnapshot(
    const std::string& path, const RdfTxOptions& options) {
  auto db = std::make_unique<RdfTx>(options);
  RDFTX_RETURN_IF_ERROR(db->graph_.LoadSnapshot(path, &db->dict_));

  // Rebuild the staged triple set with one full SPO scan. It feeds the
  // catalog/histogram build below, and doubles as the referential check
  // that every term id in the restored indices resolves in the restored
  // dictionary (ids are opaque to the index-level loader).
  std::unordered_map<Triple, TemporalSet, TripleHash> by_triple;
  const TermId max_id = db->dict_.size();
  bool ids_ok = true;
  db->graph_.ScanPattern(PatternSpec{}, [&](const Triple& t,
                                            const Interval& iv) {
    ids_ok = ids_ok && t.s != kInvalidTerm && t.s <= max_id &&
             t.p != kInvalidTerm && t.p <= max_id && t.o != kInvalidTerm &&
             t.o <= max_id;
    if (ids_ok) by_triple[t].Add(iv);
  });
  if (!ids_ok) {
    return Status::Corruption(
        "snapshot index references a term id outside the dictionary");
  }
  for (const auto& [triple, set] : by_triple) {
    for (const Interval& run : set.runs()) {
      db->staged_.push_back(TemporalTriple{triple, run});
    }
  }
  // Hash-map iteration order is not deterministic; the statistics build
  // should be, so downstream plans never depend on the allocator.
  std::sort(db->staged_.begin(), db->staged_.end(),
            [](const TemporalTriple& x, const TemporalTriple& y) {
              if (x.triple != y.triple) return x.triple < y.triple;
              if (x.iv.start != y.iv.start) return x.iv.start < y.iv.start;
              return x.iv.end < y.iv.end;
            });
  db->staged_count_ = db->staged_.size();
  RDFTX_RETURN_IF_ERROR(db->BuildDerivedState());
  return db;
}

size_t RdfTx::MemoryUsage() const {
  size_t bytes = graph_.MemoryUsage() + dict_.MemoryUsage();
  if (histogram_ != nullptr) bytes += histogram_->MemoryUsage();
  if (optimizer_ != nullptr) bytes += catalog_.MemoryUsage();
  return bytes;
}

}  // namespace rdftx
