// RdfTx: the top-level facade of the library — a temporal RDF knowledge
// base with SPARQLt querying. Wires together the dictionary, the
// four-index compressed-MVBT store, the characteristic-set catalog, the
// CMVSBT temporal histogram, the cost-based optimizer, and the query
// engine (paper Fig. 1's Historical Query Compiler + Execution Engine).
//
// Typical use:
//
//   rdftx::RdfTx db;
//   db.Add("UC", "president", "Mark_Yudof", "2008-06-16", "2013-09-30");
//   db.Add("UC", "president", "Janet_Napolitano", "2013-09-30", "now");
//   db.Finish();  // build indices + statistics
//   auto result = db.Query(
//       "SELECT ?t { UC president Janet_Napolitano ?t }");
#ifndef RDFTX_CORE_RDFTX_H_
#define RDFTX_CORE_RDFTX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dict/dictionary.h"
#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "rdf/temporal_graph.h"

namespace rdftx {

/// Facade configuration.
struct RdfTxOptions {
  TemporalGraphOptions graph;
  optimizer::HistogramOptions histogram;
  /// "now" used by LENGTH over live facts; 0 = latest event in the data.
  Chronon now = 0;
};

/// An in-memory temporal RDF knowledge base with SPARQLt support.
class RdfTx {
 public:
  explicit RdfTx(const RdfTxOptions& options = {});
  ~RdfTx();

  /// Stages one interval-stamped fact. Dates accept "YYYY-MM-DD",
  /// "MM/DD/YYYY", or "now"; the interval covers [start, end) with an
  /// inclusive display convention matching the paper.
  Status Add(std::string_view subject, std::string_view predicate,
             std::string_view object, std::string_view start,
             std::string_view end);

  /// Stages one fact with chronon endpoints.
  Status Add(std::string_view subject, std::string_view predicate,
             std::string_view object, Interval validity);

  /// Builds the MVBT indices, the characteristic-set catalog, and the
  /// temporal histogram from the staged facts. Must be called once
  /// before Query().
  Status Finish();

  /// Parses, optimizes, and executes a SPARQLt query.
  Result<engine::ResultSet> Query(std::string_view text) const;

  /// Writes the finished knowledge base (indices + dictionary) to a
  /// snapshot file at `path`. Requires Finish().
  Status SaveSnapshot(const std::string& path) const;

  /// Opens a knowledge base from a snapshot file: restores the
  /// dictionary and the four MVBT indices as saved, then rebuilds the
  /// optimizer statistics (catalog + histogram) from one SPO index
  /// scan — far cheaper than re-ingesting, since ingest pays four
  /// index descents plus structure changes per triple. The result is
  /// finished and ready to Query().
  static Result<std::unique_ptr<RdfTx>> OpenSnapshot(
      const std::string& path, const RdfTxOptions& options = {});

  /// Dictionary access (e.g. to pre-intern terms or decode ids).
  Dictionary* dictionary() { return &dict_; }
  const TemporalGraph& graph() const { return graph_; }
  const engine::QueryEngine& engine() const { return *engine_; }
  const optimizer::QueryOptimizer* query_optimizer() const {
    return optimizer_.get();
  }

  size_t triple_count() const { return staged_count_; }

  /// Approximate bytes: indices + dictionary + histogram.
  size_t MemoryUsage() const;

 private:
  /// Builds catalog, histogram, optimizer, and engine from `staged_`
  /// over the already-populated graph, then clears the staging area.
  /// Shared tail of Finish() and OpenSnapshot().
  Status BuildDerivedState();

  RdfTxOptions options_;
  Dictionary dict_;
  TemporalGraph graph_;
  std::vector<TemporalTriple> staged_;
  size_t staged_count_ = 0;
  bool finished_ = false;

  optimizer::CharSetCatalog catalog_;
  std::unique_ptr<optimizer::TemporalHistogram> histogram_;
  std::unique_ptr<optimizer::QueryOptimizer> optimizer_;
  std::unique_ptr<engine::QueryEngine> engine_;
};

}  // namespace rdftx

#endif  // RDFTX_CORE_RDFTX_H_
