// Shared helpers for the benchmark harness: scale-factor handling,
// dataset/store fixtures, timing, and paper-style series printing.
//
// Default sizes are scaled-down mirrors of the paper's sweeps (5-30M
// Wikipedia triples, 4-20M GovTrack records) so the whole harness runs
// on a laptop; RDFTX_BENCH_SCALE multiplies every size.
#ifndef RDFTX_BENCH_BENCH_COMMON_H_
#define RDFTX_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/namedgraph_store.h"
#include "baselines/rdbms_store.h"
#include "baselines/reification_store.h"
#include "dict/dictionary.h"
#include "engine/executor.h"
#include "optimizer/histogram.h"
#include "optimizer/optimizer.h"
#include "rdf/temporal_graph.h"
#include "workload/dataset.h"

namespace rdftx::bench {

/// Reads RDFTX_BENCH_SCALE (default 1.0).
double ScaleFactor();

/// Scaled dataset size.
size_t Scaled(size_t base);

/// The paper's Wikipedia sweep (5..30M), scaled to base sizes.
std::vector<size_t> WikipediaSweep();
/// The paper's GovTrack sweep (4..20M), scaled.
std::vector<size_t> GovTrackSweep();

/// A generated dataset plus its dictionary.
struct Fixture {
  std::unique_ptr<Dictionary> dict;
  workload::Dataset data;
};

Fixture MakeWikipedia(size_t triples, uint64_t seed = 42);
Fixture MakeGovTrack(size_t triples, uint64_t seed = 1337);

/// All systems compared in Fig 8/9.
enum class System {
  kRdfTx,          // compressed MVBT
  kStandardMvbt,   // MVBT without leaf compression
  kRdbms,
  kReification,
  kNamedGraph,
};

const char* SystemName(System system);

std::unique_ptr<TemporalStore> BuildStore(System system,
                                          const Fixture& fixture);

/// Statistics + optimizer bundle for a fixture (shared across engines so
/// all systems get the same join orders, like the paper's setup where
/// every system's optimizer is enabled).
struct OptimizerBundle {
  optimizer::CharSetCatalog catalog;
  std::unique_ptr<optimizer::TemporalHistogram> histogram;
  std::unique_ptr<optimizer::QueryOptimizer> optimizer;
};

std::unique_ptr<OptimizerBundle> BuildOptimizer(const Fixture& fixture);

/// Bytes of the dataset serialized as interval-annotated N-Triples text
/// — the "raw data" yardstick of Fig 8 (the paper compares index sizes
/// against the raw dataset, not against packed in-memory structs).
size_t RawTextBytes(const Fixture& fixture);

/// Wall-clock seconds of fn().
double TimeSeconds(const std::function<void()>& fn);

/// Order-insensitive form of a result: its sorted row fingerprints.
std::vector<std::string> CanonicalRows(const engine::ResultSet& rs);

/// Average warm-cache milliseconds to run all `queries` once through
/// `engine` (1 warm-up pass + `runs` measured passes, like the paper's
/// average of 5 warm runs).
double AvgQueryMillis(const engine::QueryEngine& engine,
                      const std::vector<std::string>& queries,
                      int runs = 3);

/// Prints a CSV header + rows for a figure series.
void PrintSeriesHeader(const std::string& figure,
                       const std::vector<std::string>& columns);
void PrintSeriesRow(const std::vector<std::string>& cells);

/// Machine-readable bench output: a flat JSON object written to
/// BENCH_<name>.json (in $RDFTX_BENCH_JSON_DIR, default the working
/// directory), so CI can archive one artifact per bench and track the
/// perf trajectory across PRs.
class JsonReport {
 public:
  /// `name` becomes the BENCH_<name>.json file stem.
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value);
  void Add(const std::string& key, uint64_t value);
  void Add(const std::string& key, const std::string& value);

  /// Writes the file; returns false (with a stderr note) on I/O failure.
  bool Write() const;

 private:
  std::string name_;
  // Key plus pre-rendered JSON value, in insertion order.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Formats a number with limited precision.
std::string Fmt(double v);

}  // namespace rdftx::bench

#endif  // RDFTX_BENCH_BENCH_COMMON_H_
