// Shared pieces of the end-to-end benchmark: clocks, percentiles, the
// metric sink, the in-memory span tracer, result fingerprints, and the
// machine report. Everything here sits outside the library: timings are
// taken around calls into its public headers.
#ifndef RDFTX_PERFBENCH_HARNESS_H_
#define RDFTX_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/binding.h"

namespace perfbench {

/// Command-line settings of one benchmark process.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every dataset size; the smoke tests run at a tiny scale.
  double scale = 1.0;
  /// Fault injection for the benchmark's own negative test: drop one row
  /// from the first non-empty read answer before it is checked.
  bool drop_row = false;
  /// Directory for the live store and the span dump; created if missing.
  std::string work_dir = ".";
};

/// Monotonic wall clock and process CPU clock, in seconds.
double WallNow();
double CpuNow();

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Samples of `n` that lie beyond the q-percentile.
size_t SamplesBeyond(size_t n, double q);
double Mean(const std::vector<double>& v);

/// Set-up runs at least three times and, while it is cheap, until two
/// seconds have gone into it (at most nine times); the benchmark reports
/// the median. `setup_s` holds the set-up times so far.
bool MoreSetups(const std::vector<double>& setup_s);

/// Named metrics with units, printed as the result line's "metrics".
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Attempted / failed operation counts of a run.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// A check that is not an operation failed (e.g. the join replay or
  /// a sampler guarantee); forces "correct": false.
  bool invariant_broken = false;
};

/// In-memory spans: name, start, end, parent and query id. Written out
/// once at the end of the run; per-name totals and self times (span
/// minus the part its children cover) come from the same records.
class Tracer {
 public:
  /// Opens a span; returns its index. `parent` is -1 for a root.
  int Begin(const char* name, uint64_t qid, int parent = -1);
  void End(int span);
  /// Duration of a closed span, in seconds.
  double Duration(int span) const;

  /// Total duration and total self time per span name.
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint64_t qid;
    int parent;
    double start;
    double end;
  };
  std::vector<Span> spans_;
};

/// Order-independent fingerprint of a result: its columns plus the
/// multiset of canonical row fingerprints (Cell::AppendFingerprint), so
/// two results with the same rows in any order agree.
uint64_t ResultFingerprint(const rdftx::engine::ResultSet& rs);

/// Running 64-bit fingerprint of a workload's inputs.
class InputHash {
 public:
  void Add(const void* data, size_t size);
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x5045524642454E43ull;
};

/// Prints hardware_concurrency, a measured effective-core figure (fixed
/// spin work on one thread against the same work on every hardware
/// thread at once) and the build's leaf-cache budget.
void PrintMachine();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Prints `label: value` lines of per-class latency for a stream.
void PrintClassLatencies(const std::string& title,
                         const std::map<std::string, std::vector<double>>& ms);

}  // namespace perfbench

#endif  // RDFTX_PERFBENCH_HARNESS_H_
