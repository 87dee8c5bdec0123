#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "rdf/temporal_graph.h"
#include "util/checksum.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

size_t SamplesBeyond(size_t n, double q) {
  return n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool MoreSetups(const std::vector<double>& setup_s) {
  double spent = 0;
  for (double s : setup_s) spent += s;
  return setup_s.size() < 3 || (spent < 2.0 && setup_s.size() < 9);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

int Tracer::Begin(const char* name, uint64_t qid, int parent) {
  spans_.push_back(Span{name, qid, parent, WallNow(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end = WallNow();
}

double Tracer::Duration(int span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return s.end - s.start;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Children run inside their parent on one thread, one after another,
  // so the part of a span they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_time[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"qid\": %llu, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, static_cast<unsigned long long>(s.qid), s.parent,
                 (s.start - t0) * 1e6, (s.end - t0) * 1e6);
  }
  return std::fclose(f) == 0;
}

uint64_t ResultFingerprint(const rdftx::engine::ResultSet& rs) {
  std::string cols;
  for (const std::string& c : rs.columns) cols += c + '\x1F';
  uint64_t rows_sum = 0;
  std::string fp;
  for (const auto& row : rs.rows) {
    fp.clear();
    for (const rdftx::engine::Cell& cell : row) cell.AppendFingerprint(&fp);
    rows_sum += rdftx::util::XxHash64(fp.data(), fp.size(), 17);
  }
  const uint64_t parts[3] = {rdftx::util::XxHash64(cols.data(), cols.size()),
                             rows_sum, rs.rows.size()};
  return rdftx::util::XxHash64(parts, sizeof(parts));
}

void InputHash::Add(const void* data, size_t size) {
  h_ = rdftx::util::XxHash64(data, size, h_);
}

namespace {

/// Fixed CPU-bound work; returns a value so it cannot be elided.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

void PrintMachine() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kWork = 40'000'000;
  volatile uint64_t sink = 0;
  double t = WallNow();
  sink = sink + Spin(kWork);
  const double one = WallNow() - t;
  std::vector<uint64_t> results(n, 0);
  t = WallNow();
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([&results, i] { results[i] = Spin(kWork); });
    }
    for (std::thread& th : threads) th.join();
  }
  const double all = WallNow() - t;
  for (uint64_t r : results) sink = sink + r;
  std::printf("machine: hardware_concurrency=%u effective_cores=%.2f "
              "(spin: 1 thread %.1f ms, %u threads %.1f ms)\n",
              n, all > 0 ? n * one / all : 0.0, one * 1e3, n, all * 1e3);
  std::printf("machine: leaf_cache_budget=%zu bytes (4 indices x %zu)\n",
              4 * rdftx::TemporalGraphOptions{}.leaf_cache_bytes,
              rdftx::TemporalGraphOptions{}.leaf_cache_bytes);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintClassLatencies(
    const std::string& title,
    const std::map<std::string, std::vector<double>>& ms) {
  for (const auto& [cls, v] : ms) {
    std::printf("%s: class=%s n=%zu p50_ms=%.4f p90_ms=%.4f mean_ms=%.4f\n",
                title.c_str(), cls.c_str(), v.size(), Median(v),
                Percentile(v, 0.9), Mean(v));
  }
}

}  // namespace perfbench
