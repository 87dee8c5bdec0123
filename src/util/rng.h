// Deterministic pseudo-random generation for workload synthesis and
// property tests. A small PCG-ish generator plus the distributions the
// generators need (uniform, Zipf, geometric).
#ifndef RDFTX_UTIL_RNG_H_
#define RDFTX_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace rdftx {

/// splitmix64-based generator: fast, seedable, reproducible across
/// platforms (unlike std::mt19937 distribution wrappers).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ull) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n); n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p.
  bool Bernoulli(double p);

  /// Geometric-like count with the given mean (>= 1).
  uint32_t GeometricMean(double mean);

 private:
  uint64_t state_;
};

/// Zipf-distributed sampler over ranks [0, n) with exponent `s`,
/// using a precomputed CDF (O(log n) per sample).
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  /// Samples a rank in [0, n).
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace rdftx

#endif  // RDFTX_UTIL_RNG_H_
