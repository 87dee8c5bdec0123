#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rdftx {

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t n) {
  assert(n > 0);
  // Modulo bias is negligible for the n we use (n << 2^64).
  return Next() % n;
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

uint32_t Rng::GeometricMean(double mean) {
  if (mean <= 1.0) return 1;
  // Geometric on {1, 2, ...} with success probability 1/mean.
  const double p = 1.0 / mean;
  double u = NextDouble();
  if (u >= 1.0) u = 0.9999999999;
  double k = std::floor(std::log(1.0 - u) / std::log(1.0 - p)) + 1.0;
  if (k < 1.0) k = 1.0;
  if (k > 1e6) k = 1e6;
  return static_cast<uint32_t>(k);
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (uint64_t i = 0; i < n; ++i) cdf_[i] /= sum;
}

uint64_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace rdftx
