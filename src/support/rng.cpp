#include "support/rng.h"

#include <cmath>
#include <numbers>

namespace certkit::support {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

std::int64_t Xoshiro256::UniformInt(std::int64_t lo, std::int64_t hi) {
  CERTKIT_CHECK(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - ((~0ULL) % range);
  std::uint64_t x;
  do {
    x = Next();
  } while (x > limit);
  return lo + static_cast<std::int64_t>(x % range);
}

double Xoshiro256::Gaussian() {
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Xoshiro256::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Xoshiro256::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::size_t Xoshiro256::WeightedIndex(const double* weights, std::size_t n) {
  CERTKIT_CHECK(n > 0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    CERTKIT_CHECK_MSG(weights[i] >= 0.0, "negative weight at index " << i);
    total += weights[i];
  }
  CERTKIT_CHECK_MSG(total > 0.0, "all weights are zero");
  double r = UniformDouble() * total;
  for (std::size_t i = 0; i < n; ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return n - 1;  // numeric edge: r landed exactly on total
}

}  // namespace certkit::support
