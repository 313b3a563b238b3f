// Deterministic random-number utilities.
//
// Every stochastic component of the library (graph augmentation, negative
// sampling, weight initialisation, synthetic data generation) draws from an
// explicitly seeded Rng so that training runs, tests and benchmarks are
// reproducible.

#ifndef SARN_COMMON_RNG_H_
#define SARN_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"

namespace sarn {

/// A seeded pseudo-random generator with the handful of distributions the
/// library needs. Thin wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SARN_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    SARN_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index drawn proportionally to the (non-negative) weights.
  size_t Discrete(const std::vector<double>& weights) {
    SARN_CHECK(!weights.empty());
    return std::discrete_distribution<size_t>(weights.begin(), weights.end())(engine_);
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// k indices sampled *without replacement* with probability proportional to
  /// `weights` (the A-ES weighted reservoir scheme of Efraimidis & Spirakis).
  /// Entries with non-positive weight are never selected. Returns fewer than k
  /// indices if fewer than k entries have positive weight.
  std::vector<size_t> WeightedSampleWithoutReplacement(const std::vector<double>& weights,
                                                       size_t k);

  /// Serialises the engine state so the stream can be resumed exactly.
  /// Because every distribution object is constructed per call, the engine
  /// state is the *complete* state of an Rng: after LoadState the generator
  /// continues the saved stream bitwise.
  void SaveState(ByteWriter& out) const;
  /// Restores a state written by SaveState. Returns false (leaving this Rng
  /// untouched) on truncated or malformed input.
  bool LoadState(ByteReader& in);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sarn

#endif  // SARN_COMMON_RNG_H_
