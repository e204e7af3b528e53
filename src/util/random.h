// Deterministic pseudo-random utilities.
//
// Everything stochastic in ctflash flows through Xoshiro256StarStar so that
// experiments are reproducible bit-for-bit from a single seed.  The engine
// satisfies std::uniform_random_bit_generator and can be used with <random>
// distributions, but the helpers below avoid libstdc++ distribution objects
// whose sequences are not portable across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    Reseed(seed);
  }

  /// Re-initializes the state from `seed` using splitmix64.
  void Reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t UniformBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t UniformInRange(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  void SaveState(StateWriter& w) const {
    for (std::uint64_t s : state_) w.PutU64(s);
  }
  void LoadState(StateReader& r) {
    for (std::uint64_t& s : state_) s = r.GetU64();
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf(theta) sampler over ranks [0, n).  theta = 0 is uniform; larger theta
/// skews mass toward low ranks.  Uses the classic inverse-CDF table for exact
/// sampling, indexed by a guide table (Chen & Asau's indexed search): guide
/// bucket j holds the first rank whose cdf reaches j / buckets, so a draw
/// binary-searches only the ranks between two adjacent guide entries.
/// Construction is O(n); a draw bisects one bucket's ranks instead of all n.
/// The guide stores 32-bit ranks, so n must fit in 32 bits.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  /// Draws a rank in [0, n); rank 0 is the most popular item.
  std::uint64_t Sample(Xoshiro256StarStar& rng) const;

  /// The first rank whose cumulative probability is >= u, for u in [0, 1):
  /// the rank Sample returns when the uniform draw is u.
  std::uint64_t RankAt(double u) const;

  /// Probability mass of a given rank.
  double Pmf(std::uint64_t rank) const;

  /// cdf()[i] = P(rank <= i); the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
  /// guide_[j] = first rank with cdf_ >= j / buckets_, j in [0, buckets_].
  std::vector<std::uint32_t> guide_;
  double buckets_ = 1.0;  ///< a power of two, at most 2^16 and n
};

}  // namespace ctflash::util
