#include "util/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ctflash::util {

namespace {
std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void Xoshiro256StarStar::Reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Guard against the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Xoshiro256StarStar::UniformBelow(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("UniformBelow: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) % bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256StarStar::UniformInRange(std::uint64_t lo,
                                                 std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInRange: lo > hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return (*this)();  // full 64-bit range
  return lo + UniformBelow(span);
}

double Xoshiro256StarStar::UniformDouble() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Xoshiro256StarStar::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler: n must be at most 2^32 - 1");
  }
  if (theta < 0.0) throw std::invalid_argument("ZipfSampler: theta must be >= 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;  // guard against fp round-off at the tail

  // 2^bits buckets, at most 2^16 and no more than there are ranks.  The
  // bucket width is a power of two, so thresholds and a draw's bucket
  // index are exact.
  const int bits = std::min(16, static_cast<int>(std::bit_width(n)) - 1);
  const std::uint64_t buckets = std::uint64_t{1} << bits;
  buckets_ = static_cast<double>(buckets);
  const double width = 1.0 / buckets_;
  guide_.resize(buckets + 1);
  // Gallop from the previous bucket's rank, first stepping by the previous
  // bucket's width in ranks (adjacent buckets span similar widths): skewed
  // heads repeat a rank, long tails skip many, and neither pays a scan of
  // the whole table.
  std::uint64_t rank = 0;
  std::uint64_t gap = 1;
  for (std::uint64_t j = 0; j <= buckets; ++j) {
    const double threshold = static_cast<double>(j) * width;
    if (cdf_[rank] < threshold) {
      std::uint64_t lo = rank + 1;  // every rank below lo is < threshold
      std::uint64_t hi = std::min(n - 1, rank + gap);
      for (std::uint64_t step = gap; hi < n - 1 && cdf_[hi] < threshold;
           step *= 2) {
        lo = hi + 1;
        hi = std::min(n - 1, hi + step);
      }
      // cdf_[hi] >= threshold: cdf_.back() is 1.
      const auto next = static_cast<std::uint64_t>(
          std::lower_bound(cdf_.begin() + static_cast<std::ptrdiff_t>(lo),
                           cdf_.begin() + static_cast<std::ptrdiff_t>(hi),
                           threshold) -
          cdf_.begin());
      gap = next - rank;
      rank = next;
    }
    guide_[j] = static_cast<std::uint32_t>(rank);
  }
}

std::uint64_t ZipfSampler::Sample(Xoshiro256StarStar& rng) const {
  return RankAt(rng.UniformDouble());
}

std::uint64_t ZipfSampler::RankAt(double u) const {
  if (!(u >= 0.0 && u < 1.0)) {
    throw std::out_of_range("ZipfSampler::RankAt: u must be in [0, 1)");
  }
  // j / buckets <= u < (j + 1) / buckets, so the first rank with cdf >= u
  // lies in [guide_[j], guide_[j + 1]].
  const auto j = static_cast<std::size_t>(u * buckets_);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  return static_cast<std::uint64_t>(std::lower_bound(first, last, u) -
                                    cdf_.begin());
}

double ZipfSampler::Pmf(std::uint64_t rank) const {
  if (rank >= n_) throw std::out_of_range("ZipfSampler::Pmf: rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace ctflash::util
