#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace ctflash::util {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro, ReseedRestartsSequence) {
  Xoshiro256StarStar a(42);
  const auto first = a();
  a();
  a.Reseed(42);
  EXPECT_EQ(a(), first);
}

TEST(Xoshiro, UniformBelowStaysInRange) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformBelow(17), 17u);
  }
}

TEST(Xoshiro, UniformBelowOneAlwaysZero) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformBelow(1), 0u);
}

TEST(Xoshiro, UniformBelowZeroThrows) {
  Xoshiro256StarStar rng(7);
  EXPECT_THROW(rng.UniformBelow(0), std::invalid_argument);
}

TEST(Xoshiro, UniformBelowCoversAllResidues) {
  Xoshiro256StarStar rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, UniformInRangeInclusive) {
  Xoshiro256StarStar rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= v == 10;
    saw_hi |= v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro, UniformInRangeBadBoundsThrow) {
  Xoshiro256StarStar rng(9);
  EXPECT_THROW(rng.UniformInRange(5, 4), std::invalid_argument);
}

TEST(Xoshiro, UniformDoubleInUnitInterval) {
  Xoshiro256StarStar rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, BernoulliEdgeCases) {
  Xoshiro256StarStar rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(Xoshiro, BernoulliApproximatesProbability) {
  Xoshiro256StarStar rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
  // The guide table holds 32-bit ranks; the check precedes the 32 GiB CDF.
  EXPECT_THROW(ZipfSampler(std::uint64_t{1} << 32, 0.9),
               std::invalid_argument);
}

TEST(Zipf, RankAtRejectsDrawsOutsideTheUnitInterval) {
  const ZipfSampler zipf(10, 1.0);
  EXPECT_THROW(zipf.RankAt(1.0), std::out_of_range);
  EXPECT_THROW(zipf.RankAt(-0.25), std::out_of_range);
  EXPECT_THROW(zipf.RankAt(std::nan("")), std::out_of_range);
}

/// The guide-table draw against a binary search of the whole CDF: the same
/// RNG stream must give the same ranks, and so must every bucket boundary
/// u = j / 2^16 and the double just below it.
TEST(Zipf, GuideDrawsMatchAFullBinarySearch) {
  constexpr std::uint64_t kDraws = 2'000'000;
  const std::vector<std::uint64_t> sizes = {1,     2,     3,     5,
                                            17,    1000,  65535, 65536,
                                            65537, 1'000'000};
  const std::vector<double> thetas = {0.0, 0.5, 0.9, 0.99, 1.2};
  const std::uint64_t per_case = kDraws / (sizes.size() * thetas.size());
  for (const std::uint64_t n : sizes) {
    for (const double theta : thetas) {
      SCOPED_TRACE("n " + std::to_string(n) + " theta " +
                   std::to_string(theta));
      const ZipfSampler zipf(n, theta);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      ASSERT_EQ(cdf.back(), 1.0);
      const auto reference = [&](double u) {
        return static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      };
      Xoshiro256StarStar draws(n * 7919 +
                               static_cast<std::uint64_t>(theta * 100));
      Xoshiro256StarStar uniforms = draws;
      std::uint64_t mismatches = 0;
      for (std::uint64_t i = 0; i < per_case; ++i) {
        mismatches += zipf.Sample(draws) != reference(uniforms.UniformDouble());
      }
      EXPECT_EQ(mismatches, 0u);
      for (std::uint64_t j = 0; j < 65536; ++j) {
        const double u = static_cast<double>(j) / 65536.0;
        mismatches += zipf.RankAt(u) != reference(u);
        if (j > 0) {
          const double below = std::nextafter(u, 0.0);
          mismatches += zipf.RankAt(below) != reference(below);
        }
      }
      const double last = std::nextafter(1.0, 0.0);
      mismatches += zipf.RankAt(last) != reference(last);
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfSampler zipf(100, 0.99);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < 100; ++r) sum += zipf.Pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfOutOfRangeThrows) {
  const ZipfSampler zipf(10, 1.0);
  EXPECT_THROW(zipf.Pmf(10), std::out_of_range);
}

TEST(Zipf, RankZeroIsMostPopular) {
  const ZipfSampler zipf(1000, 1.1);
  for (std::uint64_t r = 1; r < 10; ++r) {
    EXPECT_GT(zipf.Pmf(0), zipf.Pmf(r));
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  const ZipfSampler zipf(50, 0.0);
  for (std::uint64_t r = 0; r < 50; ++r) {
    EXPECT_NEAR(zipf.Pmf(r), 1.0 / 50.0, 1e-12);
  }
}

TEST(Zipf, SamplesStayInRange) {
  const ZipfSampler zipf(37, 1.2);
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 37u);
}

TEST(Zipf, EmpiricalFrequencyTracksPmf) {
  const ZipfSampler zipf(20, 1.0);
  Xoshiro256StarStar rng(21);
  std::vector<int> counts(20, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf.Sample(rng)]++;
  for (std::uint64_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.Pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(Zipf, SingleItemAlwaysRankZero) {
  const ZipfSampler zipf(1, 2.0);
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

/// Property sweep: for a range of thetas, higher theta concentrates more
/// probability mass on the top rank.
class ZipfThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfThetaSweep, TopRankMassGrowsWithTheta) {
  const double theta = GetParam();
  const ZipfSampler base(200, theta);
  const ZipfSampler steeper(200, theta + 0.3);
  EXPECT_GE(steeper.Pmf(0), base.Pmf(0));
}

TEST_P(ZipfThetaSweep, CdfMonotone) {
  const double theta = GetParam();
  const ZipfSampler zipf(64, theta);
  double cum = 0.0;
  for (std::uint64_t r = 0; r < 64; ++r) {
    const double p = zipf.Pmf(r);
    EXPECT_GE(p, 0.0);
    cum += p;
  }
  EXPECT_NEAR(cum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaSweep,
                         ::testing::Values(0.0, 0.5, 0.9, 1.0, 1.2, 2.0));

}  // namespace
}  // namespace ctflash::util
