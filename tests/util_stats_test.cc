#include "util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ctflash::util {
namespace {

TEST(RunningMoments, EmptyIsZero) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.min(), 0.0);
  EXPECT_DOUBLE_EQ(m.max(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(RunningMoments, BasicMoments) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_NEAR(m.variance(), 4.0, 1e-12);  // classic example set
  EXPECT_NEAR(m.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(RunningMoments, SingleSampleVarianceZero) {
  RunningMoments m;
  m.Add(3.5);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.5);
  EXPECT_DOUBLE_EQ(m.min(), 3.5);
  EXPECT_DOUBLE_EQ(m.max(), 3.5);
}

TEST(RunningMoments, MergeMatchesSequential) {
  RunningMoments all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningMoments, MergeWithEmptySides) {
  RunningMoments a, b;
  a.Add(1.0);
  a.Merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);  // empty lhs: copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningMoments, ResetClears) {
  RunningMoments m;
  m.Add(5.0);
  m.Reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(LatencyStats, TotalsAndUnits) {
  LatencyStats s;
  s.Add(1'000'000);  // 1 second
  s.Add(2'000'000);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.total_us(), 3e6);
  EXPECT_DOUBLE_EQ(s.total_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean_us(), 1.5e6);
  EXPECT_DOUBLE_EQ(s.max_us(), 2e6);
  EXPECT_DOUBLE_EQ(s.min_us(), 1e6);
}

TEST(LatencyStats, NegativeLatencyClampsHistogramOnly) {
  LatencyStats s;
  s.Add(-5);  // defensive: moments keep the value, histogram clamps at 0
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.total_us(), -5.0);
}

TEST(LatencyStats, SummaryMentionsLabelAndCount) {
  LatencyStats s;
  s.Add(42);
  const std::string text = s.Summary("reads");
  EXPECT_NE(text.find("reads"), std::string::npos);
  EXPECT_NE(text.find("n=1"), std::string::npos);
}

TEST(LatencyStats, MergeAndReset) {
  LatencyStats a, b;
  a.Add(10);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_us(), 20.0);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(LatencyStats, PercentilesRoughlyOrdered) {
  LatencyStats s;
  for (Us v = 1; v <= 1000; ++v) s.Add(v);
  EXPECT_LE(s.p50_us(), s.p95_us());
  EXPECT_LE(s.p95_us(), s.p99_us());
  EXPECT_LE(s.p99_us(), s.p999_us());
}

TEST(QuantileEstimator, BinMappingRoundTrips) {
  // Every bin boundary maps back into its own bin, bins tile the value
  // space without gaps, and values land inside their bin's bounds.
  for (int b = 0; b < QuantileEstimator::kBins - 1; ++b) {
    EXPECT_EQ(QuantileEstimator::BinHigh(b), QuantileEstimator::BinLow(b + 1))
        << "gap after bin " << b;
    EXPECT_EQ(QuantileEstimator::BinOf(QuantileEstimator::BinLow(b)), b);
  }
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull,
                          123456789ull, 1ull << 40, ~0ull}) {
    const int b = QuantileEstimator::BinOf(v);
    EXPECT_GE(v, QuantileEstimator::BinLow(b));
    if (b < QuantileEstimator::kBins - 1) {
      EXPECT_LT(v, QuantileEstimator::BinHigh(b));
    }
  }
}

TEST(QuantileEstimator, SmallValuesAreExact) {
  QuantileEstimator e;
  for (std::uint64_t v = 0; v < 16; ++v) e.Add(v);
  // Values below kSubBins get one bin each: quantiles are exact to the bin.
  EXPECT_NEAR(e.Quantile(0.5), 8.0, 1.0);
  EXPECT_NEAR(e.Quantile(1.0), 16.0, 1.0);
}

TEST(QuantileEstimator, BoundedRelativeError) {
  // Uniform 1..100000: every percentile estimate must land within the
  // 1/kSubBins (~6.25 %) design bound of the true value.
  QuantileEstimator e;
  for (std::uint64_t v = 1; v <= 100'000; ++v) e.Add(v);
  for (double q : {0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}) {
    const double truth = q * 100'000.0;
    EXPECT_NEAR(e.Quantile(q), truth, truth / QuantileEstimator::kSubBins + 1)
        << "q=" << q;
  }
}

TEST(QuantileEstimator, ResolvesTailTheCoarseHistogramCannot) {
  // 9990 fast + 10 slow samples inside one power-of-two octave
  // [1024, 2048): a log2-bucketed histogram keeps them in a single bucket
  // and can only interpolate across the whole octave (its median would be
  // 1536), while the sub-binned estimator separates p50 from p99.9.
  QuantileEstimator fine;
  for (int i = 0; i < 9990; ++i) fine.Add(1100);
  for (int i = 0; i < 10; ++i) fine.Add(2000);
  EXPECT_NEAR(fine.Quantile(0.5), 1100.0, 1100.0 / 16 + 1);
  EXPECT_NEAR(fine.Quantile(0.9995), 2000.0, 2000.0 / 16 + 1);
}

TEST(QuantileEstimator, MergeResetAndEdgeCases) {
  QuantileEstimator a, b;
  a.Add(100);
  b.Add(100);
  b.Add(10'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_THROW(a.Quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(a.Quantile(1.0001), std::invalid_argument);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 0.0);
}

// Property: recording a sample stream split across K estimators and merging
// them is indistinguishable from recording everything into one estimator —
// identical bins, hence identical quantiles.  This is what lets the cluster
// layer merge per-device histograms into cluster-level percentiles without
// approximation error beyond the estimator's own bin width.
TEST(QuantileEstimator, MergeOfShardsMatchesSingleEstimator) {
  constexpr int kShards = 5;
  QuantileEstimator single;
  QuantileEstimator shards[kShards];
  // Deterministic mixed-magnitude stream: exact small values, mid-range,
  // heavy tail, zeros.
  std::uint64_t x = 12345;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    const std::uint64_t sample = (x >> 33) % ((i % 7 == 0) ? 13ull
                                              : (i % 3 == 0)
                                                  ? 100'000ull
                                                  : 9'000'000'000ull);
    single.Add(sample);
    shards[(x >> 7) % kShards].Add(sample);
  }
  QuantileEstimator merged;
  for (const QuantileEstimator& s : shards) merged.Merge(s);
  EXPECT_EQ(merged.count(), single.count());
  ASSERT_EQ(merged.bins().size(), single.bins().size());
  for (std::size_t b = 0; b < single.bins().size(); ++b) {
    ASSERT_EQ(merged.bins()[b], single.bins()[b]) << "bin " << b;
  }
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), single.Quantile(q)) << "q=" << q;
  }
  // Merge order cannot matter (bin-wise addition commutes).
  QuantileEstimator reversed;
  for (int s = kShards - 1; s >= 0; --s) reversed.Merge(shards[s]);
  EXPECT_EQ(reversed.bins(), merged.bins());
}

}  // namespace
}  // namespace ctflash::util
