// ReplayPlan transform properties: alignment-preserving address remapping
// with footprint clipping (all three policies), time warping, filtering,
// and deterministic K-way tenant merge with ties broken by source index.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "trace/synthetic.h"
#include "util/random.h"

namespace ctflash::replay {
namespace {

constexpr std::uint64_t kFootprint = 64 * kMiB;

std::vector<trace::TraceRecord> RandomRecords(std::uint64_t seed, int n,
                                              std::uint64_t span,
                                              std::uint64_t align) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<trace::TraceRecord> records;
  Us t = 0;
  for (int i = 0; i < n; ++i) {
    trace::TraceRecord r;
    r.timestamp_us = t;
    t += static_cast<Us>(rng.UniformBelow(1000));
    r.op = rng.Bernoulli(0.5) ? trace::OpType::kRead : trace::OpType::kWrite;
    r.offset_bytes = rng.UniformBelow(span / align) * align +
                     (rng.Bernoulli(0.25) ? 512 : 0);  // some sub-aligned
    r.size_bytes = align * (1 + rng.UniformBelow(16));
    records.push_back(r);
  }
  return records;
}

RemapConfig Remap(RemapPolicy policy, std::uint64_t base = 0) {
  RemapConfig config;
  config.policy = policy;
  config.footprint_bytes = kFootprint;
  config.base_bytes = base;
  config.alignment_bytes = 4096;
  config.source_span_bytes = 8ull << 30;  // for kLinearScale
  return config;
}

const RemapPolicy kAllPolicies[] = {RemapPolicy::kWrap,
                                    RemapPolicy::kLinearScale,
                                    RemapPolicy::kHashScatter};

TEST(Remap, PreservesAlignmentResidueAcrossAllPolicies) {
  const auto records = RandomRecords(3, 2000, 8ull << 30, 4096);
  for (const RemapPolicy policy : kAllPolicies) {
    const RemapConfig config = Remap(policy);
    for (const auto& original : records) {
      trace::TraceRecord r = original;
      if (!RemapRecord(config, r)) continue;
      EXPECT_EQ(r.offset_bytes % 4096, original.offset_bytes % 4096)
          << RemapPolicyName(policy);
    }
  }
}

TEST(Remap, ClipsEveryRecordIntoTheTargetFootprint) {
  const auto records = RandomRecords(4, 2000, 16ull << 30, 4096);
  const std::uint64_t base = 128 * kMiB;
  for (const RemapPolicy policy : kAllPolicies) {
    RemapConfig config = Remap(policy, base);
    config.source_span_bytes = 16ull << 30;
    for (const auto& original : records) {
      trace::TraceRecord r = original;
      if (!RemapRecord(config, r)) continue;
      EXPECT_GE(r.offset_bytes, base) << RemapPolicyName(policy);
      EXPECT_LE(r.offset_bytes + r.size_bytes, base + kFootprint)
          << RemapPolicyName(policy);
      EXPECT_GT(r.size_bytes, 0u);
    }
  }
}

TEST(Remap, IsDeterministic) {
  const auto records = RandomRecords(5, 500, 8ull << 30, 4096);
  for (const RemapPolicy policy : kAllPolicies) {
    const RemapConfig config = Remap(policy);
    for (const auto& original : records) {
      trace::TraceRecord a = original;
      trace::TraceRecord b = original;
      const bool ka = RemapRecord(config, a);
      const bool kb = RemapRecord(config, b);
      EXPECT_EQ(ka, kb);
      if (ka) EXPECT_EQ(a, b);
    }
  }
}

TEST(Remap, WrapPreservesSequentialRuns) {
  // Two 4 KiB requests adjacent in the source stay adjacent after a wrap
  // (unless they straddle the fold): locality preservation.
  const RemapConfig config = Remap(RemapPolicy::kWrap);
  trace::TraceRecord a{0, trace::OpType::kRead, kFootprint + 4096, 4096};
  trace::TraceRecord b{1, trace::OpType::kRead, kFootprint + 8192, 4096};
  ASSERT_TRUE(RemapRecord(config, a));
  ASSERT_TRUE(RemapRecord(config, b));
  EXPECT_EQ(a.offset_bytes + a.size_bytes, b.offset_bytes);
}

TEST(Remap, HashScatterSpreadsAndWrapFolds) {
  // The same dense source region maps to one dense target region under
  // wrap but scatters under hash: count distinct MiB-granularity bins.
  auto bins = [](RemapPolicy policy) {
    const RemapConfig config = Remap(policy);
    std::vector<bool> seen(kFootprint / kMiB, false);
    int distinct = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
      trace::TraceRecord r{0, trace::OpType::kRead, i * 4096, 4096};
      if (!RemapRecord(config, r)) continue;
      const std::size_t bin = r.offset_bytes / kMiB;
      if (!seen[bin]) {
        seen[bin] = true;
        distinct++;
      }
    }
    return distinct;
  };
  EXPECT_LE(bins(RemapPolicy::kWrap), 2);
  EXPECT_GT(bins(RemapPolicy::kHashScatter), 16);
}

TEST(Remap, LinearScaleRequiresSourceSpanAndPreservesOrder) {
  RemapConfig config = Remap(RemapPolicy::kLinearScale);
  config.source_span_bytes = 0;
  trace::TraceRecord r{0, trace::OpType::kRead, 4096, 4096};
  EXPECT_THROW(RemapRecord(config, r), std::invalid_argument);

  config.source_span_bytes = 8ull << 30;
  // Monotone source offsets stay monotone (shape preservation).
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    trace::TraceRecord rec{0, trace::OpType::kRead,
                           i * ((8ull << 30) / 100), 4096};
    ASSERT_TRUE(RemapRecord(config, rec));
    EXPECT_GE(rec.offset_bytes, prev);
    prev = rec.offset_bytes;
  }
}

TEST(TimeWarp, AccelerationCompressesGaps) {
  TimeWarpConfig warp;
  warp.acceleration = 4.0;
  EXPECT_EQ(warp.Warp(0), 0);
  EXPECT_EQ(warp.Warp(1000), 250);
  warp.start_offset_us = 10;
  EXPECT_EQ(warp.Warp(1000), 260);
}

TEST(TimeWarp, RateTargetResolvesFromNativeRate) {
  TimeWarpConfig warp;
  warp.target_iops = 20'000.0;
  // 1000 records over 1 s = 1000 native IOPS -> 20x acceleration.
  warp.ResolveRateTarget(1000, 1'000'000);
  EXPECT_DOUBLE_EQ(warp.acceleration, 20.0);
  EXPECT_EQ(warp.target_iops, 0.0);  // resolved
  EXPECT_EQ(warp.Warp(1'000'000), 50'000);
}

TEST(TimeWarp, RejectsNonFiniteFactors) {
  // inf acceleration warped every timestamp to 0; a NaN or inf rate target
  // resolved to a NaN (INT64_MIN timestamps) or inf acceleration.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double acceleration : {inf, nan, -inf, 0.0}) {
    TimeWarpConfig warp;
    warp.acceleration = acceleration;
    EXPECT_THROW(warp.Validate(), std::invalid_argument) << acceleration;
  }
  for (const double target : {inf, nan, -1.0}) {
    TimeWarpConfig warp;
    warp.target_iops = target;
    EXPECT_THROW(warp.Validate(), std::invalid_argument) << target;
    EXPECT_THROW(warp.ResolveRateTarget(1000, 1'000'000),
                 std::invalid_argument)
        << target;
  }
  // AddSource validates the warp it is handed.
  ReplayPlan plan;
  SourceOptions options;
  options.warp.acceleration = inf;
  EXPECT_THROW(plan.AddSource(std::make_unique<VectorTraceSource>(
                                  std::vector<trace::TraceRecord>{}),
                              options),
               std::invalid_argument);
}

TEST(TimeWarp, RateTargetRejectsOverflowingRatio) {
  // Finite inputs whose ratio overflows (or underflows to 0) must not
  // resolve: 1 record over ~292k years is a near-zero native rate.
  TimeWarpConfig fast;
  fast.target_iops = 1e300;
  EXPECT_THROW(fast.ResolveRateTarget(1, std::numeric_limits<Us>::max()),
               std::invalid_argument);
  EXPECT_EQ(fast.acceleration, 1.0);  // left untouched

  TimeWarpConfig slow;
  slow.target_iops = 1e-320;
  EXPECT_THROW(slow.ResolveRateTarget(1'000'000, 1), std::invalid_argument);
}

TEST(TimeWarp, RejectsUnrepresentableWarp) {
  // Campaign time_scale 1e8 is acceleration 1e-8: a week-long trace's last
  // timestamp (6.048e11 us) warps to 6e19, past INT64_MAX.
  constexpr Us kWeekUs = 604'800'000'000;
  TimeWarpConfig slow;
  slow.acceleration = 1e-8;
  EXPECT_NO_THROW(slow.Validate());
  EXPECT_EQ(slow.Warp(1'000), 100'000'000'000);
  EXPECT_THROW(slow.Warp(kWeekUs), std::out_of_range);
  // The quotient fits, but the offset addition would overflow.
  TimeWarpConfig offset;
  offset.start_offset_us = std::numeric_limits<Us>::max() - 10;
  EXPECT_EQ(offset.Warp(10), std::numeric_limits<Us>::max());
  EXPECT_THROW(offset.Warp(11), std::out_of_range);

  // At pull time the error names the source.
  ReplayPlan plan;
  SourceOptions options;
  options.name = "week";
  options.warp = slow;
  plan.AddSource(std::make_unique<VectorTraceSource>(
                     std::vector<trace::TraceRecord>{
                         {kWeekUs, trace::OpType::kRead, 0, 4096}}),
                 options);
  try {
    plan.Next();
    ADD_FAILURE() << "an unrepresentable warp must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("source week"), std::string::npos)
        << e.what();
  }
}

TEST(TimeWarp, UnresolvedRateTargetThrowsAtPull) {
  ReplayPlan plan;
  SourceOptions options;
  options.warp.target_iops = 1000.0;
  plan.AddSource(std::make_unique<VectorTraceSource>(
                     std::vector<trace::TraceRecord>{
                         {0, trace::OpType::kRead, 0, 4096}}),
                 options);
  EXPECT_THROW(plan.Next(), std::logic_error);
}

TEST(Filter, DropsByOpSizeAndTime) {
  FilterConfig filter;
  filter.keep_writes = false;
  filter.min_size_bytes = 8192;
  filter.max_time_us = 500;
  EXPECT_TRUE(filter.Accepts({100, trace::OpType::kRead, 0, 8192}));
  EXPECT_FALSE(filter.Accepts({100, trace::OpType::kWrite, 0, 8192}));
  EXPECT_FALSE(filter.Accepts({100, trace::OpType::kRead, 0, 4096}));
  EXPECT_FALSE(filter.Accepts({501, trace::OpType::kRead, 0, 8192}));
}

TEST(Merge, OrdersByWarpedTimestampWithTiesBySourceIndex) {
  // Source 1 runs 2x accelerated, so its records interleave; exact ties
  // must come out in source-index order.
  std::vector<trace::TraceRecord> a = {
      {0, trace::OpType::kRead, 0, 4096},
      {100, trace::OpType::kRead, 4096, 4096},
      {200, trace::OpType::kRead, 8192, 4096},
  };
  std::vector<trace::TraceRecord> b = {
      {0, trace::OpType::kWrite, 0, 4096},
      {200, trace::OpType::kWrite, 4096, 4096},   // warps to 100
      {400, trace::OpType::kWrite, 8192, 4096},   // warps to 200
  };
  ReplayPlan plan;
  SourceOptions oa;
  oa.tenant = 0;
  plan.AddSource(std::make_unique<VectorTraceSource>(a), oa);
  SourceOptions ob;
  ob.tenant = 1;
  ob.warp.acceleration = 2.0;
  plan.AddSource(std::make_unique<VectorTraceSource>(b), ob);

  std::vector<TaggedRecord> merged;
  while (auto r = plan.Next()) merged.push_back(*r);
  ASSERT_EQ(merged.size(), 6u);
  Us prev = 0;
  for (const auto& r : merged) {
    EXPECT_GE(r.record.timestamp_us, prev);
    prev = r.record.timestamp_us;
  }
  // Ties at t=0, 100, 200: source 0 first every time.
  for (std::size_t i = 0; i + 1 < merged.size(); i += 2) {
    EXPECT_EQ(merged[i].record.timestamp_us,
              merged[i + 1].record.timestamp_us);
    EXPECT_EQ(merged[i].source_index, 0u);
    EXPECT_EQ(merged[i + 1].source_index, 1u);
    EXPECT_EQ(merged[i].tenant, 0u);
    EXPECT_EQ(merged[i + 1].tenant, 1u);
  }
}

TEST(Merge, CountersConserveRecordsAndResetRestores) {
  const auto cfg = trace::WebServerWorkload(256 * kMiB, 400);
  ReplayPlan plan;
  SourceOptions options;
  options.filter.keep_writes = false;
  options.remap = Remap(RemapPolicy::kWrap);
  plan.AddSource(std::make_unique<SyntheticTraceSource>(cfg), options);

  std::vector<TaggedRecord> first;
  while (auto r = plan.Next()) first.push_back(*r);
  const auto& counters = plan.CountersOf(0);
  EXPECT_EQ(counters.pulled, 400u);
  EXPECT_EQ(counters.emitted, first.size());
  EXPECT_EQ(counters.pulled,
            counters.emitted + counters.filtered + counters.clipped);
  EXPECT_GT(counters.filtered, 0u);  // the dropped writes

  plan.Reset();
  std::vector<TaggedRecord> second;
  while (auto r = plan.Next()) second.push_back(*r);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].record, first[i].record) << i;
  }
}

TEST(Merge, MaxRecordsStopsPullingEarly) {
  const auto cfg = trace::WebServerWorkload(256 * kMiB, 1000);
  ReplayPlan plan;
  SourceOptions options;
  options.filter.max_records = 50;
  plan.AddSource(std::make_unique<SyntheticTraceSource>(cfg), options);
  std::uint64_t n = 0;
  while (plan.Next()) n++;
  EXPECT_EQ(n, 50u);
  // Stops pulling once satisfied instead of draining the source.
  EXPECT_LE(plan.CountersOf(0).pulled, 51u);
}

}  // namespace
}  // namespace ctflash::replay
