#include "ssd/experiment.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/synthetic.h"

namespace ctflash::ssd {
namespace {

SsdConfig Cfg(FtlKind kind = FtlKind::kConventional) {
  return ScaledConfig(kind, 1ull << 28, 16 * 1024, 2.0);  // 256 MiB
}

TEST(Enhancement, Definition) {
  EXPECT_DOUBLE_EQ(Enhancement(100.0, 90.0), 0.10);
  EXPECT_DOUBLE_EQ(Enhancement(100.0, 110.0), -0.10);
  EXPECT_DOUBLE_EQ(Enhancement(0.0, 5.0), 0.0);  // degenerate base
}

TEST(ExperimentRunner, PrefillMapsFootprintAndResetsStats) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  const std::uint64_t footprint = ssd.LogicalBytes() / 2;
  const Us spent = runner.Prefill(footprint);
  EXPECT_GT(spent, 0);
  // Stats were reset after prefill...
  EXPECT_EQ(ssd.ftl().stats().host_write_pages, 0u);
  EXPECT_EQ(ssd.target().nand().counters().programs, 0u);
  // ...but the data remains readable with real latency.
  const auto r = ssd.Read(0, 16 * 1024, spent);
  EXPECT_GT(r.LatencyUs(), 0);
}

TEST(ExperimentRunner, PrefillClipsToLogicalCapacity) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  runner.Prefill(ssd.LogicalBytes() * 10);  // oversized: clipped, no throw
  const auto r = ssd.Read(ssd.LogicalBytes() - 16 * 1024, 16 * 1024, 0);
  EXPECT_GT(r.LatencyUs(), 0);
}

TEST(ExperimentRunner, PrefillZeroChunkRejected) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  EXPECT_THROW(runner.Prefill(1 << 20, 0), std::invalid_argument);
}

TEST(ExperimentRunner, ReplayAggregatesByOp) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  runner.Prefill(ssd.LogicalBytes() / 2);
  std::vector<trace::TraceRecord> recs = {
      {0, trace::OpType::kWrite, 0, 16 * 1024},
      {10, trace::OpType::kRead, 0, 16 * 1024},
      {20, trace::OpType::kRead, 16 * 1024, 16 * 1024},
  };
  const auto res = runner.Replay(recs, "tiny");
  EXPECT_EQ(res.workload_name, "tiny");
  EXPECT_EQ(res.ftl_name, "conventional-ftl");
  EXPECT_EQ(res.read_latency.count(), 2u);
  EXPECT_EQ(res.write_latency.count(), 1u);
  EXPECT_EQ(res.host_read_pages, 2u);
  EXPECT_EQ(res.host_write_pages, 1u);
  EXPECT_GT(res.TotalReadSeconds(), 0.0);
  EXPECT_GE(res.waf, 1.0);
}

TEST(ExperimentRunner, OutOfRangeRecordsWrapAndClip) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  runner.Prefill(ssd.LogicalBytes());
  std::vector<trace::TraceRecord> recs = {
      {0, trace::OpType::kRead, ssd.LogicalBytes() + 4096, 16 * 1024},
      {0, trace::OpType::kRead, ssd.LogicalBytes() - 4096, 1 << 20},
  };
  const auto res = runner.Replay(recs, "wrap");
  EXPECT_EQ(res.read_latency.count(), 2u);  // both served after wrap/clip
}

TEST(ExperimentRunner, ClosedLoopNeverOverlapsRequests) {
  Ssd ssd(Cfg());
  ExperimentRunner runner(ssd);
  runner.Prefill(ssd.LogicalBytes() / 2);
  // All arrivals at t=0: closed loop serializes them.
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 50; ++i) {
    recs.push_back({0, trace::OpType::kRead,
                    static_cast<std::uint64_t>(i) * 16 * 1024, 16 * 1024});
  }
  const auto res = runner.Replay(recs, "burst");
  // Per-request latency stays service-time bounded (no queue explosion).
  EXPECT_LT(res.read_latency.max_us(), 200.0);
  EXPECT_GT(res.sim_end_us, 0);
}

TEST(RunExperiment, DeterministicEndToEnd) {
  const auto wl = trace::WebServerWorkload(64ull << 20, 5000);
  const auto recs = trace::SyntheticTraceGenerator(wl).Generate();
  const auto a = RunExperiment(Cfg(FtlKind::kPpb), recs, 64ull << 20, wl.name);
  const auto b = RunExperiment(Cfg(FtlKind::kPpb), recs, 64ull << 20, wl.name);
  EXPECT_DOUBLE_EQ(a.TotalReadSeconds(), b.TotalReadSeconds());
  EXPECT_DOUBLE_EQ(a.TotalWriteSeconds(), b.TotalWriteSeconds());
  EXPECT_EQ(a.erase_count, b.erase_count);
  EXPECT_EQ(a.gc_page_copies, b.gc_page_copies);
}

}  // namespace
}  // namespace ctflash::ssd
