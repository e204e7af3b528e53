// Device-state snapshot tests: byte-exact round trips across FTL variants,
// GC routings, and active QoS pacing, plus rejection of corrupt, truncated,
// wrong-version, and wrong-shape snapshots.
//
// The core property is CONTINUATION EQUIVALENCE: running a workload on a
// device, then snapshotting (path A), must produce byte-identical state to
// snapshotting first, restoring into a FRESH device, and running the same
// workload there (path B).  That is the contract the campaign runner's
// shared prefill rests on.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/snapshot.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash {
namespace {

ssd::SsdConfig SmallConfig(ssd::FtlKind kind, ftl::GcRouting routing) {
  auto cfg = ssd::ScaledConfig(kind, 32ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = routing;
  return cfg;
}

/// GC-churning closed-loop burst: 50 % writes over a 60 % footprint.
void RunBurst(ssd::Ssd& ssd, Us start_us, const qos::QosConfig& qos) {
  host::HostConfig host_cfg;
  host_cfg.qos = qos;
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(start_us);
  if (qos.tenants.empty()) {
    host::TenantWorkload burst;
    burst.queue_depth = 8;
    burst.total_requests = 3'000;
    burst.read_fraction = 0.5;
    burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
    burst.seed = 5;
    host::LoadGenerator(host, {burst}).Run();
  } else {
    // Two tenants, the second IOPS-capped so pacing queues engage.
    std::vector<host::TenantWorkload> workloads(2);
    workloads[0].tenant = 0;
    workloads[0].queue_depth = 8;
    workloads[0].total_requests = 1'500;
    workloads[0].read_fraction = 0.5;
    workloads[0].footprint_bytes = ssd.LogicalBytes() / 100 * 30;
    workloads[0].seed = 5;
    workloads[1].tenant = 1;
    workloads[1].queue_depth = 8;
    workloads[1].total_requests = 1'500;
    workloads[1].read_fraction = 0.5;
    workloads[1].footprint_base_bytes = ssd.LogicalBytes() / 100 * 30;
    workloads[1].footprint_bytes = ssd.LogicalBytes() / 100 * 30;
    workloads[1].seed = 6;
    host::LoadGenerator(host, workloads).Run();
  }
}

qos::QosConfig PacingQos() {
  qos::QosConfig qos;
  qos.tenants.resize(2);
  qos.tenants[0].name = "a";
  qos.tenants[0].weight = 4;
  qos.tenants[0].queues = {0, 1};
  qos.tenants[1].name = "b";
  qos.tenants[1].weight = 1;
  qos.tenants[1].queues = {2, 3};
  qos.tenants[1].iops_limit = 5'000.0;
  return qos;
}

/// Paths A and B of the continuation-equivalence property; returns the two
/// final snapshots' serialized bytes.
void ExpectContinuationEquivalence(ssd::FtlKind kind, ftl::GcRouting routing,
                                   const qos::QosConfig& qos) {
  const auto cfg = SmallConfig(kind, routing);

  // Path A: prefill, burst, snapshot.
  ssd::Ssd a(cfg);
  ssd::ExperimentRunner prefill_a(a);
  const Us end_a = prefill_a.Prefill(a.LogicalBytes() / 100 * 85);
  RunBurst(a, end_a, qos);
  const auto final_a = a.Snapshot(0).Serialize();

  // Path B: prefill, snapshot, restore into a fresh device, same burst.
  ssd::Ssd b0(cfg);
  ssd::ExperimentRunner prefill_b(b0);
  const Us end_b = prefill_b.Prefill(b0.LogicalBytes() / 100 * 85);
  ASSERT_EQ(end_a, end_b);
  const campaign::DeviceState mid = b0.Snapshot(end_b);

  ssd::Ssd b(cfg);
  b.Restore(mid);
  RunBurst(b, static_cast<Us>(mid.clock_us), qos);
  const auto final_b = b.Snapshot(0).Serialize();

  EXPECT_EQ(final_a, final_b)
      << ssd::FtlKindName(kind) << "/" << ftl::GcRoutingName(routing)
      << ": continuation after restore diverged from straight-through";
}

TEST(CampaignSnapshot, ContinuationConventionalInline) {
  ExpectContinuationEquivalence(ssd::FtlKind::kConventional,
                                ftl::GcRouting::kInline, {});
}

TEST(CampaignSnapshot, ContinuationConventionalScheduled) {
  ExpectContinuationEquivalence(ssd::FtlKind::kConventional,
                                ftl::GcRouting::kScheduled, {});
}

TEST(CampaignSnapshot, ContinuationPpbInline) {
  ExpectContinuationEquivalence(ssd::FtlKind::kPpb, ftl::GcRouting::kInline,
                                {});
}

TEST(CampaignSnapshot, ContinuationPpbScheduled) {
  ExpectContinuationEquivalence(ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled,
                                {});
}

TEST(CampaignSnapshot, ContinuationUnderQosPacing) {
  ExpectContinuationEquivalence(ssd::FtlKind::kConventional,
                                ftl::GcRouting::kScheduled, PacingQos());
  ExpectContinuationEquivalence(ssd::FtlKind::kPpb, ftl::GcRouting::kInline,
                                PacingQos());
}

TEST(CampaignSnapshot, SerializeRoundTrip) {
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner prefill(ssd);
  const Us end = prefill.Prefill(ssd.LogicalBytes() / 2);
  const campaign::DeviceState state = ssd.Snapshot(end);

  const auto bytes = state.Serialize();
  const campaign::DeviceState back = campaign::DeviceState::Deserialize(bytes);
  EXPECT_EQ(back.shape_key, state.shape_key);
  EXPECT_EQ(back.clock_us, state.clock_us);
  EXPECT_EQ(back.payload, state.payload);
  EXPECT_EQ(back.Serialize(), bytes);
}

TEST(CampaignSnapshot, CorruptPayloadRejected) {
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd ssd(cfg);
  auto bytes = ssd.Snapshot(0).Serialize();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  try {
    campaign::DeviceState::Deserialize(bytes);
    FAIL() << "corrupt snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << "error should name the CRC mismatch: " << e.what();
  }
}

TEST(CampaignSnapshot, TruncatedSnapshotRejected) {
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd ssd(cfg);
  auto bytes = ssd.Snapshot(0).Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(campaign::DeviceState::Deserialize(bytes), std::runtime_error);
  bytes.resize(8);  // below the minimum envelope
  EXPECT_THROW(campaign::DeviceState::Deserialize(bytes), std::runtime_error);
}

TEST(CampaignSnapshot, BadMagicRejected) {
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd ssd(cfg);
  auto bytes = ssd.Snapshot(0).Serialize();
  bytes[0] = 'X';
  try {
    campaign::DeviceState::Deserialize(bytes);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(CampaignSnapshot, WrongVersionRejected) {
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd ssd(cfg);
  auto bytes = ssd.Snapshot(0).Serialize();
  // Bump the little-endian version word (offset 4) and re-seal the CRC so
  // only the version check can fire.
  bytes[4] = static_cast<std::uint8_t>(campaign::DeviceState::kFormatVersion +
                                       1);
  const std::uint32_t crc =
      util::Crc32(bytes.data() + 4, bytes.size() - 8);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    campaign::DeviceState::Deserialize(bytes);
    FAIL() << "wrong-version snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CampaignSnapshot, ShapeMismatchRejected) {
  const auto small = SmallConfig(ssd::FtlKind::kConventional,
                                 ftl::GcRouting::kInline);
  ssd::Ssd source(small);
  const campaign::DeviceState state = source.Snapshot(0);

  // A different page size changes the geometry; a different device_bytes
  // alone may not (ScaledGeometry rounds the block count up to at least 1,
  // so small targets collapse onto the same shape).
  auto other = ssd::ScaledConfig(ssd::FtlKind::kConventional, 32ull << 20,
                                 8 * 1024, 2.0);
  other.timing_mode = ftl::TimingMode::kQueued;
  ssd::Ssd target(other);
  try {
    target.Restore(state);
    FAIL() << "shape-mismatched snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos);
  }
}

TEST(CampaignSnapshot, GcRoutingSharesShapeKey) {
  // Prefilled state is routing-independent (the GC sink is not attached
  // during synchronous prefill), so the shape key deliberately excludes
  // gc_routing: an inline-prefilled snapshot restores into a scheduled arm.
  const auto inline_cfg = SmallConfig(ssd::FtlKind::kConventional,
                                      ftl::GcRouting::kInline);
  const auto sched_cfg = SmallConfig(ssd::FtlKind::kConventional,
                                     ftl::GcRouting::kScheduled);
  EXPECT_EQ(campaign::SnapshotShapeKey(inline_cfg),
            campaign::SnapshotShapeKey(sched_cfg));

  ssd::Ssd source(inline_cfg);
  ssd::ExperimentRunner prefill(source);
  const Us end = prefill.Prefill(source.LogicalBytes() / 2);
  ssd::Ssd target(sched_cfg);
  EXPECT_NO_THROW(target.Restore(source.Snapshot(end)));
}

TEST(CampaignSnapshot, ArmErrorModelAfterRestoreRejected) {
  // Arming the error model reseeds the RNG and zeroes the error stats — on
  // a restored device that would silently discard the snapshot's restored
  // state, so it must be rejected loudly.
  const auto cfg = SmallConfig(ssd::FtlKind::kConventional,
                               ftl::GcRouting::kInline);
  ssd::Ssd source(cfg);
  const campaign::DeviceState state = source.Snapshot(0);
  ssd::Ssd target(cfg);
  target.Restore(state);
  EXPECT_THROW(target.target().ArmErrorModel(nand::ErrorModelConfig{}),
               std::logic_error);
}

TEST(CampaignSnapshot, ContinuationWithFaultsArmedAfterRestore) {
  // The fault-campaign protocol: prefill fault-free, snapshot, restore,
  // THEN arm the per-arm fault plan.  Continuation equivalence must hold
  // with the error model sampling and the injector drawing throughout the
  // burst (both round-trip through the snapshot).
  auto cfg = SmallConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kInline);
  cfg.model_read_errors = true;
  cfg.error_model.base_rber = 1e-3;  // skew-8 bottom layers enter the ladder
  nand::FaultPlanConfig plan;
  plan.program_fail_prob = 0.002;
  plan.erase_fail_prob = 0.001;
  plan.read_disturb_per_read = 1e-4;

  ssd::Ssd a(cfg);
  ssd::ExperimentRunner prefill_a(a);
  const Us end_a = prefill_a.Prefill(a.LogicalBytes() / 100 * 85);
  a.target().ArmFaults(plan, ftl::FaultHandlingConfig{}, 77);
  RunBurst(a, end_a, {});
  const auto final_a = a.Snapshot(0).Serialize();

  ssd::Ssd b0(cfg);
  ssd::ExperimentRunner prefill_b(b0);
  const Us end_b = prefill_b.Prefill(b0.LogicalBytes() / 100 * 85);
  ASSERT_EQ(end_a, end_b);
  const campaign::DeviceState mid = b0.Snapshot(end_b);

  ssd::Ssd b(cfg);
  b.Restore(mid);
  b.target().ArmFaults(plan, ftl::FaultHandlingConfig{}, 77);
  RunBurst(b, static_cast<Us>(mid.clock_us), {});
  EXPECT_EQ(final_a, b.Snapshot(0).Serialize())
      << "fault-armed continuation after restore diverged";
}

TEST(CampaignSnapshot, DistinctFtlKindsGetDistinctKeys) {
  EXPECT_NE(campaign::SnapshotShapeKey(SmallConfig(ssd::FtlKind::kConventional,
                                                   ftl::GcRouting::kInline)),
            campaign::SnapshotShapeKey(
                SmallConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kInline)));
}

}  // namespace
}  // namespace ctflash
