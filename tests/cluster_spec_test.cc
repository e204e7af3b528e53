// ClusterSpec parsing: defaults, the campaign-style device template, QoS
// tenant synthesis, fault schedules, and validation errors.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/spec.h"

namespace ctflash::cluster {
namespace {

TEST(ClusterSpec, DefaultsAreSane) {
  const ClusterSpec spec = ClusterSpec::Parse(R"({})");
  EXPECT_EQ(spec.name, "cluster");
  EXPECT_EQ(spec.router.num_devices, 8u);
  EXPECT_EQ(spec.router.spare_devices, 0u);
  EXPECT_EQ(spec.router.num_shards, 256u);
  EXPECT_EQ(spec.router.replicas, 2u);
  EXPECT_EQ(spec.router.seed, spec.seed);
  EXPECT_EQ(spec.user_count, 1'000'000u);
  EXPECT_EQ(spec.policy, RebalancePolicy::kOnFailure);
  // The synthesized QoS table: users on all but the last queue, rebuild on
  // the last, weights 8:1.
  ASSERT_EQ(spec.device.host.qos.tenants.size(), 2u);
  EXPECT_EQ(spec.device.host.qos.tenants[0].name, "users");
  EXPECT_EQ(spec.device.host.qos.tenants[0].weight, 8u);
  EXPECT_EQ(spec.device.host.qos.tenants[1].name, "rebuild");
  EXPECT_EQ(spec.device.host.qos.tenants[1].weight, 1u);
  EXPECT_EQ(spec.device.host.qos.tenants[1].queues.size(), 1u);
  EXPECT_EQ(spec.device.host.qos.tenants[1].queues[0],
            spec.device.host.num_queues - 1);
}

TEST(ClusterSpec, ParsesFullSpec) {
  const ClusterSpec spec = ClusterSpec::Parse(R"({
    "cluster": "loss-drill",
    "workers": 4,
    "seed": 7,
    "fleet": {"devices": 4, "spares": 2},
    "router": {"shards": 64, "replicas": 3, "vnodes": 16, "seed": 99},
    "device": {"device_bytes": "32MiB", "ftl": "ppb", "prefill_pct": 70},
    "users": {"count": 5000, "zipf_theta": 1.1},
    "workload": {"rate_iops": 12000, "read_fraction": 0.8,
                 "request_bytes": "32KiB", "epochs": 4, "epoch_us": 100000,
                 "timeout_us": 500000},
    "qos": {"user_weight": 6, "rebuild_weight": 2},
    "rebalance": {"policy": "none", "fail_on_lost_pages": 5,
                  "migration_chunk": "128KiB", "shard_bytes": "512KiB",
                  "rebuild_epochs": 3, "rebuild_bytes_per_sec": 4194304},
    "faults": [{"device": 1, "kind": "die", "at_us": 2000},
               {"device": 3, "kind": "device", "at_us": 4000}]
  })");
  EXPECT_EQ(spec.name, "loss-drill");
  EXPECT_EQ(spec.workers, 4u);
  EXPECT_EQ(spec.router.num_devices, 4u);
  EXPECT_EQ(spec.router.spare_devices, 2u);
  EXPECT_EQ(spec.router.num_shards, 64u);
  EXPECT_EQ(spec.router.replicas, 3u);
  EXPECT_EQ(spec.router.seed, 99u);
  EXPECT_EQ(spec.device.prefill_pct, 70u);
  EXPECT_EQ(spec.user_count, 5000u);
  EXPECT_DOUBLE_EQ(spec.zipf_theta, 1.1);
  EXPECT_DOUBLE_EQ(spec.rate_iops, 12000.0);
  EXPECT_EQ(spec.request_bytes, 32u * 1024);
  EXPECT_EQ(spec.epochs, 4u);
  EXPECT_EQ(spec.epoch_us, 100'000);
  EXPECT_EQ(spec.timeout_us, 500'000);
  EXPECT_EQ(spec.policy, RebalancePolicy::kNone);
  EXPECT_EQ(spec.fail_on_lost_pages, 5u);
  EXPECT_EQ(spec.migration_chunk_bytes, 128u * 1024);
  EXPECT_EQ(spec.shard_bytes, 512u * 1024);
  EXPECT_EQ(spec.rebuild_epochs, 3u);
  EXPECT_DOUBLE_EQ(spec.rebuild_bytes_per_sec, 4194304.0);
  // The admission cap lands on the rebuild tenant's token bucket.
  EXPECT_DOUBLE_EQ(spec.device.host.qos.tenants[1].bytes_per_sec_limit,
                   4194304.0);
  EXPECT_EQ(spec.device.host.qos.tenants[0].weight, 6u);
  EXPECT_EQ(spec.device.host.qos.tenants[1].weight, 2u);
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0].device, 1u);
  EXPECT_EQ(spec.faults[0].kind, "die");
  EXPECT_EQ(spec.faults[1].at_us, 4000);
}

TEST(ClusterSpec, FaultPlansTargetTheRightHardware) {
  const ClusterSpec spec = ClusterSpec::Parse(R"({
    "fleet": {"devices": 4},
    "device": {"device_bytes": "32MiB"},
    "faults": [{"device": 1, "kind": "die", "at_us": 2000},
               {"device": 2, "kind": "channel", "at_us": 3000},
               {"device": 3, "kind": "device", "at_us": 4000}]
  })");
  const Us start = 1'000'000;
  const nand::FaultPlanConfig clean = spec.FaultPlanFor(0, start);
  EXPECT_TRUE(clean.fail_dies.empty());
  EXPECT_TRUE(clean.fail_channels.empty());

  const nand::FaultPlanConfig die = spec.FaultPlanFor(1, start);
  ASSERT_EQ(die.fail_dies.size(), 1u);
  EXPECT_EQ(die.fail_at_us, start + 2000);

  const nand::FaultPlanConfig chan = spec.FaultPlanFor(2, start);
  ASSERT_EQ(chan.fail_channels.size(), 1u);

  // "device" darkens every channel of the template geometry.
  const nand::FaultPlanConfig dead = spec.FaultPlanFor(3, start);
  EXPECT_EQ(dead.fail_channels.size(),
            spec.device.device.geometry.channels);
  EXPECT_EQ(dead.fail_at_us, start + 4000);
}

TEST(ClusterSpec, ParsesObservedPolicyMonitorsAndWearFaults) {
  const ClusterSpec spec = ClusterSpec::Parse(R"({
    "fleet": {"devices": 4},
    "device": {"device_bytes": "32MiB"},
    "rebalance": {"policy": "on_observed",
                  "health": {"ewma_alpha": 0.6, "degraded_frac": 0.4,
                             "spare_fail_frac": 0.3,
                             "program_fail_rate": 0.025,
                             "retry_fail_rate": 0.9,
                             "gc_stall_fail_share": 0.95},
                  "slo": {"read_p99_target_us": 900000, "quantile": 0.95,
                          "min_samples": 32, "burn_windows": 3,
                          "burn_threshold": 0.67}},
    "faults": [{"device": 1, "kind": "wear", "at_us": 0,
                "erase_fail_prob": 0.15, "program_fail_prob": 0.02}]
  })");
  EXPECT_EQ(spec.policy, RebalancePolicy::kOnObserved);
  // The health monitor's GC signal reads the tracer, so on_observed
  // forces phase tracing on even when "observability" is absent.
  EXPECT_TRUE(spec.trace_phases);
  EXPECT_DOUBLE_EQ(spec.health.ewma_alpha, 0.6);
  EXPECT_DOUBLE_EQ(spec.health.degraded_frac, 0.4);
  EXPECT_DOUBLE_EQ(spec.health.spare_fail_frac, 0.3);
  EXPECT_DOUBLE_EQ(spec.health.program_fail_rate, 0.025);
  EXPECT_DOUBLE_EQ(spec.health.retry_fail_rate, 0.9);
  EXPECT_DOUBLE_EQ(spec.health.gc_stall_fail_share, 0.95);
  EXPECT_EQ(spec.slo.target_us, 900'000);
  EXPECT_DOUBLE_EQ(spec.slo.quantile, 0.95);
  EXPECT_EQ(spec.slo.min_samples, 32u);
  EXPECT_EQ(spec.slo.burn_windows, 3u);
  EXPECT_DOUBLE_EQ(spec.slo.burn_threshold, 0.67);

  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].kind, "wear");
  EXPECT_DOUBLE_EQ(spec.faults[0].erase_fail_prob, 0.15);
  EXPECT_DOUBLE_EQ(spec.faults[0].program_fail_prob, 0.02);
  // A wear ramp arms verify-fail probabilities, not hard loss.
  const nand::FaultPlanConfig plan = spec.FaultPlanFor(1, 0);
  EXPECT_TRUE(plan.fail_dies.empty());
  EXPECT_TRUE(plan.fail_channels.empty());
  EXPECT_DOUBLE_EQ(plan.erase_fail_prob, 0.15);
  EXPECT_DOUBLE_EQ(plan.program_fail_prob, 0.02);

  EXPECT_EQ(spec.ConfigSummary().GetStringOr("policy", ""), "on_observed");
}

TEST(ClusterSpec, DeviceTemplateAcceptsPagesPerBlock) {
  // Wear scenarios shrink the block so retirement moves the needle on a
  // scaled device; the knob must reshape the template geometry and keep
  // the layer map legal (layers <= pages per block).
  const ClusterSpec spec = ClusterSpec::Parse(R"({
    "fleet": {"devices": 2},
    "device": {"device_bytes": "32MiB", "pages_per_block": 32}
  })");
  EXPECT_EQ(spec.device.device.geometry.pages_per_block, 32u);
  EXPECT_LE(spec.device.device.geometry.num_layers, 32u);
}

TEST(ClusterSpec, RejectsBadSpecs) {
  EXPECT_THROW(ClusterSpec::Parse(R"({"workers": 0})"), std::runtime_error);
  EXPECT_THROW(ClusterSpec::Parse(R"({"rebalance": {"policy": "maybe"}})"),
               std::runtime_error);
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"workload": {"read_fraction": 1.5}})"),
      std::runtime_error);
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"faults": [{"device": 99, "kind": "die"}]})"),
      std::runtime_error);
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"faults": [{"device": 0, "kind": "gremlin"}]})"),
      std::runtime_error);
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"fleet": {"devices": 2},
                             "router": {"replicas": 3}})"),
      std::invalid_argument);
  // Rebuild needs its own queue.
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"device": {"host": {"num_queues": 1}}})"),
      std::runtime_error);
  EXPECT_THROW(
      ClusterSpec::Parse(
          R"({"rebalance": {"rebuild_bytes_per_sec": -1.0}})"),
      std::runtime_error);
  // A wear fault with every ramp knob at its no-op value does nothing.
  EXPECT_THROW(
      ClusterSpec::Parse(R"({"faults": [{"device": 0, "kind": "wear"}]})"),
      std::runtime_error);
  // Monitor knobs are validated at parse time, not first observation.
  EXPECT_THROW(ClusterSpec::Parse(
                   R"({"rebalance": {"policy": "on_observed",
                                     "health": {"program_fail_rate": 2.0}}})"),
               std::runtime_error);
  EXPECT_THROW(ClusterSpec::Parse(
                   R"({"rebalance": {"policy": "on_observed",
                                     "slo": {"read_p99_target_us": 1000,
                                             "burn_windows": 0}}})"),
               std::runtime_error);
}

TEST(ClusterSpec, RejectsValuesThatDoNotFitTheir32BitField) {
  // Parse only: an unchecked cast used to run this spec with 4 workers.
  try {
    (void)ClusterSpec::Parse(R"({"workers": 4294967300})");
    FAIL() << "workers 4294967300 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("workers"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ClusterSpec::Parse(R"({"fleet": {"devices": 4294967298}})"),
               std::invalid_argument);
  // The user sampler indexes 32-bit ranks; 2^32 users would otherwise
  // reach an 8-byte-per-user table.
  EXPECT_THROW(ClusterSpec::Parse(R"({"users": {"count": 4294967296}})"),
               std::invalid_argument);
}

TEST(ClusterSpec, ConfigSummaryEchoesTheScenario) {
  const ClusterSpec spec = ClusterSpec::Parse(R"({
    "cluster": "echo",
    "fleet": {"devices": 3, "spares": 1},
    "device": {"device_bytes": "32MiB"},
    "faults": [{"device": 2, "kind": "channel", "at_us": 1000}]
  })");
  const Json summary = spec.ConfigSummary();
  EXPECT_EQ(summary.GetStringOr("cluster", ""), "echo");
  EXPECT_EQ(summary.GetUintOr("devices", 0), 3u);
  EXPECT_EQ(summary.GetUintOr("spares", 0), 1u);
  EXPECT_EQ(summary.GetStringOr("policy", ""), "on_failure");
  ASSERT_NE(summary.Get("faults"), nullptr);
  EXPECT_EQ(summary.Get("faults")->AsArray().size(), 1u);
  // The echo is deterministic (sorted keys, stable numbers).
  EXPECT_EQ(summary.Dump(), spec.ConfigSummary().Dump());
}

TEST(ClusterSpec, ConfigSummaryEchoesEveryHealthThreshold) {
  // The program-verify threshold is what triggers the on_observed drain
  // on a wear ramp, so two specs differing only there must echo apart.
  const auto observed = [](const char* program_fail_rate) {
    return ClusterSpec::Parse(
        std::string(R"({"rebalance": {"policy": "on_observed",
                                      "health": {"program_fail_rate": )") +
        program_fail_rate + "}}}");
  };
  const Json a = observed("0.025").ConfigSummary();
  const Json b = observed("0.05").ConfigSummary();
  EXPECT_NE(a.Dump(), b.Dump());
  ASSERT_NE(a.Get("health"), nullptr);
  EXPECT_DOUBLE_EQ(a.Get("health")->GetDoubleOr("program_fail_rate", 0.0),
                   0.025);
  EXPECT_EQ(a.Get("health")->AsObject().size(), 7u);
}

}  // namespace
}  // namespace ctflash::cluster
