// Campaign runner tests: determinism across worker counts and prefill
// sharing modes, failed-arm capture, the open-loop workloads' `limit` and
// `time_scale` keys, and report/CSV shape.  These use tiny
// devices and short workloads — the full-scale equivalents live in
// bench_campaign.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/runner.h"
#include "campaign/spec.h"

namespace ctflash::campaign {
namespace {

constexpr const char* kSmallGrid = R"({
  "campaign": "unit",
  "defaults": {
    "device_bytes": "32MiB",
    "prefill_pct": 80,
    "seed": 11,
    "workload": {"kind": "closed_loop", "requests": 400,
                  "read_fraction": 0.5, "queue_depth": 4}
  },
  "grid": {
    "ftl": ["conventional", "ppb"],
    "gc_routing": ["inline", "scheduled"]
  }
})";

TEST(CampaignRunner, DeterministicAcrossWorkerCounts) {
  CampaignRunner runner(CampaignSpec::Parse(kSmallGrid));
  const CampaignResult serial = runner.Run(1);
  const CampaignResult parallel = runner.Run(2);
  ASSERT_EQ(serial.arms.size(), 4u);
  for (const auto& arm : serial.arms) {
    EXPECT_TRUE(arm.ok) << arm.name << ": " << arm.error;
  }
  EXPECT_EQ(serial.DeterministicJson().Dump(2),
            parallel.DeterministicJson().Dump(2));
}

TEST(CampaignRunner, SharedPrefillMatchesStraightThrough) {
  const CampaignSpec shared = CampaignSpec::Parse(kSmallGrid);
  CampaignSpec straight = shared;
  straight.share_prefill = false;

  const CampaignResult with = CampaignRunner(shared).Run(1);
  const CampaignResult without = CampaignRunner(straight).Run(1);
  EXPECT_EQ(with.DeterministicJson().Dump(2),
            without.DeterministicJson().Dump(2));

  // Sharing collapses four arms onto two prefills (one per FTL kind; the
  // shape key excludes gc_routing).
  EXPECT_EQ(with.prefill_groups, 2u);
  EXPECT_EQ(with.prefill_restores, 4u);
  EXPECT_EQ(without.prefill_groups, 0u);
  EXPECT_EQ(without.prefill_restores, 0u);
  // One worker runs every arm on the calling thread, one at a time.
  EXPECT_EQ(with.arm_threads, 1u);
  EXPECT_EQ(with.peak_arms_in_flight, 1u);
}

TEST(CampaignRunner, FailedArmIsCapturedNotFatal) {
  CampaignRunner runner(CampaignSpec::Parse(R"({
    "defaults": {
      "device_bytes": "32MiB",
      "workload": {"kind": "closed_loop", "requests": 100}
    },
    "arms": [
      {"name": "good"},
      {"name": "bad", "workload": {"kind": "trace", "path": "/nonexistent.csv"}}
    ]
  })"));
  const CampaignResult result = runner.Run(1);
  ASSERT_EQ(result.arms.size(), 2u);
  EXPECT_TRUE(result.arms[0].ok) << result.arms[0].error;
  EXPECT_FALSE(result.arms[1].ok);
  EXPECT_FALSE(result.arms[1].error.empty());
}

TEST(CampaignRunner, UnknownWorkloadKindIsPerArmError) {
  CampaignRunner runner(CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "32MiB", "workload": {"kind": "nope"}}
  })"));
  const CampaignResult result = runner.Run(1);
  ASSERT_EQ(result.arms.size(), 1u);
  EXPECT_FALSE(result.arms[0].ok);
  EXPECT_NE(result.arms[0].error.find("unknown workload kind"),
            std::string::npos)
      << result.arms[0].error;
}

TEST(CampaignRunner, TraceArmHonorsLimit) {
  // The trace kind streams the CSV through the replay engine; `limit` caps
  // the records replayed.
  const std::string spec =
      std::string(R"({"defaults": {"device_bytes": "32MiB",
        "workload": {"kind": "trace", "limit": 50, "path": ")") +
      CTFLASH_TEST_DATA_DIR + "/sample_msr.csv\"}}}";
  const CampaignResult result =
      CampaignRunner(CampaignSpec::Parse(spec)).Run(1);
  ASSERT_EQ(result.arms.size(), 1u);
  ASSERT_TRUE(result.arms[0].ok) << result.arms[0].error;
  EXPECT_EQ(result.arms[0].metrics.Get("requests")->AsUint(), 50u);
}

TEST(CampaignRunner, NonFiniteTimeScaleFailsTheArm) {
  // 1e999 parses as inf, which would warp every arrival to t = 0.
  for (const char* time_scale : {"1e999", "0", "-1"}) {
    const std::string spec =
        std::string(R"({"defaults": {"device_bytes": "32MiB",
          "workload": {"kind": "synthetic", "time_scale": )") +
        time_scale + "}}}";
    const CampaignResult result =
        CampaignRunner(CampaignSpec::Parse(spec)).Run(1);
    ASSERT_EQ(result.arms.size(), 1u);
    EXPECT_FALSE(result.arms[0].ok) << time_scale;
    EXPECT_NE(result.arms[0].error.find("time_scale must be finite and > 0"),
              std::string::npos)
        << time_scale << ": " << result.arms[0].error;
  }
}

TEST(CampaignRunner, UnrepresentableTimeScaleFailsTheArm) {
  // A finite time_scale can still warp arrivals past the simulated clock:
  // 1e300 is acceleration 1e-300, and any nonzero timestamp overflows.
  const std::string spec = R"({"defaults": {"device_bytes": "32MiB",
      "workload": {"kind": "synthetic", "requests": 200,
                   "time_scale": 1e300}}})";
  const CampaignResult result =
      CampaignRunner(CampaignSpec::Parse(spec)).Run(1);
  ASSERT_EQ(result.arms.size(), 1u);
  EXPECT_FALSE(result.arms[0].ok);
  EXPECT_NE(result.arms[0].error.find("does not fit the simulated clock"),
            std::string::npos)
      << result.arms[0].error;
  EXPECT_NE(result.arms[0].error.find("source0"), std::string::npos)
      << result.arms[0].error;
}

TEST(CampaignRunner, ReportAndCsvShape) {
  CampaignRunner runner(CampaignSpec::Parse(kSmallGrid));
  const CampaignResult result = runner.Run(2);

  const Json report = result.Report();
  ASSERT_NE(report.Get("timing"), nullptr);
  EXPECT_NE(report.Get("timing")->Get("total_wall_ms"), nullptr);
  EXPECT_EQ(report.Get("timing")->Get("workers")->AsUint(), 2u);
  // How many of the two workers got an arm depends on thread scheduling.
  const std::uint64_t threads =
      report.Get("timing")->Get("arm_threads")->AsUint();
  const std::uint64_t peak =
      report.Get("timing")->Get("peak_arms_in_flight")->AsUint();
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 2u);
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, threads);
  ASSERT_NE(report.Get("arms"), nullptr);
  EXPECT_EQ(report.Get("arms")->AsArray().size(), 4u);

  // CSV: header + one data row per arm, all with the header's column count.
  // Arm names are quoted (they contain commas), so count separators after
  // the closing quote.
  std::istringstream csv(result.Csv());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  const auto columns = std::count(line.begin(), line.end(), ',');
  EXPECT_EQ(line.rfind("arm,", 0), 0u) << line;
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    ASSERT_EQ(line.front(), '"') << line;
    const std::size_t name_end = line.find('"', 1);
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_EQ(std::count(line.begin() + static_cast<std::ptrdiff_t>(name_end),
                         line.end(), ','),
              columns)
        << line;
    ++rows;
  }
  EXPECT_EQ(rows, 4u);
}

TEST(CampaignCsv, FieldEncodingFollowsRfc4180) {
  EXPECT_EQ(CsvField("plain"), "plain");
  EXPECT_EQ(CsvField(""), "");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvField("cr\rhere"), "\"cr\rhere\"");
}

// Regression: an arm name containing quotes, commas, AND a newline must
// come out as one valid RFC 4180 field, not a row that sheds columns.
TEST(CampaignCsv, HostileArmNameStaysOneField) {
  CampaignRunner runner(CampaignSpec::Parse(R"({
    "defaults": {
      "device_bytes": "32MiB",
      "prefill_pct": 50,
      "workload": {"kind": "closed_loop", "requests": 50}
    },
    "arms": [{"name": "evil\"arm\",\nname"}]
  })"));
  const CampaignResult result = runner.Run(1);
  ASSERT_EQ(result.arms.size(), 1u);
  EXPECT_TRUE(result.arms[0].ok) << result.arms[0].error;
  const std::string csv = result.Csv();
  // The name is quoted, embedded quotes doubled, newline kept verbatim.
  EXPECT_NE(csv.find("\"evil\"\"arm\"\",\nname\","), std::string::npos)
      << csv;
}

}  // namespace
}  // namespace ctflash::campaign
