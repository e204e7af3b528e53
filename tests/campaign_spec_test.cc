// Campaign JSON module + spec expansion tests.
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "campaign/json.h"
#include "campaign/spec.h"
#include "ssd/ssd.h"

namespace ctflash::campaign {
namespace {

// --- Json ------------------------------------------------------------------

TEST(CampaignJson, ParsesScalarsAndContainers) {
  const Json v = Json::Parse(
      R"({"a": 1, "b": -2.5, "c": "sA", "d": [true, false, null], "e": {}})");
  EXPECT_EQ(v.Get("a")->AsUint(), 1u);
  EXPECT_DOUBLE_EQ(v.Get("b")->AsDouble(), -2.5);
  EXPECT_EQ(v.Get("c")->AsString(), "sA");
  ASSERT_TRUE(v.Get("d")->IsArray());
  EXPECT_EQ(v.Get("d")->AsArray().size(), 3u);
  EXPECT_TRUE(v.Get("d")->AsArray()[2].IsNull());
  EXPECT_TRUE(v.Get("e")->IsObject());
}

TEST(CampaignJson, DumpIsDeterministicSortedKeys) {
  Json v;
  v["zebra"] = 1;
  v["alpha"] = 2;
  v["mid"] = Json(JsonArray{Json(1), Json(2)});
  EXPECT_EQ(v.Dump(), R"({"alpha":2,"mid":[1,2],"zebra":1})");
}

TEST(CampaignJson, NumbersRoundTripThroughDump) {
  // Integers up to 2^53 print as integers; doubles print round-trippably.
  Json v;
  v["big"] = std::uint64_t{9'007'199'254'740'991};  // 2^53 - 1
  v["frac"] = 0.1;
  v["neg"] = -17;
  const Json back = Json::Parse(v.Dump());
  EXPECT_EQ(back.Get("big")->AsUint(), 9'007'199'254'740'991u);
  EXPECT_DOUBLE_EQ(back.Get("frac")->AsDouble(), 0.1);
  EXPECT_EQ(back.Get("neg")->AsInt(), -17);
  EXPECT_EQ(Json::Parse(back.Dump()).Dump(), back.Dump());
}

TEST(CampaignJson, RejectsMalformedInputWithPosition) {
  try {
    Json::Parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  try {
    Json::Parse("{\"a\": }");
    FAIL() << "malformed value accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
  EXPECT_THROW(Json::Parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::Parse(""), std::runtime_error);
}

TEST(CampaignJson, IntegralAccessorsRejectNumbersOutsideInt64) {
  const auto error_of = [](const char* text) -> std::string {
    try {
      Json::Parse(text).AsInt();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_NE(error_of("1e19").find("found 1e+19"), std::string::npos);
  EXPECT_NE(error_of("1e999").find("found inf"), std::string::npos);
  EXPECT_NE(error_of("-1e999").find("found -inf"), std::string::npos);
  // INT64_MAX itself rounds up to 2^63 as a double.
  EXPECT_NE(error_of("9223372036854775807").find("int64 range"),
            std::string::npos);
  EXPECT_EQ(Json::Parse("-9223372036854775808").AsInt(), INT64_MIN);
  EXPECT_EQ(Json::Parse("9007199254740992").AsUint(), 9007199254740992u);
  EXPECT_THROW(Json::Parse("1e19").AsUint(), std::runtime_error);
}

TEST(CampaignJson, Uint32AccessorsRejectValuesAboveUint32Max) {
  const Json spec = Json::Parse(R"({"max": 4294967295, "over": 4294967296})");
  EXPECT_EQ(spec.GetUint32Or("max", 0), 4294967295u);
  EXPECT_EQ(spec.GetUint32Or("absent", 7), 7u);
  try {
    (void)spec.GetUint32Or("over", 0);
    FAIL() << "4294967296 was accepted as a 32-bit value";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"over\""), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967296"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)spec.Get("over")->AsUint32("over"),
               std::invalid_argument);
}

TEST(CampaignJson, MergePatchFollowsRfc7386) {
  const Json base = Json::Parse(R"({"a": {"x": 1, "y": 2}, "b": 3, "c": 4})");
  const Json patch = Json::Parse(R"({"a": {"y": 9}, "b": null, "d": 5})");
  const Json merged = MergePatch(base, patch);
  EXPECT_EQ(merged.Get("a")->Get("x")->AsUint(), 1u);  // untouched sibling
  EXPECT_EQ(merged.Get("a")->Get("y")->AsUint(), 9u);  // recursed override
  EXPECT_EQ(merged.Get("b"), nullptr);                 // null deletes
  EXPECT_EQ(merged.Get("c")->AsUint(), 4u);
  EXPECT_EQ(merged.Get("d")->AsUint(), 5u);
}

TEST(CampaignJson, SetJsonPathCreatesIntermediates) {
  Json root;
  SetJsonPath(root, "workload.queue_depth", Json(std::uint64_t{16}));
  SetJsonPath(root, "workload.read_fraction", Json(0.5));
  EXPECT_EQ(root.Get("workload")->Get("queue_depth")->AsUint(), 16u);
  EXPECT_DOUBLE_EQ(root.Get("workload")->Get("read_fraction")->AsDouble(), 0.5);
  EXPECT_THROW(SetJsonPath(root, "a..b", Json(1)), std::runtime_error);
}

// --- CampaignSpec ----------------------------------------------------------

constexpr const char* kBaseSpec = R"({
  "campaign": "test",
  "workers": 3,
  "defaults": {
    "device_bytes": "32MiB",
    "seed": 100,
    "workload": {"kind": "closed_loop", "requests": 50}
  },
  "grid": {
    "ftl": ["conventional", "ppb"],
    "workload.queue_depth": [2, 8]
  }
})";

TEST(CampaignSpec, ExpandsGridInSortedOdometerOrder) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.name, "test");
  EXPECT_EQ(spec.workers, 3u);
  ASSERT_EQ(spec.arms.size(), 4u);
  // Sorted grid keys: "ftl" varies slowest, "workload.queue_depth" fastest.
  EXPECT_EQ(spec.arms[0].name, "ftl=conventional,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[1].name, "ftl=conventional,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[2].name, "ftl=ppb,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[3].name, "ftl=ppb,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[0].device.kind, ssd::FtlKind::kConventional);
  EXPECT_EQ(spec.arms[2].device.kind, ssd::FtlKind::kPpb);
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            8u);
}

TEST(CampaignSpec, AutoSeedDecorrelatesArms) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.arms[0].seed, 100u);
  EXPECT_EQ(spec.arms[1].seed, 101u);
  EXPECT_EQ(spec.arms[3].seed, 103u);
}

TEST(CampaignSpec, ExplicitSeedOverridePinsArm) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"seed": 7, "workload": {"kind": "closed_loop"}},
    "grid": {"seed": [41, 42]}
  })");
  ASSERT_EQ(spec.arms.size(), 2u);
  EXPECT_EQ(spec.arms[0].seed, 41u);
  EXPECT_EQ(spec.arms[1].seed, 42u);
}

TEST(CampaignSpec, ExplicitArmsCrossWithGrid) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"workload": {"kind": "closed_loop"}},
    "grid": {"ftl": ["conventional", "ppb"]},
    "arms": [{"name": "base"}, {"name": "deep", "workload": {"queue_depth": 32}}]
  })");
  ASSERT_EQ(spec.arms.size(), 4u);
  EXPECT_EQ(spec.arms[0].name, "base:ftl=conventional");
  EXPECT_EQ(spec.arms[1].name, "deep:ftl=conventional");
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            32u);
  EXPECT_EQ(spec.arms[3].name, "deep:ftl=ppb");
}

TEST(CampaignSpec, RejectsBadFields) {
  EXPECT_THROW(CampaignSpec::Parse(R"({"workers": 0})"), std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"ftl": "nvm", "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"prefill_pct": 101, "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  // Workload object is mandatory per arm.
  EXPECT_THROW(CampaignSpec::Parse(R"({"defaults": {}})"), std::runtime_error);
  // Grid axes must be non-empty arrays.
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"workload": {"kind": "closed_loop"}}, "grid": {"ftl": []}})"),
      std::runtime_error);
}

TEST(CampaignSpec, ByteSizesAcceptStringsAndNumbers) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "64MiB", "page_size": 16384,
                  "workload": {"kind": "closed_loop"}}
  })");
  ASSERT_EQ(spec.arms.size(), 1u);
  EXPECT_EQ(spec.arms[0].merged.Get("device_bytes")->AsString(), "64MiB");
  EXPECT_EQ(spec.arms[0].device.geometry.page_size_bytes, 16384u);
}

TEST(CampaignSpec, ByteSizesRejectOverflowAndMalformedStrings) {
  EXPECT_THROW(ResolveDeviceSection(Json::Parse(R"({"page_size": "1.2.3K"})")),
               std::invalid_argument);
  try {
    ResolveDeviceSection(Json::Parse(R"({"device_bytes": "99999999999T"})"));
    FAIL() << "a device of 2^64 bytes or more was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("99999999999T"), std::string::npos)
        << e.what();
  }
  try {
    ResolveDeviceSection(Json::Parse(R"({"device_bytes": 1e19})"));
    FAIL() << "device_bytes 1e19 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1e+19"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpec, RejectsValuesThatDoNotFitTheir32BitField) {
  // Each used to be narrowed with an unchecked cast: 4294967300 ran as 4.
  const auto error_of = [](const char* text) -> std::string {
    try {
      ResolveDeviceSection(Json::Parse(text));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_NE(error_of(R"({"ppb": {"vb_split": 4294967300}})").find("vb_split"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"channels": 4294967300})").find("channels"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"page_size": 4294983680})").find("page_size"),
            std::string::npos);
  EXPECT_THROW(CampaignSpec::Parse(R"({"workers": 4294967300})"),
               std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::Parse(R"({"defaults": {"workload": {"kind": "synthetic"},
                                           "faults": {"fail_channels":
                                                      [4294967296]}}})"),
      std::invalid_argument);
}

TEST(CampaignSpec, DeviceSectionKeysReachSsdConfig) {
  const DeviceSectionSpec s = ResolveDeviceSection(Json::Parse(R"({
    "page_size": "8KiB", "speed_ratio": 3.5, "timing_mode": "service_time",
    "error_model": {},
    "ppb": {"vb_split": 4, "max_open_fast_vbs": 6,
            "migrate_on_update": false, "migrate_on_gc": false}
  })"));
  EXPECT_DOUBLE_EQ(s.device.timing.speed_ratio, 3.5);
  EXPECT_EQ(s.device.geometry.page_size_bytes, 8192u);
  EXPECT_EQ(s.device.timing_mode, ftl::TimingMode::kServiceTime);
  EXPECT_TRUE(s.device.model_read_errors);
  EXPECT_EQ(s.device.ppb.vb_split, 4u);
  EXPECT_EQ(s.device.ppb.max_open_fast_vbs, 6u);
  EXPECT_FALSE(s.device.ppb.migrate_on_update);
  EXPECT_FALSE(s.device.ppb.migrate_on_gc);

  // Absent keys take the reader's defaults.
  const DeviceSectionSpec d = ResolveDeviceSection(Json(JsonObject{}));
  EXPECT_DOUBLE_EQ(d.device.timing.speed_ratio, 2.0);
  EXPECT_EQ(d.device.geometry.page_size_bytes, 16384u);
  EXPECT_EQ(d.device.timing_mode, ftl::TimingMode::kQueued);
  EXPECT_FALSE(d.device.model_read_errors);
  EXPECT_EQ(d.device.ppb.vb_split, 2u);
  EXPECT_EQ(d.device.ppb.max_open_fast_vbs, 4u);
  EXPECT_TRUE(d.device.ppb.migrate_on_update);
  EXPECT_TRUE(d.device.ppb.migrate_on_gc);
}

}  // namespace
}  // namespace ctflash::campaign
