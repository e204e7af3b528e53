// Seed-parity lock-in for the write path.
//
// `write_frontiers = 1` must reproduce the pre-refactor single-active-block
// write path bit-for-bit: identical FtlStats/PpbStats, identical mapping
// state and identical replay timing on the synthetic trace mix.  The two
// default-config goldens were captured from the seed allocator before
// ftl::WriteAllocator existed; if they fail, a refactor silently changed
// the paper-figure benches.  The further rows pin the PPB ablation
// settings, foreground (charged) GC and seeded program/erase failures —
// each asserts that its run reached the branch it pins.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"

namespace ctflash {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV-1a
  }
  return h;
}

std::uint64_t Fold(std::uint64_t h, Us v) {
  return Fold(h, static_cast<std::uint64_t>(v));
}

std::uint64_t Fold(std::uint64_t h, double v) {
  return Fold(h, std::bit_cast<std::uint64_t>(v));
}

struct Fingerprint {
  std::uint64_t mapping = 0;
  std::uint64_t stats = 0;
  // Coverage: a golden only pins the branches its run reached.
  std::uint64_t gc_erases = 0;
  ftl::FaultStats faults;
  bool audit_ok = false;
};

/// One pinned configuration: the default paper-protocol device with one
/// setting changed, optionally with seeded media faults armed after
/// prefill.
struct Row {
  ssd::FtlKind kind = ssd::FtlKind::kConventional;
  void (*configure)(ssd::SsdConfig&) = nullptr;
  bool faults = false;
};

/// Prefill + web/media synthetic mix; folds the final mapping table and all
/// replay-visible counters/timings into two hashes.
Fingerprint RunScenario(const Row& row) {
  auto cfg = ssd::ScaledConfig(row.kind, 256ull << 20, 16 * 1024, 2.0);
  cfg.ftl.write_frontiers = 1;  // the compatibility setting under test
  // The GC-routing default must stay the seed-identical inline mode: the
  // priority-transaction refactor (sched::FlashTransaction, FtlBase GC
  // hooks) moved mapping/block ownership into FtlBase, and these goldens
  // prove the inline write+GC path still produces the exact seed states.
  cfg.ftl.gc_routing = ftl::GcRouting::kInline;
  static_assert(ftl::FtlConfig{}.gc_routing == ftl::GcRouting::kInline,
                "inline GC routing must remain the default");
  if (row.configure != nullptr) row.configure(cfg);
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner runner(ssd);
  runner.Prefill(ssd.LogicalBytes() / 100 * 80);
  if (row.faults) {
    // Program failures re-place pages (host and GC streams alike) and flag
    // their blocks; erase failures retire victims.  Rare enough that the
    // spare pool survives the run.
    nand::FaultPlanConfig plan;
    plan.program_fail_prob = 3e-4;
    plan.erase_fail_prob = 0.04;
    ssd.target().ArmFaults(plan, ftl::FaultHandlingConfig{}, 17);
  }

  const std::uint64_t footprint = ssd.LogicalBytes() / 100 * 85;
  const auto web =
      trace::SyntheticTraceGenerator(trace::WebServerWorkload(footprint, 30'000, 7))
          .Generate();
  const auto media =
      trace::SyntheticTraceGenerator(trace::MediaServerWorkload(footprint, 10'000, 9))
          .Generate();
  const auto web_result = runner.Replay(web, "web");
  const auto media_result = runner.Replay(media, "media");

  Fingerprint fp;
  const std::uint64_t logical_pages =
      ssd.LogicalBytes() / cfg.geometry.page_size_bytes;
  for (Lpn lpn = 0; lpn < logical_pages; ++lpn) {
    const Ppn ppn = ssd.ftl().ProbePpn(lpn);
    if (ppn == kInvalidPpn) continue;
    fp.mapping = Fold(fp.mapping, lpn);
    fp.mapping = Fold(fp.mapping, ppn);
  }

  const auto& s = ssd.ftl().stats();
  std::uint64_t h = 0;
  h = Fold(h, s.host_read_pages);
  h = Fold(h, s.host_write_pages);
  h = Fold(h, s.gc_page_copies);
  h = Fold(h, s.gc_erases);
  h = Fold(h, s.gc_time_us);
  for (const auto& r : {web_result, media_result}) {
    h = Fold(h, r.read_latency.total_us());
    h = Fold(h, r.write_latency.total_us());
    h = Fold(h, r.erase_count);
    h = Fold(h, r.sim_end_us);
  }
  if (const auto* ppb = ssd.ppb()) {
    const auto& p = ppb->ppb_stats();
    h = Fold(h, p.hot_area_writes);
    h = Fold(h, p.cold_area_writes);
    h = Fold(h, p.iron_promotions);
    h = Fold(h, p.cold_demotions);
    h = Fold(h, p.diverted_writes);
    h = Fold(h, p.fast_class_writes);
    h = Fold(h, p.slow_class_writes);
    h = Fold(h, p.gc_migrations);
    h = Fold(h, p.fast_reads);
    h = Fold(h, p.slow_reads);
  }
  const auto& f = ssd.ftl().fault_stats();
  if (row.faults) {
    h = Fold(h, f.program_failures);
    h = Fold(h, f.erase_failures);
    h = Fold(h, f.host_unreadable_pages);
    h = Fold(h, f.gc_lost_pages);
    h = Fold(h, ssd.ftl().blocks().RetiredCount());
  }
  fp.stats = h;
  fp.gc_erases = s.gc_erases;
  fp.faults = f;
  fp.audit_ok = ssd.ftl().CheckInvariants();
  return fp;
}

void ExpectGolden(const Row& row, std::uint64_t mapping, std::uint64_t stats) {
  const auto fp = RunScenario(row);
  EXPECT_GT(fp.gc_erases, 0u) << "the run must reach GC relocation";
  EXPECT_TRUE(fp.audit_ok) << "mapping and block accounting must agree";
  if (row.faults) {
    EXPECT_GT(fp.faults.program_failures, 0u)
        << "the run must reach the program-retry path";
    EXPECT_GT(fp.faults.erase_failures, 0u)
        << "the run must retire a victim whose erase failed";
  }
  EXPECT_EQ(fp.mapping, mapping)
      << "mapping fingerprint: 0x" << std::hex << fp.mapping;
  EXPECT_EQ(fp.stats, stats) << "stats fingerprint: 0x" << std::hex << fp.stats;
}

// Golden fingerprints captured from the seed (pre-WriteAllocator) write path.
constexpr std::uint64_t kConventionalMapping = 0x9118797829d2bed6ull;
constexpr std::uint64_t kConventionalStats = 0xdf2899795dc0840full;
constexpr std::uint64_t kPpbMapping = 0x360e946e7e6b6116ull;
constexpr std::uint64_t kPpbStats = 0xbf2a5b27e65f57feull;

TEST(WriteFrontierParity, ConventionalMatchesSeed) {
  ExpectGolden({ssd::FtlKind::kConventional}, kConventionalMapping,
               kConventionalStats);
}

TEST(WriteFrontierParity, PpbMatchesSeed) {
  ExpectGolden({ssd::FtlKind::kPpb}, kPpbMapping, kPpbStats);
}

// The rows below pin the branches of the shared page path that the two
// default rows never take.  Their goldens were captured before the read,
// write, GC-copy and program-retry loops moved into ftl::FtlBase, from the
// per-variant loops they replaced.

// PPB under each bench_ablation_design setting: GC placement from the
// source class, update placement without the LRU tier, strict Algorithm-1
// pairing, and four virtual blocks per physical block.
TEST(WriteFrontierParity, PpbWithoutGcMigrationMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kPpb,
                [](ssd::SsdConfig& c) { c.ppb.migrate_on_gc = false; }},
               0xfbd5b146f2657dc9ull, 0xdb3c584305de6aedull);
}

TEST(WriteFrontierParity, PpbWithoutUpdateMigrationMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kPpb,
                [](ssd::SsdConfig& c) { c.ppb.migrate_on_update = false; }},
               0x82d0ea8569e54a9aull, 0x0806535c16d62ed3ull);
}

TEST(WriteFrontierParity, PpbStrictPairingMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kPpb,
                [](ssd::SsdConfig& c) { c.ppb.max_open_fast_vbs = 0; }},
               0x4a7f040db44fd6e1ull, 0x201f9c2a2c6a6f36ull);
}

TEST(WriteFrontierParity, PpbSplitFourMatchesGolden) {
  ExpectGolden(
      {ssd::FtlKind::kPpb, [](ssd::SsdConfig& c) { c.ppb.vb_split = 4; }},
      0xd5ef7f2c9fd6191bull, 0x2ce9157b9d01a566ull);
}

// Foreground GC: each write starts after the GC it triggered.  Charging
// moves timing only, so the mappings are the default rows'.
TEST(WriteFrontierParity, ConventionalChargedGcMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kConventional,
                [](ssd::SsdConfig& c) { c.ftl.charge_gc_to_write = true; }},
               kConventionalMapping, 0x9808e2a9b9563e0dull);
}

TEST(WriteFrontierParity, PpbChargedGcMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kPpb,
                [](ssd::SsdConfig& c) { c.ftl.charge_gc_to_write = true; }},
               kPpbMapping, 0xd8a5d97bccb76685ull);
}

// Seeded program and erase failures: program retry on the host and GC
// streams, retirement of flagged and failed victims.
TEST(WriteFrontierParity, ConventionalWithMediaFaultsMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kConventional, nullptr, /*faults=*/true},
               0x17b741e9f7d62564ull, 0x151916ec7ca5f22cull);
}

TEST(WriteFrontierParity, PpbWithMediaFaultsMatchesGolden) {
  ExpectGolden({ssd::FtlKind::kPpb, nullptr, /*faults=*/true},
               0x16792e54c7d33880ull, 0x5519ee4dd484a25full);
}

}  // namespace
}  // namespace ctflash
