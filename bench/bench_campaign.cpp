// Campaign runner bench: snapshot-shared prefill + multi-worker sharding.
//
// Builds a 16-arm grid (2 FTLs x 2 GC routings x 2 queue depths x 2 read
// mixes) over one small device shape and SELF-ASSERTS the campaign
// subsystem's two core claims:
//
//   1. Correctness — snapshot-restored arms are bit-identical to
//      straight-through arms (each prefilling its own device), and the
//      deterministic campaign report is byte-identical for any worker
//      count.
//   2. Parallelism — sharding arms over W workers (default
//      min(4, hw_concurrency)) really runs them side by side: every one of
//      the W worker threads runs at least one arm, and at least two arms
//      are running at once (skipped when the machine exposes a single
//      core).  The wall-clock speedup of W workers over 1 is printed and
//      reported but not gated: over a grid of ~10 ms, a shared machine's
//      load moves it more than sharding does.
//
// Options:
//   --workers <n>   worker count for the parallel run (default
//                   min(4, hw_concurrency))
//   --device <sz>   device bytes per arm            (default 96 MiB)
//   --requests <n>  closed-loop requests per arm    (default 4000)
//   --quick         1/4-length arms for smoke runs
//   --json <path>   result file (default BENCH_campaign.json)
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "util/config.h"

namespace {

using ctflash::campaign::ArmResult;
using ctflash::campaign::CampaignResult;
using ctflash::campaign::CampaignRunner;
using ctflash::campaign::CampaignSpec;
using ctflash::campaign::Json;

struct Options {
  std::uint32_t workers = 0;  // 0 = min(4, hw_concurrency)
  std::uint64_t device_bytes = 96ull << 20;
  std::uint64_t requests = 4'000;
  std::string json_path = "BENCH_campaign.json";
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workers") {
      o.workers = static_cast<std::uint32_t>(std::stoul(next()));
      if (o.workers == 0) throw std::invalid_argument("--workers must be >= 1");
    } else if (arg == "--device") {
      o.device_bytes = ctflash::util::ParseByteSize(next());
    } else if (arg == "--requests") {
      o.requests = std::stoull(next());
    } else if (arg == "--quick") {
      o.requests /= 4;
    } else if (arg == "--json") {
      o.json_path = next();
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

std::string SpecText(const Options& o) {
  Json spec;
  spec["campaign"] = "bench-campaign-grid";
  spec["workers"] = std::uint64_t{1};
  Json defaults;
  defaults["device_bytes"] = o.device_bytes;
  defaults["prefill_pct"] = std::uint64_t{80};
  defaults["seed"] = std::uint64_t{7};
  Json workload;
  workload["kind"] = "closed_loop";
  workload["requests"] = o.requests;
  workload["queue_depth"] = std::uint64_t{8};
  workload["read_fraction"] = 0.5;
  defaults["workload"] = workload;
  spec["defaults"] = defaults;
  Json grid;
  grid["ftl"] = Json(ctflash::campaign::JsonArray{Json("conventional"),
                                                  Json("ppb")});
  grid["gc_routing"] = Json(ctflash::campaign::JsonArray{Json("inline"),
                                                         Json("scheduled")});
  grid["workload.queue_depth"] =
      Json(ctflash::campaign::JsonArray{Json(std::uint64_t{4}),
                                        Json(std::uint64_t{16})});
  grid["workload.read_fraction"] =
      Json(ctflash::campaign::JsonArray{Json(0.5), Json(0.9)});
  spec["grid"] = grid;
  return spec.Dump(2);
}

int Fail(const std::string& what) {
  std::cerr << "SELF-ASSERT FAILED: " << what << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t parallel_workers =
      options.workers != 0 ? options.workers : std::min(4u, hw);

  std::cout << "=== Campaign runner: snapshot sharing + arm sharding ===\n";
  const CampaignSpec spec = CampaignSpec::Parse(SpecText(options));
  std::cout << "Grid: " << spec.arms.size() << " arms, device "
            << (options.device_bytes >> 20) << " MiB, " << options.requests
            << " requests/arm; workers 1 vs " << parallel_workers
            << " (hw_concurrency " << hw << ")\n\n";
  if (spec.arms.size() < 16) {
    return Fail("grid expanded to fewer than 16 arms");
  }

  CampaignRunner runner(spec);

  // Serial and parallel runs of the same spec.
  CampaignResult serial = runner.Run(/*workers=*/1);
  CampaignResult parallel = runner.Run(parallel_workers);

  for (const ArmResult& arm : serial.arms) {
    if (!arm.ok) return Fail("arm \"" + arm.name + "\" failed: " + arm.error);
  }

  // Assert 1a: worker count must not change a single result byte.
  const std::string serial_bytes = serial.DeterministicJson().Dump(2);
  const std::string parallel_bytes = parallel.DeterministicJson().Dump(2);
  const bool workers_identical = serial_bytes == parallel_bytes;
  std::cout << "deterministic report, 1 vs " << parallel_workers
            << " workers: " << (workers_identical ? "IDENTICAL" : "DIFFER")
            << " (" << serial_bytes.size() << " bytes)\n";
  if (!workers_identical) {
    return Fail("worker count changed the deterministic report");
  }

  // Assert 1b: snapshot-restored arms == straight-through arms.  Spot-check
  // the four corners of the ftl x gc_routing sub-grid (arm 0 of each
  // 4-arm block in expansion order: ftl varies slowest, gc_routing next).
  const std::size_t block = spec.arms.size() / 4;
  std::size_t checked = 0;
  for (std::size_t corner = 0; corner < 4; ++corner) {
    const std::size_t i = corner * block;
    const ArmResult straight =
        ctflash::campaign::RunCampaignArm(spec.arms[i], /*shared=*/nullptr);
    if (!straight.ok) {
      return Fail("straight-through arm \"" + straight.name +
                  "\" failed: " + straight.error);
    }
    const std::string a = serial.arms[i].metrics.Dump(2);
    const std::string b = straight.metrics.Dump(2);
    std::cout << "arm " << i << " (" << spec.arms[i].name
              << "): snapshot-restored vs straight-through "
              << (a == b ? "IDENTICAL" : "DIFFER") << "\n";
    if (a != b) {
      return Fail("snapshot-restored metrics differ from straight-through "
                  "for arm \"" + spec.arms[i].name + "\"");
    }
    ++checked;
  }

  // Assert 2: the arms ran in parallel when real cores back the workers.
  const std::uint32_t effective = std::min(parallel_workers, hw);
  const std::uint64_t want_threads =
      std::min<std::uint64_t>(parallel_workers, spec.arms.size());
  std::cout << "\nparallel run: " << parallel.arm_threads << " of "
            << want_threads << " worker threads ran arms, at most "
            << parallel.peak_arms_in_flight << " arms at once ("
            << effective << " effective cores)\n";
  if (effective > 1) {
    if (parallel.arm_threads < want_threads) {
      return Fail("a worker thread ran no arm");
    }
    if (parallel.peak_arms_in_flight < 2) {
      return Fail("no two arms ever ran at once");
    }
  }
  const double speedup = parallel.total_wall_ms > 0.0
                             ? serial.total_wall_ms / parallel.total_wall_ms
                             : 1.0;
  std::cout << "wall clock (not gated): 1 worker " << serial.total_wall_ms
            << " ms, " << parallel_workers << " workers "
            << parallel.total_wall_ms << " ms -> speedup " << speedup
            << "x\n";
  std::cout << "prefill: " << parallel.prefill_groups << " shared prefills fed "
            << parallel.prefill_restores << " arms ("
            << parallel.prefill_wall_ms << " ms of "
            << parallel.total_wall_ms << " ms total)\n";

  Json report = parallel.Report();
  Json checks;
  checks["grid_arms"] = static_cast<std::uint64_t>(spec.arms.size());
  checks["workers_identical"] = workers_identical;
  checks["straight_through_checked"] = static_cast<std::uint64_t>(checked);
  checks["straight_through_identical"] = true;
  checks["serial_wall_ms"] = serial.total_wall_ms;
  checks["parallel_wall_ms"] = parallel.total_wall_ms;
  checks["parallel_workers"] = static_cast<std::uint64_t>(parallel_workers);
  checks["effective_cores"] = static_cast<std::uint64_t>(effective);
  checks["arm_threads"] = parallel.arm_threads;
  checks["peak_arms_in_flight"] = parallel.peak_arms_in_flight;
  checks["speedup"] = speedup;
  report["self_check"] = checks;
  std::ofstream out(options.json_path);
  out << report.Dump(2) << "\n";
  std::cout << "\nall self-asserts passed; wrote " << options.json_path
            << "\n";
  return 0;
}
