// Simulator-core throughput microbench.
//
// Two hot paths dominate campaign wall-clock: the discrete-event queue
// (every flash completion is one heap pop + callback) and the host pipeline
// (every page transaction is one scheduler pick + timeline booking + event).
// This bench drives both and SELF-ASSERTS conservative floors so a
// regression that slows the core by an order of magnitude fails CI rather
// than silently stretching every campaign:
//
//   1. event queue: chained schedule/fire pairs (pure engine overhead);
//   2. host pipeline, shallow: closed-loop random reads through the
//      multi-queue host interface at QD 32;
//   3. host pipeline, deep: the perfbench deep_queue device (4 channels,
//      scheduled GC, 8 write frontiers, 90 % prefill) at QD 512 over 8
//      queues with 70 % reads, so hundreds of transactions wait at every
//      scheduler pick;
//   4. the deep arm again with a phases-only obs::Tracer attached, so the
//      report carries what attribution costs when it is on
//      (traced_to_untraced_ns_ratio, banded by bench_check).
//
// The floors are ~20x below the Release-build rates measured on one
// 2025-era core, so slow CI runners and modest regressions pass while a
// complexity regression (accidental O(n^2), per-event allocation storm)
// fails.  The deep arm's ns per transaction over the shallow arm's is also
// asserted against a ceiling: both are timed in the same process, so the
// ratio holds across machines, and it is what a scheduler whose pick cost
// grows with ready depth would blow up (a linear scan of the ready set put
// it near 10).  Debug/sanitizer builds run 10-50x slower — keep this bench
// out of those legs (CI runs it in the Release smoke job only).
//
// Options:
//   --events <n>     chained events for the engine loop  (default 2M)
//   --requests <n>   closed-loop requests per arm        (default 60k)
//   --quick          1/10th sizes for smoke runs
//   --json <path>    result file (default BENCH_sim_throughput.json)
//   --no-assert      measure and report only (profiling runs)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "campaign/json.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace {

using ctflash::Us;
using ctflash::campaign::Json;

constexpr double kEventQueueFloorPerSec = 1e6;  // measured ~2e7
constexpr double kHostPipelineFloorPerSec = 2e4;  // measured ~8e5 txns/s
/// Ceiling on deep-arm ns/txn over shallow-arm ns/txn.
constexpr double kDepthRatioCeiling = 4.0;

struct Options {
  std::uint64_t events = 2'000'000;
  std::uint64_t requests = 60'000;
  bool assert_floors = true;
  std::string json_path = "BENCH_sim_throughput.json";
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
    if (arg == "--events") {
      o.events = std::stoull(next());
    } else if (arg == "--requests") {
      o.requests = std::stoull(next());
    } else if (arg == "--quick") {
      o.events /= 10;
      o.requests /= 10;
    } else if (arg == "--no-assert") {
      o.assert_floors = false;
    } else if (arg == "--json") {
      o.json_path = next();
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Chained schedule/fire: each event schedules its successor, so the heap
/// stays shallow and the measurement isolates per-event engine overhead
/// (push + pop + std::function dispatch), not heap depth.  The scheduled
/// closure holds only a pointer to the chain, which std::function keeps in
/// its small buffer: the row times the queue, not malloc.
struct EventChain {
  ctflash::sim::EventQueue queue;
  std::uint64_t events = 0;
  std::uint64_t fired = 0;

  void ScheduleNext() {
    queue.ScheduleAfter(1, [this](Us) {
      if (++fired < events) ScheduleNext();
    });
  }
};

double EventQueueRate(std::uint64_t events) {
  EventChain chain;
  chain.events = events;
  const auto start = std::chrono::steady_clock::now();
  chain.ScheduleNext();
  chain.queue.RunToCompletion();
  const double elapsed = SecondsSince(start);
  if (chain.fired != events) {
    throw std::logic_error("event chain terminated early");
  }
  return static_cast<double>(events) / elapsed;
}

struct PipelineRates {
  double requests_per_sec = 0.0;
  double txns_per_sec = 0.0;
  double ns_per_txn = 0.0;
  std::uint64_t txns = 0;
};

/// One closed-loop arm of the host pipeline.
struct PipelineArm {
  ctflash::ssd::SsdConfig device;
  ctflash::host::HostConfig host;
  std::uint64_t prefill_pct = 80;
  std::uint32_t queue_depth = 32;
  double read_fraction = 1.0;
  /// Attach a phases-only tracer (record_spans = false) for the run.
  bool traced = false;
};

/// Closed-loop random requests through the full host pipeline on a
/// queued-timing device: scheduler pick, resource booking, completion
/// events — the per-transaction cost campaigns pay.
PipelineRates HostPipelineRate(const PipelineArm& arm, std::uint64_t requests) {
  ctflash::ssd::Ssd ssd(arm.device);
  ctflash::ssd::ExperimentRunner prefiller(ssd);
  const std::uint64_t prefill_bytes =
      ssd.LogicalBytes() / 100 * arm.prefill_pct;
  const Us prefill_end = prefiller.Prefill(prefill_bytes);

  ctflash::obs::TracerConfig tracer_config;
  tracer_config.record_spans = false;
  ctflash::obs::Tracer tracer(tracer_config);  // outlives `host`
  ctflash::host::HostInterface host(ssd, arm.host);
  host.AdvanceTo(prefill_end);
  if (arm.traced) host.AttachTracer(&tracer);

  ctflash::host::TenantWorkload stream;
  stream.queue_depth = arm.queue_depth;
  stream.total_requests = requests;
  stream.read_fraction = arm.read_fraction;
  stream.footprint_bytes = prefill_bytes;
  stream.seed = 11;
  ctflash::host::LoadGenerator generator(host, {stream});
  const auto start = std::chrono::steady_clock::now();
  generator.Run();
  const double elapsed = SecondsSince(start);

  PipelineRates rates;
  rates.txns = host.TxnsDispatched();
  rates.requests_per_sec = static_cast<double>(requests) / elapsed;
  rates.txns_per_sec = static_cast<double>(rates.txns) / elapsed;
  rates.ns_per_txn = elapsed * 1e9 / static_cast<double>(rates.txns);
  return rates;
}

/// Fastest of three runs of `arm`: a run of a few milliseconds is easily
/// skewed by a cold cache or a clock change, and the depth ratio divides
/// two of them.
PipelineRates FastestPipelineRate(const PipelineArm& arm,
                                  std::uint64_t requests) {
  PipelineRates best = HostPipelineRate(arm, requests);
  for (int run = 1; run < 3; ++run) {
    const PipelineRates rates = HostPipelineRate(arm, requests);
    if (rates.ns_per_txn < best.ns_per_txn) best = rates;
  }
  return best;
}

/// QD 32 random reads on a small device: at most a few transactions wait
/// at any pick.
PipelineArm ShallowArm() {
  PipelineArm arm;
  arm.device = ctflash::ssd::ScaledConfig(
      ctflash::ssd::FtlKind::kConventional, 64ull << 20, 16 * 1024,
      /*speed_ratio=*/2.0);
  arm.device.timing_mode = ctflash::ftl::TimingMode::kQueued;
  return arm;
}

/// perfbench deep_queue's device and host shape at QD 512.
PipelineArm DeepArm() {
  constexpr std::uint32_t kWriteFrontiers = 8;
  constexpr std::uint32_t kQueues = 8;
  PipelineArm arm;
  auto& device = arm.device;
  device = ctflash::ssd::ScaledConfig(ctflash::ssd::FtlKind::kConventional,
                                      256ull << 20, 16 * 1024,
                                      /*speed_ratio=*/2.0);
  device.timing_mode = ctflash::ftl::TimingMode::kQueued;
  device.ftl.write_frontiers = kWriteFrontiers;
  device.ftl.gc_routing = ctflash::ftl::GcRouting::kScheduled;
  // Spares for the GC thresholds plus one frontier set per write stream.
  const double min_spare =
      static_cast<double>(device.ftl.gc_threshold_high) +
      2.0 * kWriteFrontiers + 8.0;
  device.ftl.op_ratio =
      std::max(device.ftl.op_ratio,
               min_spare / static_cast<double>(device.geometry.TotalBlocks()));
  arm.prefill_pct = 90;
  arm.queue_depth = 512;
  arm.read_fraction = 0.7;
  arm.host.num_queues = kQueues;
  arm.host.queue_capacity = arm.queue_depth / kQueues;
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::cout << "=== Simulator-core throughput ===\n";

  const double event_rate = EventQueueRate(options.events);
  std::cout << "event queue:  " << options.events << " chained events -> "
            << static_cast<std::uint64_t>(event_rate) << " events/s (floor "
            << static_cast<std::uint64_t>(kEventQueueFloorPerSec) << ")\n";

  const PipelineRates pipeline =
      FastestPipelineRate(ShallowArm(), options.requests);
  std::cout << "host pipeline: " << options.requests << " reads, "
            << pipeline.txns << " flash txns -> "
            << static_cast<std::uint64_t>(pipeline.txns_per_sec)
            << " txns/s, "
            << static_cast<std::uint64_t>(pipeline.requests_per_sec)
            << " reqs/s, " << pipeline.ns_per_txn << " ns/txn (floor "
            << static_cast<std::uint64_t>(kHostPipelineFloorPerSec)
            << " txns/s)\n";

  const PipelineRates deep = FastestPipelineRate(DeepArm(), options.requests);
  const double depth_ratio = deep.ns_per_txn / pipeline.ns_per_txn;
  std::cout << "deep pipeline: " << options.requests << " requests at QD 512, "
            << deep.txns << " flash txns -> " << deep.ns_per_txn
            << " ns/txn, " << depth_ratio << "x the shallow arm (ceiling "
            << kDepthRatioCeiling << "x)\n";

  PipelineArm traced_arm = DeepArm();
  traced_arm.traced = true;
  const PipelineRates traced =
      FastestPipelineRate(traced_arm, options.requests);
  const double traced_ratio = traced.ns_per_txn / deep.ns_per_txn;
  std::cout << "traced deep pipeline: phases-only tracer -> "
            << traced.ns_per_txn << " ns/txn, " << traced_ratio
            << "x the untraced deep arm\n";

  bool ok = true;
  if (options.assert_floors) {
    if (event_rate < kEventQueueFloorPerSec) {
      std::cerr << "SELF-ASSERT FAILED: event queue below "
                << kEventQueueFloorPerSec << " events/s\n";
      ok = false;
    }
    if (pipeline.txns_per_sec < kHostPipelineFloorPerSec) {
      std::cerr << "SELF-ASSERT FAILED: host pipeline below "
                << kHostPipelineFloorPerSec << " txns/s\n";
      ok = false;
    }
    if (depth_ratio > kDepthRatioCeiling) {
      std::cerr << "SELF-ASSERT FAILED: deep pipeline costs " << depth_ratio
                << "x the shallow arm per transaction (ceiling "
                << kDepthRatioCeiling << "x)\n";
      ok = false;
    }
  }

  Json report;
  report["events"] = options.events;
  report["event_queue_per_sec"] = event_rate;
  report["event_queue_floor_per_sec"] = kEventQueueFloorPerSec;
  report["requests"] = options.requests;
  report["pipeline_txns"] = pipeline.txns;
  report["pipeline_txns_per_sec"] = pipeline.txns_per_sec;
  report["pipeline_requests_per_sec"] = pipeline.requests_per_sec;
  report["pipeline_floor_txns_per_sec"] = kHostPipelineFloorPerSec;
  report["pipeline_ns_per_txn"] = pipeline.ns_per_txn;
  report["deep_pipeline_txns"] = deep.txns;
  report["deep_pipeline_ns_per_txn"] = deep.ns_per_txn;
  report["deep_to_shallow_ns_ratio"] = depth_ratio;
  report["deep_ratio_ceiling"] = kDepthRatioCeiling;
  report["traced_deep_ns_per_txn"] = traced.ns_per_txn;
  report["traced_to_untraced_ns_ratio"] = traced_ratio;
  report["asserted"] = options.assert_floors;
  std::ofstream out(options.json_path);
  out << report.Dump(2) << "\n";
  std::cout << (ok ? "floors hold" : "floors violated") << "; wrote "
            << options.json_path << "\n";
  return ok ? 0 : 1;
}
