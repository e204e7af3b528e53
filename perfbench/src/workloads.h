// The benchmark's three workloads.  Each generates its inputs from the seed
// before anything is timed, drives the library through its public API, and
// returns an Outcome holding its end-to-end and per-layer metric values,
// its correctness checks and its sim_digest.
#pragma once

#include <cstdint>

#include "bench.h"
#include "util/types.h"

namespace perfbench {

/// The paper's protocol: synthetic web and media traces replayed closed-loop
/// through Ssd::Read/Ssd::Write on a Table-1-shaped scaled device, on the
/// conventional FTL and on PPB.
struct PaperReplayConfig {
  std::uint64_t device_bytes = 4ull << 30;
  std::uint64_t web_requests = 300'000;
  std::uint64_t media_requests = 300'000;
};
Outcome RunPaperReplay(const PaperReplayConfig& config,
                       const RunOptions& options);

/// Closed loop at a deep queue through the host interface on a queued-timing
/// device with scheduled GC.
struct DeepQueueConfig {
  std::uint32_t queue_depth = 512;
  /// Independent closed loops per round, each on a fresh device with its
  /// own request stream; their results merge.
  std::uint32_t streams = 4;
  std::uint64_t requests_per_stream = 100'000;
};
Outcome RunDeepQueue(const DeepQueueConfig& config, const RunOptions& options);

/// A device fleet under ClusterSim: Zipf users arriving open-loop, one
/// device on a wear ramp, rebalancing on observed health.
struct FleetWearConfig {
  std::uint32_t devices = 8;
  std::uint64_t device_bytes = 64ull << 20;
  std::uint64_t users = 1'000'000;
  double rate_iops = 40'000.0;
  std::uint32_t epochs = 8;
  ctflash::Us epoch_us = 250'000;
  /// Independent fleets per round (each its own placement, arrival and
  /// fault seed); read statistics are medians over fleets, the rest merge.
  std::uint32_t fleets = 8;
  /// ClusterSim worker threads.  One keeps host time independent of how a
  /// seed's load happens to split across threads.
  std::uint32_t workers = 1;
  /// Zipf draws timed for util.zipf_sample_ns in a traced round.
  std::uint64_t zipf_probe_samples = 200'000;
};
Outcome RunFleetWear(const FleetWearConfig& config, const RunOptions& options);

}  // namespace perfbench
