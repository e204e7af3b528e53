// Tests of the benchmark's own code, on tiny workload sizes:
//   * the same seed gives the same sim_digest twice, another seed changes it;
//   * the correctness checks pass (all but the paper's shape, which needs
//     the full-size device);
//   * the traced run reproduces the untraced run's simulated results;
//   * per-layer self times sum to no more than the traced wall time.
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

perfbench::RunOptions Options(std::uint64_t seed, bool trace) {
  perfbench::RunOptions o;
  o.seed = seed;
  o.seconds = 0.0;  // the minimum number of rounds
  o.trace = trace;
  return o;
}

template <class RunFn>
void CheckWorkload(const std::string& name, RunFn run) {
  const perfbench::Outcome a = run(Options(1, false));
  const perfbench::Outcome b = run(Options(1, false));
  const perfbench::Outcome c = run(Options(2, false));
  Expect(a.sim_digest == b.sim_digest, name + ": same seed, same sim_digest");
  Expect(a.sim_digest != c.sim_digest,
         name + ": another seed changes sim_digest");
  Expect(a.attempted > 0, name + ": attempts operations");
  // The paper's shape needs the full-size device; every other check must
  // hold at any size.
  std::vector<std::string> failed;
  for (const perfbench::Outcome* o : {&a, &c}) {
    for (const std::string& f : o->failed_checks) {
      if (f.rfind("paper shape:", 0) != 0) failed.push_back(f);
    }
  }
  Expect(failed.empty(), name + ": correctness checks pass");
  for (const std::string& f : failed) std::cout << "  " << f << "\n";

  const perfbench::Outcome t = run(Options(1, true));
  Expect(t.traced_digest == t.sim_digest && t.sim_digest == a.sim_digest,
         name + ": traced run reproduces the untraced simulated results");

  double self_sum = 0.0;
  for (const auto& [key, value] : t.values) {
    const std::string suffix = ".self_s";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      self_sum += value;
    }
  }
  const auto wall = t.values.find("bench.traced_wall_s");
  Expect(wall != t.values.end() && wall->second > 0.0 &&
             self_sum <= wall->second * (1.0 + 1e-9),
         name + ": per-layer self times sum to no more than the traced wall "
                "time");
}

}  // namespace

int main() {
  perfbench::PaperReplayConfig paper;
  paper.device_bytes = 256ull << 20;
  paper.web_requests = 4000;
  paper.media_requests = 2000;
  CheckWorkload("paper_replay", [&](const perfbench::RunOptions& o) {
    return perfbench::RunPaperReplay(paper, o);
  });

  perfbench::DeepQueueConfig deep;
  deep.queue_depth = 64;
  deep.streams = 2;
  deep.requests_per_stream = 1500;
  CheckWorkload("deep_queue", [&](const perfbench::RunOptions& o) {
    return perfbench::RunDeepQueue(deep, o);
  });

  perfbench::FleetWearConfig fleet;
  fleet.devices = 4;
  fleet.device_bytes = 32ull << 20;
  fleet.users = 10'000;
  fleet.rate_iops = 4'000.0;
  fleet.epochs = 4;
  fleet.epoch_us = 50'000;
  fleet.fleets = 2;
  fleet.workers = 2;
  fleet.zipf_probe_samples = 10'000;
  CheckWorkload("fleet_wear", [&](const perfbench::RunOptions& o) {
    return perfbench::RunFleetWear(fleet, o);
  });

  std::cout << (g_failures == 0 ? "all tests passed" : "TESTS FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
