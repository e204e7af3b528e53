// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <paper_replay|deep_queue|fleet_wear> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints human-readable lines (per-arm summaries, sample counts, the
// correctness checks, sim_digest), then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Exits 0 when every correctness check passed, 1 when one
// failed (after printing the result), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_replay|deep_queue|"
               "fleet_wear> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>]\n";
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return Usage("missing value after " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--spans-out") {
        options.spans_out = value;
      } else {
        return Usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return Usage("bad numeric value");
  }
  if (!(options.seconds >= 0.0)) return Usage("--seconds must be >= 0");

  Outcome out;
  try {
    if (workload == "paper_replay") {
      out = perfbench::RunPaperReplay(perfbench::PaperReplayConfig{}, options);
    } else if (workload == "deep_queue") {
      out = perfbench::RunDeepQueue(perfbench::DeepQueueConfig{}, options);
    } else if (workload == "fleet_wear") {
      out = perfbench::RunFleetWear(perfbench::FleetWearConfig{}, options);
    } else {
      return Usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  std::cout << "workload=" << workload << " seed=" << options.seed
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  for (const std::string& note : out.notes) std::cout << note << "\n";

  std::ostringstream metrics;
  const char* separator = "";
  for (const perfbench::MetricDef& def : perfbench::MetricCatalog()) {
    if (def.end_to_end == options.trace) continue;
    const auto it = out.values.find(def.name);
    double value = it == out.values.end() ? 0.0 : it->second;
    if (def.end_to_end && it == out.values.end()) {
      out.Check(false, std::string("metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      out.Check(false, std::string("metric not finite: ") + def.name);
      value = 0.0;
    }
    std::cout << def.name << " = " << Number(value) << " " << def.unit;
    if (const auto s = out.samples.find(def.name); s != out.samples.end()) {
      std::cout << " (n=" << s->second << ")";
    }
    std::cout << "\n";
    metrics << separator << "\"" << def.name << "\": {\"value\": "
            << Number(value) << ", \"unit\": \"" << def.unit << "\"}";
    separator = ", ";
  }

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.sim_digest));
  std::cout << "sim_digest=" << digest << "\n";
  if (options.trace) {
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(out.traced_digest));
    std::cout << "traced_sim_digest=" << digest << "\n";
  }
  std::cout << "fail_ratio="
            << Number(out.attempted == 0
                          ? 0.0
                          : static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted))
            << " (" << out.failed << " of " << out.attempted << ")\n";
  for (const std::string& failure : out.failed_checks) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics.str()
            << "}}" << std::endl;
  return out.correct() ? 0 : 1;
}
