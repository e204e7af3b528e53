// Saturation study: open-loop arrival-rate sweep through the host
// interface.
//
// Replays the web/SQL synthetic trace through replay::ReplayEngine with
// its inter-arrival gaps compressed by increasing time-warp factors
// (offered load up, same address pattern).  Below saturation, served IOPS
// tracks offered IOPS and latency sits near the device service time; past
// the knee, served IOPS clamps at device capacity — for this 60/40
// read/write mix the binding resource is the single host-write stream (one
// active block serializes programs) — and the tail percentiles grow with
// the backlog.  This is the classic open-loop latency/throughput curve the
// closed-loop figure benches cannot show.
//
//   ./example_saturation_study [requests] [device_bytes]
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace ctflash;
  const std::uint64_t requests = argc > 1 ? std::stoull(argv[1]) : 30'000;
  const std::uint64_t device_bytes =
      argc > 2 ? std::stoull(argv[2]) : (1ull << 30);

  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kPpb, device_bytes, 16 * 1024,
                               /*speed_ratio=*/2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;

  std::cout << "Saturation study: open-loop web/SQL trace, device "
            << cfg.geometry.ToString() << "\n\n";

  util::TablePrinter table({"compression", "offered kIOPS", "served kIOPS",
                            "mean us", "p99 us", "p99.9 us", "die util"});
  for (const double compression : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    // Fresh device per point: each offered load starts from the same
    // prefilled state.
    ssd::Ssd ssd(cfg);
    ssd::ExperimentRunner runner(ssd);
    const std::uint64_t footprint = ssd.LogicalBytes() / 10 * 8;
    const Us prefill_end = runner.Prefill(footprint);

    const auto workload = trace::WebServerWorkload(footprint, requests);
    auto records = trace::SyntheticTraceGenerator(workload).Generate();
    const Us trace_span_us = records.back().timestamp_us;
    replay::ReplayPlan plan;
    replay::SourceOptions options;
    options.warp.acceleration = compression;
    plan.AddSource(
        std::make_unique<replay::VectorTraceSource>(std::move(records)),
        options);

    host::HostInterface host(ssd, host::HostConfig{});
    host.AdvanceTo(prefill_end);
    host::UtilizationProbe probe(ssd.target());
    const auto replayed =
        replay::ReplayEngine(host, replay::ReplayEngineConfig{}).Run(plan);
    host::LoadStats load;
    load.start_us = replayed.start_us;
    load.end_us = replayed.end_us;
    probe.Finish(load);

    const auto all = replayed.AllLatency();
    const double span_s =
        static_cast<double>(trace_span_us) / compression / 1e6;
    table.AddRow({util::TablePrinter::FormatDouble(compression, 3) + "x",
                  util::TablePrinter::FormatDouble(
                      span_s > 0 ? static_cast<double>(requests) / span_s / 1e3
                                 : 0.0,
                      1),
                  util::TablePrinter::FormatDouble(replayed.Iops() / 1e3, 1),
                  util::TablePrinter::FormatDouble(all.mean_us(), 1),
                  util::TablePrinter::FormatDouble(all.p99_us(), 1),
                  util::TablePrinter::FormatDouble(all.p999_us(), 1),
                  util::TablePrinter::FormatPercent(load.die_utilization)});
  }
  table.Print();
  std::cout << "\nReading the knee: below saturation served kIOPS == offered\n"
               "kIOPS and latency stays near service time; past it, served\n"
               "clamps at device capacity (here bound by the serialized\n"
               "write stream) and the tail percentiles grow with backlog.\n";
  return 0;
}
