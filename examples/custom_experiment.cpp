// JSON-driven experiment runner: configure the device, FTL, PPB knobs and the
// workload from a spec file (no recompilation) and print the conventional vs
// PPB comparison.  With no argument a built-in sample spec is used and
// printed.
//
//   ./custom_experiment [experiment.json]
//
// The spec is one JSON object in the campaign arm vocabulary
// (campaign/spec.h).  Its device keys go through campaign::
// ResolveDeviceSection, once with "ftl" set to "conventional" and once to
// "ppb", so they mean what they mean in every campaign and cluster spec:
//   device_bytes, page_size   byte sizes ("2GiB", "16KiB") or numbers
//   speed_ratio               top/bottom latency ratio R (paper: 2x..5x)
//   timing_mode               "service_time" or "queued" (chip/channel
//                             contention)
//   error_model               {} arms the layer error model with its
//                             default knobs; absent = off
//   ppb.vb_split, ppb.max_open_fast_vbs, ppb.migrate_on_update,
//   ppb.migrate_on_gc
// The keys the device section does not read come from the same object:
//   op_ratio, gc_threshold_low, gc_threshold_high, charge_gc_to_write,
//   wear_delta (> 0 enables static wear leveling), ppb.cold_promote_threshold
//   workload.preset ("web" | "media"), workload.requests,
//   workload.footprint (0 = 80 % of logical capacity), workload.seed
// Absent keys take the campaign defaults (device_bytes 256MiB, timing_mode
// "queued", ...) and the FTL/PPB config defaults; the absent workload keys
// take the sample's values.  Both FTLs replay one generated trace through
// the paper protocol (ssd::RunExperiment).
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/json.h"
#include "campaign/spec.h"
#include "ssd/experiment.h"
#include "trace/synthetic.h"
#include "util/table_printer.h"

namespace {

using ctflash::campaign::Json;

constexpr const char* kSampleSpec = R"({
  "device_bytes": "2GiB",
  "page_size": "16KiB",
  "speed_ratio": 2.0,
  "timing_mode": "service_time",
  "op_ratio": 0.15,
  "gc_threshold_low": 6,
  "gc_threshold_high": 10,
  "charge_gc_to_write": false,
  "wear_delta": 0,
  "ppb": {
    "vb_split": 2,
    "cold_promote_threshold": 2,
    "max_open_fast_vbs": 4,
    "migrate_on_update": true,
    "migrate_on_gc": true
  },
  "workload": {"preset": "web", "requests": 300000, "footprint": 0, "seed": 2}
}
)";

ctflash::ssd::SsdConfig BuildConfig(const Json& spec, const char* ftl) {
  using namespace ctflash;
  Json arm = spec;
  arm["ftl"] = ftl;
  ssd::SsdConfig cfg = campaign::ResolveDeviceSection(arm).device;
  cfg.ftl.op_ratio = spec.GetDoubleOr("op_ratio", cfg.ftl.op_ratio);
  cfg.ftl.gc_threshold_low =
      spec.GetUintOr("gc_threshold_low", cfg.ftl.gc_threshold_low);
  cfg.ftl.gc_threshold_high =
      spec.GetUintOr("gc_threshold_high", cfg.ftl.gc_threshold_high);
  cfg.ftl.charge_gc_to_write =
      spec.GetBoolOr("charge_gc_to_write", cfg.ftl.charge_gc_to_write);
  cfg.ftl.wear.delta_threshold =
      spec.GetUint32Or("wear_delta", cfg.ftl.wear.delta_threshold);
  if (const Json* ppb = spec.Get("ppb")) {
    cfg.ppb.cold_promote_threshold = ppb->GetUint32Or(
        "cold_promote_threshold", cfg.ppb.cold_promote_threshold);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ctflash;

  std::string text = kSampleSpec;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) throw std::runtime_error(std::string("cannot open ") + argv[1]);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    std::cout << "Configuration: " << argv[1] << "\n\n";
  } else {
    std::cout << "No spec given; using the built-in sample:\n\n"
              << kSampleSpec << "\n";
  }
  const Json spec = Json::Parse(text);
  if (!spec.IsObject()) throw std::runtime_error("the spec must be a JSON object");
  const ssd::SsdConfig conv_cfg = BuildConfig(spec, "conventional");
  const ssd::SsdConfig ppb_cfg = BuildConfig(spec, "ppb");

  // Build the workload once (identical trace for both FTLs).
  const Json* w = spec.Get("workload");
  const Json workload = w != nullptr ? *w : Json();
  std::uint64_t footprint = campaign::BytesOf(workload, "footprint", 0);
  if (footprint == 0) footprint = ssd::Ssd(conv_cfg).LogicalBytes() / 10 * 8;
  const std::uint64_t requests = workload.GetUintOr("requests", 300'000);
  const std::uint64_t seed = workload.GetUintOr("seed", 2);
  const std::string preset = workload.GetStringOr("preset", "web");
  trace::SyntheticWorkloadConfig wl;
  if (preset == "web") {
    wl = trace::WebServerWorkload(footprint, requests, seed);
  } else if (preset == "media") {
    wl = trace::MediaServerWorkload(footprint, requests, seed);
  } else {
    throw std::invalid_argument("workload.preset must be web or media");
  }
  const auto records = trace::SyntheticTraceGenerator(wl).Generate();

  const ssd::ExperimentResult conv =
      ssd::RunExperiment(conv_cfg, records, footprint, wl.name);
  const ssd::ExperimentResult ppb =
      ssd::RunExperiment(ppb_cfg, records, footprint, wl.name);
  util::TablePrinter table({"metric", "conventional FTL", "FTL + PPB"});
  table.AddRow({"total read latency (s)",
                util::TablePrinter::FormatDouble(conv.TotalReadSeconds()),
                util::TablePrinter::FormatDouble(ppb.TotalReadSeconds())});
  table.AddRow({"total write latency (s)",
                util::TablePrinter::FormatDouble(conv.TotalWriteSeconds()),
                util::TablePrinter::FormatDouble(ppb.TotalWriteSeconds())});
  table.AddRow({"erased blocks", std::to_string(conv.erase_count),
                std::to_string(ppb.erase_count)});
  table.AddRow({"write amplification",
                util::TablePrinter::FormatDouble(conv.waf),
                util::TablePrinter::FormatDouble(ppb.waf)});
  table.Print();
  std::cout << "\nRead enhancement: "
            << util::TablePrinter::FormatPercent(ssd::Enhancement(
                   conv.TotalReadSeconds(), ppb.TotalReadSeconds()))
            << ", write delta: "
            << util::TablePrinter::FormatPercent(
                   ssd::Enhancement(conv.TotalWriteSeconds(),
                                    ppb.TotalWriteSeconds()),
                   4)
            << "\n";
  return 0;
}
