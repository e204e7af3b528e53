// The paper's evaluation: Table 1 and Figures 12-18 from one set of runs.
//
// The seven figures compare the conventional FTL with FTL+PPB at only ten
// distinct (trace, page size, speed ratio) points: {media, web} x {8 KiB at
// 2x; 16 KiB at 2x, 3x, 4x, 5x}.  This bench runs each point once through
// bench::RunComparison, prints Table 1 and every figure table from those
// results, and writes BENCH_paper.json (--json renames it): one row per
// comparison plus a self_check block stating the paper's shape as numbers.
// The shape needs the default 4 GiB device and full-length traces (at
// --quick the media gain is negative), so the bench never fails on it;
// tools/bench_baselines.json gates the default-size report instead.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "campaign/json.h"
#include "harness.h"
#include "ssd/ssd.h"
#include "util/table_printer.h"

namespace {

using namespace ctflash;
using bench::ComparisonResult;
using bench::Workload;
using campaign::Json;
using util::TablePrinter;

constexpr std::uint32_t k8K = 8 * 1024;
constexpr std::uint32_t k16K = 16 * 1024;
constexpr Workload kTraces[] = {Workload::kMediaServer, Workload::kWebServer};
constexpr double kRatios[] = {2.0, 3.0, 4.0, 5.0};

/// (trace, page size, speed ratio) -> its comparison; iteration order is
/// the report's row order.
using Runs =
    std::map<std::tuple<Workload, std::uint32_t, double>, ComparisonResult>;

double EraseRatio(const ComparisonResult& cmp) {
  return cmp.conventional.erase_count == 0
             ? 1.0
             : static_cast<double>(cmp.ppb.erase_count) /
                   static_cast<double>(cmp.conventional.erase_count);
}

/// Read enhancement at 2 decimals, write delta at 4: the figures' precision.
std::string Gain(const ComparisonResult& cmp, bool reads) {
  return reads ? TablePrinter::FormatPercent(cmp.ReadEnhancement())
               : TablePrinter::FormatPercent(cmp.WriteEnhancement(), 4);
}

std::string Seconds(const ssd::ExperimentResult& run, bool reads) {
  return TablePrinter::FormatScientific(reads ? run.TotalReadSeconds()
                                              : run.TotalWriteSeconds());
}

void PrintSection(const std::string& title, const TablePrinter& table,
                  const std::string& paper_shape) {
  std::cout << "--- " << title << " ---\n";
  table.Print();
  std::cout << "\nPaper shape: " << paper_shape << "\n\n";
}

void PrintTable1(const bench::BenchOptions& options) {
  const auto cfg = ssd::Table1Config();
  const auto& g = cfg.geometry;
  const auto& t = cfg.timing;

  TablePrinter table({"Item", "Paper (Table 1)", "This build"});
  table.AddRow({"Flash size", "64GBs",
                TablePrinter::FormatDouble(
                    static_cast<double>(g.TotalBytes()) / (1ull << 30), 1) +
                    " GiB"});
  table.AddRow({"Page size", "16KBs",
                std::to_string(g.page_size_bytes / 1024) + " KiB"});
  table.AddRow({"Number of pages per block", "384",
                std::to_string(g.pages_per_block)});
  table.AddRow({"Page write latency (us)", "600",
                std::to_string(t.page_program_us)});
  table.AddRow({"Page read latency (us)", "49",
                std::to_string(t.page_read_us)});
  table.AddRow({"Data transfer rate", "533Mbps",
                TablePrinter::FormatDouble(t.transfer_mb_per_s, 0) +
                    " MB/s (533 Mbps/pin, x8 bus)"});
  table.AddRow({"Block erase time (ms)", "4",
                TablePrinter::FormatDouble(
                    static_cast<double>(t.block_erase_us) / 1000.0, 0)});
  table.AddRow({"Gate-stack layers", "(64-layer V-NAND)",
                std::to_string(g.num_layers)});
  table.AddRow({"Speed ratio (footnote 1)", "2x-5x (64-layer: within 2x)",
                TablePrinter::FormatDouble(t.speed_ratio, 1) +
                    "x default, swept 2x-5x in the figure benches"});
  std::cout << "--- Table 1: Experimental Parameters ---\n";
  table.Print();
  std::cout << "\nScaled experiment device: "
            << ssd::ScaledConfig(ssd::FtlKind::kPpb, options.device_bytes,
                                 k16K, 2.0)
                   .geometry.ToString()
            << "\n\n";
}

/// Figures 12 (reads) and 15 (writes): enhancement per trace at 8 and
/// 16 KiB pages, speed ratio 2x.
TablePrinter PageTable(const Runs& runs, bool reads) {
  TablePrinter table({"Trace", "8K Page Size", "16K Page Size"});
  for (const Workload workload : kTraces) {
    table.AddRow({bench::WorkloadName(workload),
                  Gain(runs.at({workload, k8K, 2.0}), reads),
                  Gain(runs.at({workload, k16K, 2.0}), reads)});
  }
  return table;
}

/// Figures 13/14 (reads) and 16/17 (writes): cumulative latency of both
/// FTLs across speed ratios 2x-5x at 16 KiB pages.
TablePrinter RatioTable(const Runs& runs, Workload workload, bool reads) {
  TablePrinter table({"Speed Difference", "Conventional FTL (s)",
                      "FTL with PPB (s)", reads ? "Enhancement" : "Delta"});
  for (const double ratio : kRatios) {
    const ComparisonResult& cmp = runs.at({workload, k16K, ratio});
    table.AddRow({TablePrinter::FormatDouble(ratio, 0) + "x",
                  Seconds(cmp.conventional, reads), Seconds(cmp.ppb, reads),
                  Gain(cmp, reads)});
  }
  return table;
}

/// Figure 18: erased blocks of both FTLs per trace (16 KiB pages, 2x).
TablePrinter EraseTable(const Runs& runs) {
  TablePrinter table({"Trace", "Conventional FTL", "FTL with PPB", "Ratio",
                      "WAF conv", "WAF ppb"});
  for (const Workload workload : kTraces) {
    const ComparisonResult& cmp = runs.at({workload, k16K, 2.0});
    table.AddRow({bench::WorkloadName(workload),
                  std::to_string(cmp.conventional.erase_count),
                  std::to_string(cmp.ppb.erase_count),
                  TablePrinter::FormatDouble(EraseRatio(cmp), 3),
                  TablePrinter::FormatDouble(cmp.conventional.waf, 3),
                  TablePrinter::FormatDouble(cmp.ppb.waf, 3)});
  }
  return table;
}

/// The paper's shape as numbers, orderings as 0/1, for bench_check.
Json SelfCheck(const Runs& runs) {
  const auto read = [&](Workload w, std::uint32_t page, double ratio) {
    return runs.at({w, page, ratio}).ReadEnhancement();
  };
  double min_read = std::numeric_limits<double>::infinity();
  double max_write = 0.0;
  double max_erase_ratio = 0.0;
  bool web_gt_media = true;
  for (const auto& [key, cmp] : runs) {
    const auto& [workload, page, ratio] = key;
    min_read = std::min(min_read, cmp.ReadEnhancement());
    max_write = std::max(max_write, std::abs(cmp.WriteEnhancement()));
    max_erase_ratio = std::max(max_erase_ratio, EraseRatio(cmp));
    if (workload == Workload::kWebServer) {
      web_gt_media = web_gt_media &&
                     cmp.ReadEnhancement() >
                         read(Workload::kMediaServer, page, ratio);
    }
  }
  bool rises = true;
  bool page16_ge_page8 = true;
  for (const Workload w : kTraces) {
    for (std::size_t i = 1; i < std::size(kRatios); ++i) {
      rises = rises &&
              read(w, k16K, kRatios[i]) > read(w, k16K, kRatios[i - 1]);
    }
    page16_ge_page8 =
        page16_ge_page8 && read(w, k16K, 2.0) >= read(w, k8K, 2.0);
  }
  Json checks;
  checks["min_read_enhancement_pct"] = 100.0 * min_read;
  checks["read_gain_rises_2x_to_5x"] = rises ? 1 : 0;
  checks["page16_ge_page8"] = page16_ge_page8 ? 1 : 0;
  checks["web_gt_media"] = web_gt_media ? 1 : 0;
  checks["max_abs_write_delta_pct"] = 100.0 * max_write;
  checks["max_erase_ratio"] = max_erase_ratio;
  return checks;
}

Json Report(const Runs& runs, const bench::BenchOptions& options) {
  campaign::JsonArray rows;
  for (const auto& [key, cmp] : runs) {
    const auto& [workload, page, ratio] = key;
    Json row;
    row["trace"] = workload == Workload::kMediaServer ? "media" : "web";
    row["page_kib"] = static_cast<std::uint64_t>(page / 1024);
    row["speed_ratio"] = ratio;
    row["read_enhancement_pct"] = 100.0 * cmp.ReadEnhancement();
    row["write_enhancement_pct"] = 100.0 * cmp.WriteEnhancement();
    row["conventional_erases"] = cmp.conventional.erase_count;
    row["ppb_erases"] = cmp.ppb.erase_count;
    row["conventional_waf"] = cmp.conventional.waf;
    row["ppb_waf"] = cmp.ppb.waf;
    rows.push_back(std::move(row));
  }
  Json report;
  report["bench"] = "paper";
  report["device_bytes"] = options.device_bytes;
  report["media_requests"] = options.media_requests;
  report["web_requests"] = options.web_requests;
  report["results"] = Json(std::move(rows));
  report["self_check"] = SelfCheck(runs);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::FromArgs(argc, argv);
  bench::PrintHeader("The paper's evaluation: Table 1, Figures 12-18",
                     "Table 1 and Figures 12-18", options);
  PrintTable1(options);

  Runs runs;
  for (const Workload workload : kTraces) {
    runs[{workload, k8K, 2.0}] =
        bench::RunComparison(workload, k8K, 2.0, options);
    for (const double ratio : kRatios) {
      runs[{workload, k16K, ratio}] =
          bench::RunComparison(workload, k16K, ratio, options);
    }
  }

  PrintSection("Figure 12: Read Performance Enhancement",
               PageTable(runs, /*reads=*/true),
               "positive enhancement everywhere, 16K >= 8K,\n"
               "web/SQL > media server (paper peak: 18.56% web @ 16K).");
  PrintSection("Figure 13: Media Server Trace - Read Latency",
               RatioTable(runs, Workload::kMediaServer, /*reads=*/true),
               "PPB < conventional for every ratio; the gap\n"
               "grows from 2x to 5x.");
  PrintSection("Figure 14: Web Server Trace - Read Latency",
               RatioTable(runs, Workload::kWebServer, /*reads=*/true),
               "PPB < conventional for every ratio (paper:\n"
               "~10% average across 2x-5x); gap widens with the ratio.");
  PrintSection("Figure 15: Write Performance Enhancement",
               PageTable(runs, /*reads=*/false),
               "write latency essentially identical\n"
               "(paper reports -0.02% .. +0.08%).");
  PrintSection("Figure 16: Media Server Trace - Write Latency",
               RatioTable(runs, Workload::kMediaServer, /*reads=*/false),
               "curves coincide at every ratio.");
  PrintSection("Figure 17: Web Server Trace - Write Latency",
               RatioTable(runs, Workload::kWebServer, /*reads=*/false),
               "curves coincide at every ratio.");
  PrintSection("Figure 18: Erased Block Count Comparison", EraseTable(runs),
               "PPB erase counts within a few percent of the\n"
               "conventional FTL (garbage collection efficiency retained).");

  const std::string json_path =
      options.json_path.empty() ? "BENCH_paper.json" : options.json_path;
  std::ofstream out(json_path);
  out << Report(runs, options).Dump(2) << "\n";
  std::cout << "wrote " << json_path << " (" << runs.size()
            << " comparisons)\n";
  return 0;
}
