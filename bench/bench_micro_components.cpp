// Micro-benchmarks (google-benchmark) for the performance-critical
// components: the structures PPB touches on every host request must stay
// O(1)-ish or the strategy's bookkeeping would eat its own latency gains,
// and the I/O scheduler's per-dispatch cost must stay flat in ready depth.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/access_frequency_table.h"
#include "core/two_level_lru.h"
#include "core/virtual_block.h"
#include "ftl/flash_target.h"
#include "ftl/mapping_table.h"
#include "host/host_interface.h"
#include "nand/error_model.h"
#include "nand/latency_model.h"
#include "sim/event_queue.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/random.h"

namespace {

using namespace ctflash;

void BM_XoshiroUniform(benchmark::State& state) {
  util::Xoshiro256StarStar rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformBelow(1000003));
  }
}
BENCHMARK(BM_XoshiroUniform);

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
  util::Xoshiro256StarStar rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// The table a 1 M-user ClusterSim builds at set-up: the CDF pass, its
// normalisation and the guide table.
void BM_ZipfConstruct(benchmark::State& state) {
  for (auto _ : state) {
    const util::ZipfSampler zipf(1'000'000, 0.9);
    benchmark::DoNotOptimize(zipf.Pmf(0));
  }
}
BENCHMARK(BM_ZipfConstruct)->Unit(benchmark::kMillisecond);

// An epoch of open-loop arrivals as a ClusterSim device sees it: N arrivals
// scheduled up front in time order from outside any callback, each firing
// one in-callback completion a service time later.
void BM_EventQueueSortedBatch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  sim::EventQueue queue;
  std::uint64_t completions = 0;
  for (auto _ : state) {
    const Us start = queue.Now();
    for (std::int64_t i = 0; i < n; ++i) {
      queue.ScheduleAt(start + 200 * i, [&](Us now) {
        queue.ScheduleAt(now + 650, [&](Us) { ++completions; });
      });
    }
    queue.RunToCompletion();
  }
  benchmark::DoNotOptimize(completions);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueSortedBatch)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LatencyModelRead(benchmark::State& state) {
  nand::NandGeometry g;
  nand::NandTiming t;
  t.speed_ratio = 3.0;
  const nand::LatencyModel m(g, t);
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.ReadUs(page));
    page = (page + 7) % g.pages_per_block;
  }
}
BENCHMARK(BM_LatencyModelRead);

// The per-page device path every simulated read takes: a service-time
// ReadPageChecked on a programmed page plus the die-view FreeAt probe the
// write allocators make, striding over blocks and pages
// so each iteration decodes a different block location and page latency.
void BM_FlashTargetReadChecked(benchmark::State& state) {
  nand::NandGeometry g;
  g.blocks_per_plane = 4;
  ftl::FlashTarget ft(g, nand::NandTiming{});
  for (BlockId b = 0; b < g.TotalBlocks(); ++b) {
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      ft.ProgramPage(g.PpnOf(b, p), 0);
    }
  }
  BlockId block = 0;
  std::uint32_t page = 0;
  for (auto _ : state) {
    const ftl::MediaReadResult r = ft.ReadPageChecked(g.PpnOf(block, page), 0);
    benchmark::DoNotOptimize(r.done + ft.die_view().FreeAt(block));
    block = (block + 5) % g.TotalBlocks();
    page = (page + 13) % g.pages_per_block;
  }
}
BENCHMARK(BM_FlashTargetReadChecked);

void BM_MappingTableUpdate(benchmark::State& state) {
  ftl::MappingTable map(1 << 16, 1 << 17);
  util::Xoshiro256StarStar rng(3);
  Ppn next = 0;
  for (auto _ : state) {
    const Lpn lpn = rng.UniformBelow(1 << 16);
    const Ppn old = map.Update(lpn, next);
    if (old != kInvalidPpn) map.ReleasePpn(old);  // keep ppns reusable
    benchmark::DoNotOptimize(old);
    next = (next + 1) % (1 << 17);
    // Skip ppns still owned (rare at 2x overprovision in this loop).
    while (map.LpnOf(next) != kInvalidLpn) next = (next + 1) % (1 << 17);
  }
}
BENCHMARK(BM_MappingTableUpdate);

void BM_TwoLevelLruWrite(benchmark::State& state) {
  core::TwoLevelLru lru(8192, 4096, /*lpn_bound=*/1 << 16);
  util::Xoshiro256StarStar rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.OnWrite(rng.UniformBelow(1 << 16)));
  }
}
BENCHMARK(BM_TwoLevelLruWrite);

void BM_TwoLevelLruReadPromote(benchmark::State& state) {
  core::TwoLevelLru lru(8192, 4096, /*lpn_bound=*/8192);
  util::Xoshiro256StarStar rng(5);
  for (Lpn l = 0; l < 8192; ++l) lru.OnWrite(l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.OnRead(rng.UniformBelow(8192)));
  }
}
BENCHMARK(BM_TwoLevelLruReadPromote);

void BM_FreqTableOnRead(benchmark::State& state) {
  core::AccessFrequencyTable table(2, 1 << 15, /*lpn_bound=*/1 << 16);
  util::Xoshiro256StarStar rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.OnRead(rng.UniformBelow(1 << 16)));
  }
}
BENCHMARK(BM_FreqTableOnRead);

void BM_VirtualBlockAllocate(benchmark::State& state) {
  auto bm = std::make_unique<ftl::BlockManager>(1 << 14, 384);
  auto vbm = std::make_unique<core::VirtualBlockManager>(*bm, 384, 2);
  util::Xoshiro256StarStar rng(7);
  for (auto _ : state) {
    const auto level = static_cast<core::HotnessLevel>(rng.UniformBelow(4));
    auto a = vbm->AllocatePage(core::AreaOf(level), level);
    if (!a) {  // device full: reset (excluded cost is negligible amortized)
      state.PauseTiming();
      bm = std::make_unique<ftl::BlockManager>(1 << 14, 384);
      vbm = std::make_unique<core::VirtualBlockManager>(*bm, 384, 2);
      state.ResumeTiming();
      continue;
    }
    benchmark::DoNotOptimize(a->ppn);
  }
}
BENCHMARK(BM_VirtualBlockAllocate);

void BM_FlashTargetReadServiceTime(benchmark::State& state) {
  nand::NandGeometry g;
  g.blocks_per_plane = 4;
  ftl::FlashTarget ft(g, nand::NandTiming{});
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    ft.ProgramPage(g.PpnOf(0, p), 0);
  }
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft.ReadPage(g.PpnOf(0, page), 0));
    page = (page + 13) % g.pages_per_block;
  }
}
BENCHMARK(BM_FlashTargetReadServiceTime);

void BM_ErrorModelSample(benchmark::State& state) {
  nand::NandGeometry g;
  const nand::LayerErrorModel model(g, nand::ErrorModelConfig{});
  util::Xoshiro256StarStar rng(8);
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SampleBitErrors(page, 1000, rng));
    page = (page + 31) % g.pages_per_block;
  }
}
BENCHMARK(BM_ErrorModelSample);

void BM_SyntheticTraceNext(benchmark::State& state) {
  auto cfg = trace::WebServerWorkload(1ull << 30, 1);
  trace::SyntheticTraceGenerator gen(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_SyntheticTraceNext);

// One scheduler pick + dispatch + read completion per iteration with the
// ready set held at state.range(0) transactions: a closed loop of random
// page reads keeps that many requests waiting behind the device's slots,
// resubmitting one per completion.  The iteration also carries the host
// interface's request bookkeeping and the FTL read; what must not change
// across the Args is the scheduler's share (flat in ready depth).
void BM_SchedulerDispatch(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  auto config = ssd::ScaledConfig(ssd::FtlKind::kConventional, 256ull << 20,
                                  16 * 1024, 2.0);
  config.timing_mode = ftl::TimingMode::kQueued;
  ssd::Ssd ssd(config);
  const std::uint64_t span = ssd.LogicalBytes() / 100 * 80;
  const Us prefill_end = ssd::ExperimentRunner(ssd).Prefill(span);
  host::HostConfig host_config;
  host_config.num_queues = 8;
  host_config.queue_capacity =
      (depth + host_config.device_slots) / host_config.num_queues + 1;
  host::HostInterface host(ssd, host_config);
  host.AdvanceTo(prefill_end);

  const std::uint64_t page = config.geometry.page_size_bytes;
  util::Xoshiro256StarStar rng(9);
  host::HostInterface::CompletionCallback resubmit =
      [&](const host::HostCompletion&) {
        host.Submit(trace::OpType::kRead, rng.UniformBelow(span / page) * page,
                    page, resubmit);
      };
  for (std::uint32_t i = 0; i < depth + host_config.device_slots; ++i) {
    resubmit(host::HostCompletion{});
  }
  for (auto _ : state) {
    host.queue().Step();
  }
  state.counters["ready_depth"] =
      static_cast<double>(host.scheduler().ReadyCount());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerDispatch)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
