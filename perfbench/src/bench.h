// Shared vocabulary of the benchmark: run options, the per-workload outcome
// (correctness checks, failure accounting, metric values), the digest of
// simulated results, and the metric catalog every workload reports into.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/phase.h"
#include "sim/resource.h"
#include "util/stats.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here ("" = none)
};

/// FNV-1a over the simulated outputs of a run.  A change that only speeds
/// up the simulator must leave it unchanged.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(const ctflash::util::LatencyStats& s) {
    Add(s.count());
    Add(s.total_us());
    Add(s.min_us());
    Add(s.max_us());
    Add(s.p50_us());
    Add(s.p99_us());
    Add(s.p999_us());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// One metric in the catalog: name, unit, and whether it is end-to-end
/// (reported untraced) or per-layer (reported by the traced run).
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric, in output order.  BENCHMARK.json lists the same names.
const std::vector<MetricDef>& MetricCatalog();

/// What one workload invocation produced.
struct Outcome {
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_digest = 0;
  std::uint64_t traced_digest = 0;  ///< traced rounds' digest (0 untraced)
  std::map<std::string, double> values;
  /// Sample counts printed beside latency metrics.
  std::map<std::string, std::uint64_t> samples;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  bool correct() const { return failed_checks.empty(); }
  void Set(const std::string& name, double value) { values[name] = value; }
  void SetLatency(const std::string& name, double value, std::uint64_t n) {
    values[name] = value;
    samples[name] = n;
  }
};

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Median of a non-empty sample (copies).
double Median(std::vector<double> v);

/// Splitmix64 finalizer: derives independent input seeds from --seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

/// Busy share of a resource pool over `span_us` of simulated time: busy
/// time accumulated since `busy_before`, per member.
double BusyShare(const ctflash::sim::ResourcePool& pool, ctflash::Us busy_before,
                 ctflash::Us span_us);

/// The obs.* phase metrics: paced/queued/media shares of read latency, the
/// die-busy-gc stall of reads and the write-hold stall of writes.
void ReportPhases(const ctflash::obs::PhaseStats& phases, Outcome& out);

class SpanRecorder;

/// One repetition of a workload's simulation from fresh devices.  A round is
/// a fixed sequence of parts (an FTL arm's replay, a closed-loop stream, a
/// fleet run), each with a set-up and a timed phase.  Every round of a run
/// simulates the same inputs, so every round's digest must match.
struct RoundResult {
  std::vector<double> setup_s;  ///< per part: device build + prefill, wall
  std::vector<double> timed_s;  ///< per part: the measured phase, wall
  std::uint64_t requests = 0;   ///< simulated host requests completed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  void AddPart(double part_setup_s, double part_timed_s,
               std::uint64_t completed) {
    setup_s.push_back(part_setup_s);
    timed_s.push_back(part_timed_s);
    requests += completed;
  }
  double TimedTotal() const;
};

/// What DriveRounds tells a workload's round.
struct RoundContext {
  SpanRecorder* recorder = nullptr;  ///< non-null: trace this round's calls
  /// The first round of its kind (traced or not) on the lead thread: the
  /// one whose details the workload keeps for reporting.
  bool keep = false;
};

/// Rounds run on kRoundThreads threads at once, each pinned to its own CPU.
/// Other tenants of the machine slow one CPU at a time, for seconds at a
/// time, so the fastest copy of a part is the simulator's own speed.
constexpr unsigned kRoundThreads = 4;

/// Runs rounds on every thread until each has `options.seconds` of timed
/// work, at least one round of each kind.  Untraced runs repeat untraced
/// rounds; in traced runs the lead thread alternates untraced rounds and
/// rounds traced into `recorder` under a "bench.round" root span.
///
/// Fills req_per_s, setup_s, peak_rss_mb, served_ratio, attempted/failed,
/// the digests, the determinism checks, and (traced) the span-derived
/// per-layer metrics and obs.trace_overhead_pct.  Host times are best-of-N
/// over every untraced round of every thread: req_per_s is the requests of
/// one round over the sum of each part's fastest timed phase, setup_s the
/// sum of each part's fastest set-up.  Both are scaled to a 3 GHz core
/// clock, read by a probe run before every round.
void DriveRounds(const RunOptions& options, SpanRecorder& recorder,
                 Outcome& out,
                 const std::function<RoundResult(const RoundContext&)>& round);

}  // namespace perfbench
