// FlashTarget: the NAND array plus its timing fabric.
//
// Combines the behavioural NandDevice (state + constraint checks) with
// channel/chip occupancy timelines so every operation yields a completion
// time.  Operation pipelines:
//   read    : cell sense on the chip, then data-out transfer on the channel;
//   program : data-in transfer on the channel, then cell program on the chip;
//   erase   : chip-only.
// All FTL variants issue their NAND traffic through this class, so baseline
// and PPB see identical timing rules.
//
// Two timing modes are supported:
//  * kServiceTime (default): per-operation latency is the pure service time
//    (cell op + bus transfer) independent of other in-flight requests.  This
//    matches the paper's additive trace-driven accounting, where cumulative
//    latency is the sum of per-request device times.
//  * kQueued: operations additionally queue on the die and channel
//    occupancy timelines, exposing contention (the host interface and
//    queueing studies run in this mode).  The die is the unit of cell-op
//    exclusivity — two dies on one chip interleave freely, which is what
//    lets the host scheduler extract intra-chip parallelism; the chip
//    timelines are kept as pure busy-time accounting in both modes.
//
// Fault injection (ArmFaults) layers seeded media failures on top: page
// programs and block erases can fail verify, reads see read-disturb /
// retention RBER inflation and a bounded read-retry ladder, and whole dies
// or channels can drop out mid-run.  The *Checked operation variants report
// these as typed MediaReadResult / MediaOpResult values the FTL handles;
// NAND protocol violations (FTL bugs) throw MediaError instead of aborting.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "nand/device.h"
#include "nand/error_model.h"
#include "nand/fault_plan.h"
#include "sim/resource.h"
#include "util/random.h"
#include "util/types.h"

namespace ctflash::obs {
class MediaHook;
}

namespace ctflash::ftl {

enum class TimingMode { kServiceTime = 0, kQueued = 1 };

/// Thrown on NAND protocol violations and unrecoverable media conditions
/// (e.g. the spare pool retired away) so fault campaigns classify the arm
/// instead of aborting the process.
class MediaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Who issued a read, for error attribution (host I/O vs GC relocation).
enum class ReadKind : std::uint8_t { kHost = 0, kGc = 1 };

/// Aggregate reliability counters (populated when an error model is armed).
/// Kept separately for host and GC reads; retry/recovery fields advance
/// only when fault handling is armed.
struct ReadErrorStats {
  std::uint64_t sampled_reads = 0;
  std::uint64_t total_bit_errors = 0;
  std::uint64_t uncorrectable_reads = 0;  ///< first-sense ECC failures
  std::uint64_t retried_reads = 0;        ///< reads that entered the ladder
  std::uint64_t retry_rungs = 0;          ///< total extra senses booked
  std::uint64_t recovered_reads = 0;      ///< ladder found a clean sense
  std::uint64_t unrecovered_reads = 0;    ///< ladder exhausted: data lost
  std::uint64_t lost_reads = 0;           ///< die/channel gone: data lost

  double MeanBitErrorsPerRead() const {
    return sampled_reads == 0
               ? 0.0
               : static_cast<double>(total_bit_errors) /
                     static_cast<double>(sampled_reads);
  }
};

/// Outcome of a checked page read.
struct MediaReadResult {
  Us done = 0;
  bool uncorrectable = false;  ///< ECC failed after the whole retry ladder
  bool die_lost = false;       ///< the die/channel no longer responds
  std::uint32_t retries = 0;   ///< extra senses spent in the ladder

  /// The stored data is gone (only ever true with fault handling armed).
  bool DataLost() const { return uncorrectable || die_lost; }
};

/// Outcome of a checked program / erase.
struct MediaOpResult {
  Us done = 0;
  bool failed = false;    ///< verify failed (or the die is lost)
  bool die_lost = false;
};

/// Knobs for how armed devices *handle* injected faults.
struct FaultHandlingConfig {
  /// Read-retry ladder depth: extra senses (each a full cell-read latency)
  /// tried after a first-sense ECC failure before declaring data loss.
  std::uint32_t max_read_retries = 4;
  /// Per-rung RBER multiplier (< 1): each retry shifts read thresholds and
  /// re-feeds the LayerErrorModel::Correctable budget at the reduced rate.
  double retry_rber_scale = 0.5;
  /// Re-allocation attempts for a failed page program before the write is
  /// abandoned as unrecoverable; 0 = auto (pages_per_block + 16, enough to
  /// burn past a dead-die frontier block).
  std::uint32_t max_program_retries = 0;

  void Validate() const;
};

class FlashTarget {
 public:
  FlashTarget(const nand::NandGeometry& geometry, const nand::NandTiming& timing,
              std::uint32_t endurance_pe_cycles = 1'000'000,
              TimingMode mode = TimingMode::kServiceTime);

  /// Reads a programmed page; returns the completion time of the data-out
  /// transfer.  `transfer_bytes` is how much of the page crosses the bus
  /// (sub-page host reads move only the requested bytes); 0 means the whole
  /// page.  Bit errors are sampled over the codewords the transfer actually
  /// decodes.  Throws MediaError on NAND protocol violations (FTL bugs).
  Us ReadPage(Ppn ppn, Us earliest, std::uint64_t transfer_bytes = 0);

  /// ReadPage plus fault semantics: runs the read-retry ladder on ECC
  /// failure (each rung books one extra cell sense) and reports data loss
  /// instead of only counting it.  `kind` attributes the sample to the host
  /// or GC error stats.
  MediaReadResult ReadPageChecked(Ppn ppn, Us earliest,
                                  std::uint64_t transfer_bytes = 0,
                                  ReadKind kind = ReadKind::kHost);

  /// Programs the next page of a block (ppn must respect sequential order);
  /// returns cell-program completion time.
  Us ProgramPage(Ppn ppn, Us earliest);

  /// ProgramPage plus fault semantics: reports injected verify failures and
  /// die loss.  The page is consumed either way (a failed program still
  /// burns the page), so block fill bookkeeping stays consistent.
  MediaOpResult ProgramPageChecked(Ppn ppn, Us earliest);

  /// Erases a block; returns completion time.
  Us EraseBlock(BlockId block, Us earliest);

  /// EraseBlock plus fault semantics: reports injected verify failures and
  /// die loss (the FTL retires the block as grown-bad).
  MediaOpResult EraseBlockChecked(BlockId block, Us earliest);

  /// Internal GC copy (read then program, no host transfer across the bus is
  /// saved because planes lack copy-back here): returns program completion.
  /// The read is attributed to the GC error stats.
  Us CopyPage(Ppn from, Ppn to, Us earliest);

  nand::NandDevice& nand() { return nand_; }
  const nand::NandDevice& nand() const { return nand_; }
  const nand::NandGeometry& geometry() const { return nand_.geometry(); }
  const nand::LatencyModel& latency_model() const {
    return nand_.latency_model();
  }

  const sim::ResourcePool& chips() const { return chips_; }
  const sim::ResourcePool& channels() const { return channels_; }
  const sim::ResourcePool& dies() const { return dies_; }
  /// First time the die serving `block` can start a new cell operation.
  /// The host scheduler uses this for conflict-aware dispatch ordering.
  /// Throws std::out_of_range for a block id >= TotalBlocks().
  Us DieFreeAt(BlockId block) const {
    return dies_.At(nand_.LocationOf(block).die).FreeAt();
  }
  TimingMode mode() const { return mode_; }

  /// Arms the synthetic layer error model: every subsequent page read
  /// samples bit errors at the page's layer/wear and checks the ECC budget.
  /// Without fault handling armed, uncorrectable reads are counted, not
  /// failed — the FTL study is about performance; reliability consumers
  /// inspect read_error_stats().  Must be called before any state restore:
  /// arming reseeds the error RNG and zeroes the stats, so arming *after*
  /// LoadState would silently discard restored state (throws
  /// std::logic_error instead).
  void ArmErrorModel(const nand::ErrorModelConfig& config,
                     std::uint64_t seed = 0x5EED);

  /// Arms seeded fault injection plus the handling policy.  Unlike
  /// ArmErrorModel this is safe (and typical) *after* a restore: fault
  /// campaigns restore one aged snapshot, then arm a per-arm fault plan.
  void ArmFaults(const nand::FaultPlanConfig& plan,
                 const FaultHandlingConfig& handling, std::uint64_t seed);

  bool ErrorModelArmed() const { return error_model_ != nullptr; }
  bool FaultsArmed() const { return faults_ != nullptr; }
  const nand::FaultInjector* fault_injector() const { return faults_.get(); }
  const FaultHandlingConfig& fault_handling() const { return handling_; }
  /// Total attempts (first + re-allocations) the FTL should spend on a page
  /// program before declaring the write unrecoverable; 1 when unarmed.
  std::uint32_t MaxProgramAttempts() const;

  /// Wires a media observer (borrowed; e.g. obs::Tracer) that sees read
  /// retry-ladder activity and dead-die accesses as they are booked on the
  /// timelines.  Null (the default) disables the hook.
  void AttachMediaHook(obs::MediaHook* hook) { media_hook_ = hook; }

  /// Host-attributed read error counters.
  const ReadErrorStats& read_error_stats() const { return error_stats_; }
  /// GC-relocation-attributed read error counters.
  const ReadErrorStats& gc_read_error_stats() const { return gc_error_stats_; }

  /// Serializes the NAND array, occupancy timelines, error RNG stream,
  /// host/GC error counters, and (when armed) the fault injector + handling
  /// policy.  Construction-derived values (transfer time, mode, error-model
  /// config) are not serialized; LoadState assumes a target built from the
  /// same configuration and re-arms fault state to match the snapshot.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  ReadErrorStats& StatsFor(ReadKind kind) {
    return kind == ReadKind::kGc ? gc_error_stats_ : error_stats_;
  }
  static void SaveReadStats(util::StateWriter& w, const ReadErrorStats& s);
  static void LoadReadStats(util::StateReader& r, ReadErrorStats& s);

  nand::NandDevice nand_;
  sim::ResourcePool chips_;
  sim::ResourcePool channels_;
  sim::ResourcePool dies_;
  Us page_transfer_us_;
  TimingMode mode_;
  std::unique_ptr<nand::LayerErrorModel> error_model_;
  util::Xoshiro256StarStar error_rng_;
  ReadErrorStats error_stats_;     // host-attributed
  ReadErrorStats gc_error_stats_;  // GC-attributed
  std::unique_ptr<nand::FaultInjector> faults_;
  FaultHandlingConfig handling_;
  bool state_restored_ = false;
  obs::MediaHook* media_hook_ = nullptr;  ///< borrowed; null = disabled
};

}  // namespace ctflash::ftl
