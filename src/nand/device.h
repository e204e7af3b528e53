// Behavioural model of the NAND array: page/block state, command execution
// with flash-constraint enforcement, and operation timing.
//
// Enforced constraints (violations return a NandStatus error, they never
// silently corrupt state):
//  * erase-before-write: a page can be programmed exactly once per P/E cycle;
//  * in-block sequential programming: page p can be programmed only when all
//    pages < p of the block are already programmed (one-shot order, the
//    constraint the paper's virtual-block lifecycle revolves around);
//  * reads target programmed pages only;
//  * erase operates on whole blocks and resets their program pointer.
//
// The device also tallies per-operation counters and P/E cycles per block,
// which the FTL layers and the figure benches consume.
//
// Each block's place in the channel > chip > die > plane hierarchy is
// decoded once, at construction, from NandGeometry's flat-index arithmetic
// into a table beside the block state (LocationOf); the page-latency
// tables live in LatencyModel.  Per-operation code reads both instead of
// re-dividing block and page indices.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/geometry.h"
#include "nand/latency_model.h"
#include "util/serial.h"
#include "util/types.h"

namespace ctflash::nand {

enum class NandStatus {
  kOk = 0,
  kInvalidAddress,       ///< ppn/block outside the geometry
  kProgramOutOfOrder,    ///< violates in-block sequential-program order
  kProgramPageNotFree,   ///< page already programmed since last erase
  kReadFreePage,         ///< read of a never-programmed page
  kBlockBad,             ///< block retired (exceeded endurance budget)
};

const char* NandStatusName(NandStatus status);

/// Where a block sits, as NandGeometry decodes it.  Each field holds the
/// value of the geometry function named beside it.
struct BlockLocation {
  std::uint32_t plane = 0;    ///< plane within its die (PlaneOfBlock)
  std::uint32_t die = 0;      ///< global die index (DieOfBlock)
  std::uint32_t chip = 0;     ///< global chip index (ChipOfBlock)
  std::uint32_t channel = 0;  ///< channel index (ChannelOfBlock)
};

/// Aggregate operation counters.
struct NandCounters {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  Us read_time_us = 0;
  Us program_time_us = 0;
  Us erase_time_us = 0;
};

/// Device-wide wear digest (health telemetry: obs::HealthMonitor scores
/// the erase tally against the endurance budget).
struct WearSummary {
  std::uint64_t total_erases = 0;   ///< sum of per-block P/E cycles
  std::uint32_t max_pe_cycles = 0;  ///< hottest block
  std::uint64_t bad_blocks = 0;     ///< retired (endurance or grown bad)
};

class NandDevice {
 public:
  NandDevice(const NandGeometry& geometry, const NandTiming& timing,
             std::uint32_t endurance_pe_cycles = 3000);

  const NandGeometry& geometry() const { return latency_.geometry(); }
  const LatencyModel& latency_model() const { return latency_; }

  /// Programs one page; on success `*op_us` (if non-null) receives the cell
  /// program time (transfer time is accounted by the SSD channel model).
  NandStatus Program(Ppn ppn, Us* op_us = nullptr);

  /// Reads one page.
  NandStatus Read(Ppn ppn, Us* op_us = nullptr) const;

  /// Erases a block, resetting all its pages to free and bumping P/E.
  NandStatus Erase(BlockId block, Us* op_us = nullptr);

  /// Marks a block bad out-of-band (grown bad block: failed program/erase
  /// verify under fault injection).  Every later op on it returns kBlockBad.
  void MarkBad(BlockId block);

  /// Decoded location of a block; throws std::out_of_range for a block id
  /// >= TotalBlocks().
  const BlockLocation& LocationOf(BlockId block) const {
    return locations_.at(block);
  }
  /// The whole table, indexed by block id (ftl::DieView borrows it).
  const std::vector<BlockLocation>& locations() const { return locations_; }

  // --- state queries ------------------------------------------------------
  /// Next page index the block's program pointer allows (== pages_per_block
  /// when the block is full).
  std::uint32_t NextProgramPage(BlockId block) const;
  bool IsBlockFull(BlockId block) const;
  bool IsBlockErased(BlockId block) const;
  bool IsPageProgrammed(Ppn ppn) const;
  std::uint32_t PeCycles(BlockId block) const;
  bool IsBlockBad(BlockId block) const;
  std::uint32_t endurance_pe_cycles() const { return endurance_; }

  /// One pass over the block table: total/max P/E and the bad-block tally.
  WearSummary Wear() const;

  std::uint64_t TotalBlocks() const { return geometry().TotalBlocks(); }

  const NandCounters& counters() const { return counters_; }
  /// Resets the counters but not the array state.
  void ResetCounters() { counters_ = NandCounters{}; }

  /// Serializes per-block program pointers / P/E cycles / bad flags plus the
  /// operation counters.  LoadState throws when the block count mismatches.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  struct BlockState {
    std::uint32_t next_page = 0;
    std::uint32_t pe_cycles = 0;
    bool bad = false;
  };

  bool ValidPpn(Ppn ppn) const { return ValidBlock(geometry().BlockOf(ppn)); }
  bool ValidBlock(BlockId b) const { return b < blocks_.size(); }

  LatencyModel latency_;
  std::uint32_t endurance_;
  std::vector<BlockState> blocks_;
  std::vector<BlockLocation> locations_;  ///< one per block, never changes
  mutable NandCounters counters_;
};

}  // namespace ctflash::nand
