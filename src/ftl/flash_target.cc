#include "ftl/flash_target.h"

#include <string>

#include "obs/media_hook.h"

namespace ctflash::ftl {

void FaultHandlingConfig::Validate() const {
  if (retry_rber_scale <= 0.0 || retry_rber_scale >= 1.0) {
    throw std::invalid_argument(
        "FaultHandlingConfig: retry_rber_scale must be in (0,1)");
  }
}

FlashTarget::FlashTarget(const nand::NandGeometry& geometry,
                         const nand::NandTiming& timing,
                         std::uint32_t endurance_pe_cycles, TimingMode mode)
    : nand_(geometry, timing, endurance_pe_cycles),
      chips_(geometry.TotalChips()),
      channels_(geometry.channels),
      dies_(geometry.TotalDies()),
      page_transfer_us_(
          nand_.latency_model().TransferUs(geometry.page_size_bytes)),
      mode_(mode) {}

namespace {

[[noreturn]] void ThrowProtocolViolation(const char* op, std::uint64_t id,
                                         nand::NandStatus st) {
  throw MediaError(std::string("FlashTarget::") + op + "(" +
                   std::to_string(id) + "): " + nand::NandStatusName(st));
}

}  // namespace

Us FlashTarget::ReadPage(Ppn ppn, Us earliest, std::uint64_t transfer_bytes) {
  return ReadPageChecked(ppn, earliest, transfer_bytes, ReadKind::kHost).done;
}

MediaReadResult FlashTarget::ReadPageChecked(Ppn ppn, Us earliest,
                                             std::uint64_t transfer_bytes,
                                             ReadKind kind) {
  MediaReadResult out;
  const BlockId block = geometry().BlockOf(ppn);
  if (faults_ != nullptr &&
      faults_->Unreachable(nand_.LocationOf(block).die, earliest)) {
    // The die no longer responds: the command times out without touching
    // the array or the timelines.
    StatsFor(kind).lost_reads++;
    if (media_hook_ != nullptr) {
      media_hook_->OnUnreachable(nand_.LocationOf(block).die, earliest);
    }
    out.done = earliest;
    out.die_lost = true;
    return out;
  }
  Us cell_us = 0;
  const nand::NandStatus st = nand_.Read(ppn, &cell_us);
  if (st != nand::NandStatus::kOk) ThrowProtocolViolation("ReadPage", ppn, st);
  const nand::BlockLocation& loc = nand_.LocationOf(block);
  const Us xfer_us =
      transfer_bytes == 0 || transfer_bytes >= geometry().page_size_bytes
          ? page_transfer_us_
          : nand_.latency_model().TransferUs(transfer_bytes);
  std::uint32_t extra_senses = 0;
  if (error_model_ != nullptr) {
    ReadErrorStats& stats = StatsFor(kind);
    const std::uint32_t page = geometry().PageOf(ppn);
    const std::uint32_t pe = nand_.PeCycles(block);
    double scale = faults_ != nullptr ? faults_->RberScale(block) : 1.0;
    const std::uint64_t bits = error_model_->SampleBitErrors(
        page, pe, error_rng_, transfer_bytes, scale);
    stats.sampled_reads++;
    stats.total_bit_errors += bits;
    if (!error_model_->Correctable(bits, transfer_bytes)) {
      stats.uncorrectable_reads++;  // first-sense semantics
      if (faults_ != nullptr) {
        // Read-retry ladder: each rung shifts read thresholds (modeled as a
        // reduced RBER) and re-senses at full cell latency.
        stats.retried_reads++;
        bool recovered = false;
        for (std::uint32_t r = 0; r < handling_.max_read_retries; ++r) {
          ++extra_senses;
          stats.retry_rungs++;
          scale *= handling_.retry_rber_scale;
          const std::uint64_t retry_bits = error_model_->SampleBitErrors(
              page, pe, error_rng_, transfer_bytes, scale);
          if (error_model_->Correctable(retry_bits, transfer_bytes)) {
            recovered = true;
            break;
          }
        }
        if (recovered) {
          stats.recovered_reads++;
        } else {
          stats.unrecovered_reads++;
          out.uncorrectable = true;
        }
      }
      // Without fault handling armed the failure is counted, not surfaced
      // (legacy reliability-probe semantics).
    }
  }
  if (faults_ != nullptr) faults_->OnRead(block);
  out.retries = extra_senses;
  const Us total_cell_us = cell_us * static_cast<Us>(1 + extra_senses);
  auto& chip = chips_.At(loc.chip);
  auto& channel = channels_.At(loc.channel);
  auto& die = dies_.At(loc.die);
  if (mode_ == TimingMode::kServiceTime) {
    chip.Reserve(chip.FreeAt(), total_cell_us);     // busy-time accounting only
    die.Reserve(die.FreeAt(), total_cell_us);
    channel.Reserve(channel.FreeAt(), xfer_us);
    if (media_hook_ != nullptr && extra_senses > 0) {
      // The retry ladder occupies the die after the first sense.
      media_hook_->OnReadRetry(loc.die, earliest + cell_us,
                               cell_us * static_cast<Us>(extra_senses),
                               extra_senses, !out.uncorrectable);
    }
    out.done = earliest + total_cell_us + xfer_us;
    return out;
  }
  const sim::Interval cell = die.Reserve(earliest, total_cell_us);
  chip.Reserve(chip.FreeAt(), total_cell_us);       // busy-time accounting only
  const sim::Interval xfer = channel.Reserve(cell.end, xfer_us);
  if (media_hook_ != nullptr && extra_senses > 0) {
    media_hook_->OnReadRetry(loc.die, cell.start + cell_us,
                             cell_us * static_cast<Us>(extra_senses),
                             extra_senses, !out.uncorrectable);
  }
  out.done = xfer.end;
  return out;
}

Us FlashTarget::ProgramPage(Ppn ppn, Us earliest) {
  return ProgramPageChecked(ppn, earliest).done;
}

MediaOpResult FlashTarget::ProgramPageChecked(Ppn ppn, Us earliest) {
  MediaOpResult out;
  const BlockId block = geometry().BlockOf(ppn);
  const bool unreachable =
      faults_ != nullptr &&
      faults_->Unreachable(nand_.LocationOf(block).die, earliest);
  // The page is consumed even on failure (a failed verify still burns the
  // page; for a lost die we keep the fill bookkeeping consistent so the
  // allocator can burn past its dead frontier blocks).
  Us cell_us = 0;
  const nand::NandStatus st = nand_.Program(ppn, &cell_us);
  if (st != nand::NandStatus::kOk) {
    ThrowProtocolViolation("ProgramPage", ppn, st);
  }
  const nand::BlockLocation& loc = nand_.LocationOf(block);
  auto& chip = chips_.At(loc.chip);
  auto& channel = channels_.At(loc.channel);
  auto& die = dies_.At(loc.die);
  if (mode_ == TimingMode::kServiceTime) {
    channel.Reserve(channel.FreeAt(), page_transfer_us_);
    chip.Reserve(chip.FreeAt(), cell_us);
    die.Reserve(die.FreeAt(), cell_us);
    out.done = earliest + page_transfer_us_ + cell_us;
  } else {
    const sim::Interval xfer = channel.Reserve(earliest, page_transfer_us_);
    const sim::Interval cell = die.Reserve(xfer.end, cell_us);
    chip.Reserve(chip.FreeAt(), cell_us);           // busy-time accounting only
    out.done = cell.end;
  }
  if (unreachable) {
    out.failed = true;
    out.die_lost = true;
  } else if (faults_ != nullptr && faults_->DrawProgramFail()) {
    out.failed = true;
  }
  return out;
}

void FlashTarget::ArmErrorModel(const nand::ErrorModelConfig& config,
                                std::uint64_t seed) {
  if (state_restored_) {
    throw std::logic_error(
        "FlashTarget::ArmErrorModel: called after a state restore; arming "
        "reseeds the error RNG and zeroes the error stats, which would "
        "silently discard the restored state.  Arm before Restore (Ssd arms "
        "at construction).");
  }
  error_model_ = std::make_unique<nand::LayerErrorModel>(geometry(), config);
  error_rng_.Reseed(seed);
  error_stats_ = ReadErrorStats{};
  gc_error_stats_ = ReadErrorStats{};
}

void FlashTarget::ArmFaults(const nand::FaultPlanConfig& plan,
                            const FaultHandlingConfig& handling,
                            std::uint64_t seed) {
  handling.Validate();
  faults_ = std::make_unique<nand::FaultInjector>(geometry(), plan, seed);
  handling_ = handling;
}

std::uint32_t FlashTarget::MaxProgramAttempts() const {
  if (faults_ == nullptr) return 1;
  if (handling_.max_program_retries != 0) {
    return handling_.max_program_retries + 1;
  }
  return geometry().pages_per_block + 16;
}

Us FlashTarget::EraseBlock(BlockId block, Us earliest) {
  return EraseBlockChecked(block, earliest).done;
}

MediaOpResult FlashTarget::EraseBlockChecked(BlockId block, Us earliest) {
  MediaOpResult out;
  const bool unreachable =
      faults_ != nullptr &&
      faults_->Unreachable(nand_.LocationOf(block).die, earliest);
  // Like programs, the erase executes behaviourally even when it then fails
  // verify (or the die is gone): pages reset and P/E bumps, so fill
  // bookkeeping stays consistent; the caller retires the block.
  Us erase_us = 0;
  const nand::NandStatus st = nand_.Erase(block, &erase_us);
  if (st != nand::NandStatus::kOk) {
    ThrowProtocolViolation("EraseBlock", block, st);
  }
  const nand::BlockLocation& loc = nand_.LocationOf(block);
  auto& chip = chips_.At(loc.chip);
  auto& die = dies_.At(loc.die);
  if (mode_ == TimingMode::kServiceTime) {
    chip.Reserve(chip.FreeAt(), erase_us);
    die.Reserve(die.FreeAt(), erase_us);
    out.done = earliest + erase_us;
  } else {
    const sim::Interval cell = die.Reserve(earliest, erase_us);
    chip.Reserve(chip.FreeAt(), erase_us);          // busy-time accounting only
    out.done = cell.end;
  }
  if (faults_ != nullptr) {
    faults_->OnErase(block);
    if (unreachable) {
      out.failed = true;
      out.die_lost = true;
    } else if (faults_->DrawEraseFail()) {
      out.failed = true;
    }
  }
  return out;
}

void FlashTarget::SaveReadStats(util::StateWriter& w,
                                const ReadErrorStats& s) {
  w.PutU64(s.sampled_reads);
  w.PutU64(s.total_bit_errors);
  w.PutU64(s.uncorrectable_reads);
  w.PutU64(s.retried_reads);
  w.PutU64(s.retry_rungs);
  w.PutU64(s.recovered_reads);
  w.PutU64(s.unrecovered_reads);
  w.PutU64(s.lost_reads);
}

void FlashTarget::LoadReadStats(util::StateReader& r, ReadErrorStats& s) {
  s.sampled_reads = r.GetU64();
  s.total_bit_errors = r.GetU64();
  s.uncorrectable_reads = r.GetU64();
  s.retried_reads = r.GetU64();
  s.retry_rungs = r.GetU64();
  s.recovered_reads = r.GetU64();
  s.unrecovered_reads = r.GetU64();
  s.lost_reads = r.GetU64();
}

void FlashTarget::SaveState(util::StateWriter& w) const {
  w.Tag("FTGT");
  nand_.SaveState(w);
  chips_.SaveState(w);
  channels_.SaveState(w);
  dies_.SaveState(w);
  error_rng_.SaveState(w);
  SaveReadStats(w, error_stats_);
  SaveReadStats(w, gc_error_stats_);
  w.PutBool(faults_ != nullptr);
  if (faults_ != nullptr) {
    w.PutU32(handling_.max_read_retries);
    w.PutDouble(handling_.retry_rber_scale);
    w.PutU32(handling_.max_program_retries);
    faults_->SaveState(w);
  }
}

void FlashTarget::LoadState(util::StateReader& r) {
  r.ExpectTag("FTGT");
  nand_.LoadState(r);
  chips_.LoadState(r);
  channels_.LoadState(r);
  dies_.LoadState(r);
  error_rng_.LoadState(r);
  LoadReadStats(r, error_stats_);
  LoadReadStats(r, gc_error_stats_);
  if (r.GetBool()) {
    handling_.max_read_retries = r.GetU32();
    handling_.retry_rber_scale = r.GetDouble();
    handling_.max_program_retries = r.GetU32();
    handling_.Validate();
    // Rebuild the injector from the serialized plan so a mid-campaign
    // snapshot resumes the same fault schedule.
    faults_ = std::make_unique<nand::FaultInjector>(
        geometry(), nand::FaultPlanConfig{}, /*seed=*/0);
    faults_->LoadState(r);
  } else {
    faults_.reset();
  }
  state_restored_ = true;
}

}  // namespace ctflash::ftl
