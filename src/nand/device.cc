#include "nand/device.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ctflash::nand {

const char* NandStatusName(NandStatus status) {
  switch (status) {
    case NandStatus::kOk:
      return "kOk";
    case NandStatus::kInvalidAddress:
      return "kInvalidAddress";
    case NandStatus::kProgramOutOfOrder:
      return "kProgramOutOfOrder";
    case NandStatus::kProgramPageNotFree:
      return "kProgramPageNotFree";
    case NandStatus::kReadFreePage:
      return "kReadFreePage";
    case NandStatus::kBlockBad:
      return "kBlockBad";
  }
  return "?";
}

NandDevice::NandDevice(const NandGeometry& geometry, const NandTiming& timing,
                       std::uint32_t endurance_pe_cycles)
    : latency_(geometry, timing),
      endurance_(endurance_pe_cycles),
      blocks_(geometry.TotalBlocks()) {
  locations_.reserve(blocks_.size());
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    locations_.push_back(BlockLocation{
        geometry.PlaneOfBlock(b),
        static_cast<std::uint32_t>(geometry.DieOfBlock(b)),
        static_cast<std::uint32_t>(geometry.ChipOfBlock(b)),
        geometry.ChannelOfBlock(b)});
  }
}

NandStatus NandDevice::Program(Ppn ppn, Us* op_us) {
  const BlockId block = geometry().BlockOf(ppn);
  if (!ValidBlock(block)) return NandStatus::kInvalidAddress;
  const std::uint32_t page = geometry().PageOf(ppn);
  BlockState& st = blocks_[block];
  if (st.bad) return NandStatus::kBlockBad;
  if (page < st.next_page) return NandStatus::kProgramPageNotFree;
  if (page > st.next_page) return NandStatus::kProgramOutOfOrder;
  st.next_page = page + 1;
  const Us t = latency_.ProgramUs(page);
  counters_.programs++;
  counters_.program_time_us += t;
  if (op_us != nullptr) *op_us = t;
  return NandStatus::kOk;
}

NandStatus NandDevice::Read(Ppn ppn, Us* op_us) const {
  const BlockId block = geometry().BlockOf(ppn);
  if (!ValidBlock(block)) return NandStatus::kInvalidAddress;
  const std::uint32_t page = geometry().PageOf(ppn);
  const BlockState& st = blocks_[block];
  if (st.bad) return NandStatus::kBlockBad;
  if (page >= st.next_page) return NandStatus::kReadFreePage;
  const Us t = latency_.ReadUs(page);
  counters_.reads++;
  counters_.read_time_us += t;
  if (op_us != nullptr) *op_us = t;
  return NandStatus::kOk;
}

NandStatus NandDevice::Erase(BlockId block, Us* op_us) {
  if (!ValidBlock(block)) return NandStatus::kInvalidAddress;
  BlockState& st = blocks_[block];
  if (st.bad) return NandStatus::kBlockBad;
  st.next_page = 0;
  st.pe_cycles++;
  if (st.pe_cycles >= endurance_) st.bad = true;
  const Us t = latency_.EraseUs();
  counters_.erases++;
  counters_.erase_time_us += t;
  if (op_us != nullptr) *op_us = t;
  return NandStatus::kOk;
}

void NandDevice::MarkBad(BlockId block) {
  if (!ValidBlock(block)) throw std::out_of_range("MarkBad: block out of range");
  blocks_[block].bad = true;
}

std::uint32_t NandDevice::NextProgramPage(BlockId block) const {
  if (!ValidBlock(block)) {
    throw std::out_of_range("NextProgramPage: block out of range");
  }
  return blocks_[block].next_page;
}

bool NandDevice::IsBlockFull(BlockId block) const {
  return NextProgramPage(block) == geometry().pages_per_block;
}

bool NandDevice::IsBlockErased(BlockId block) const {
  return NextProgramPage(block) == 0;
}

bool NandDevice::IsPageProgrammed(Ppn ppn) const {
  if (!ValidPpn(ppn)) throw std::out_of_range("IsPageProgrammed: bad ppn");
  return geometry().PageOf(ppn) < blocks_[geometry().BlockOf(ppn)].next_page;
}

std::uint32_t NandDevice::PeCycles(BlockId block) const {
  if (!ValidBlock(block)) throw std::out_of_range("PeCycles: block out of range");
  return blocks_[block].pe_cycles;
}

bool NandDevice::IsBlockBad(BlockId block) const {
  if (!ValidBlock(block)) throw std::out_of_range("IsBlockBad: block out of range");
  return blocks_[block].bad;
}

WearSummary NandDevice::Wear() const {
  WearSummary wear;
  for (const BlockState& b : blocks_) {
    wear.total_erases += b.pe_cycles;
    wear.max_pe_cycles = std::max(wear.max_pe_cycles, b.pe_cycles);
    if (b.bad) ++wear.bad_blocks;
  }
  return wear;
}

void NandDevice::SaveState(util::StateWriter& w) const {
  w.Tag("NAND");
  w.PutU64(blocks_.size());
  for (const BlockState& b : blocks_) {
    w.PutU32(b.next_page);
    w.PutU32(b.pe_cycles);
    w.PutBool(b.bad);
  }
  w.PutU64(counters_.reads);
  w.PutU64(counters_.programs);
  w.PutU64(counters_.erases);
  w.PutI64(counters_.read_time_us);
  w.PutI64(counters_.program_time_us);
  w.PutI64(counters_.erase_time_us);
}

void NandDevice::LoadState(util::StateReader& r) {
  r.ExpectTag("NAND");
  const std::uint64_t n = r.GetU64();
  if (n != blocks_.size()) {
    throw std::runtime_error("snapshot: NAND block count mismatch (have " +
                             std::to_string(blocks_.size()) + ", state " +
                             std::to_string(n) + ")");
  }
  for (BlockState& b : blocks_) {
    b.next_page = r.GetU32();
    b.pe_cycles = r.GetU32();
    b.bad = r.GetBool();
  }
  counters_.reads = r.GetU64();
  counters_.programs = r.GetU64();
  counters_.erases = r.GetU64();
  counters_.read_time_us = r.GetI64();
  counters_.program_time_us = r.GetI64();
  counters_.erase_time_us = r.GetI64();
}

}  // namespace ctflash::nand
