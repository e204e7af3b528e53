// DieView: the die-striped write path's borrowed view of which die each
// block sits on (NandDevice's location table) and when each die is next
// free (FlashTarget's die pool).  Two pointers, copied freely; built by
// FlashTarget::die_view(), or by tests over their own tables.  Both tables
// must outlive the view and stay put: NandDevice never reassigns its table
// and ResourcePool::LoadState loads in place, so restores keep it valid.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/device.h"
#include "sim/resource.h"
#include "util/types.h"

namespace ctflash::ftl {

class DieView {
 public:
  DieView() = default;  ///< no device: DieCount() is 0, no lookups allowed
  DieView(const std::vector<nand::BlockLocation>& locations,
          const sim::ResourcePool& dies)
      : locations_(&locations), dies_(&dies) {}

  /// Both lookups throw std::out_of_range for a block past the table.
  std::uint64_t DieOf(BlockId block) const {
    return locations_->at(block).die;
  }
  Us FreeAt(BlockId block) const { return dies_->At(DieOf(block)).FreeAt(); }
  std::uint64_t DieCount() const { return dies_ ? dies_->Count() : 0; }

 private:
  const std::vector<nand::BlockLocation>* locations_ = nullptr;
  const sim::ResourcePool* dies_ = nullptr;
};

}  // namespace ctflash::ftl
