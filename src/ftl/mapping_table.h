// Page-level logical-to-physical mapping with a reverse map for GC.
//
// Invariant: forward and reverse maps are mutually consistent — if
// Lookup(lpn) == ppn != kInvalidPpn then LpnOf(ppn) == lpn, and every mapped
// ppn has exactly one owner.  CheckConsistent() verifies this in O(n) and is
// exercised by the property tests.
#pragma once

#include <cstdint>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::ftl {

class MappingTable {
 public:
  MappingTable(std::uint64_t logical_pages, std::uint64_t physical_pages);

  std::uint64_t logical_pages() const { return forward_.size(); }
  std::uint64_t physical_pages() const { return reverse_.size(); }

  /// Current physical page of `lpn`, or kInvalidPpn when unmapped.
  Ppn Lookup(Lpn lpn) const;

  /// Owner of a physical page, or kInvalidLpn when free/invalidated.
  Lpn LpnOf(Ppn ppn) const;

  bool IsMapped(Lpn lpn) const { return Lookup(lpn) != kInvalidPpn; }

  /// Points `lpn` at `ppn`; returns the previous ppn (kInvalidPpn when the
  /// lpn was unmapped).  The previous physical page's reverse entry is
  /// cleared — the caller is responsible for marking it invalid in the
  /// block accounting.
  Ppn Update(Lpn lpn, Ppn ppn);

  /// Unmaps an lpn (trim); returns the released ppn or kInvalidPpn.
  Ppn Unmap(Lpn lpn);

  /// Clears the reverse entry of a relocated source page (GC move completed
  /// via Update on the destination).
  void ReleasePpn(Ppn ppn);

  std::uint64_t mapped_count() const { return mapped_; }

  /// Bumped by every forward-map change (Update, an Unmap that released a
  /// page, LoadState).  Lets a reader that resolved lpns earlier (the host
  /// scheduler's read index) detect that its resolutions may be stale with
  /// one comparison.  Not part of the serialized state.
  std::uint64_t change_count() const { return changes_; }

  /// Full O(n) cross-check of forward/reverse consistency.
  bool CheckConsistent() const;

  /// Serializes forward/reverse maps; LoadState throws on size mismatch.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  std::vector<Ppn> forward_;
  std::vector<Lpn> reverse_;
  std::uint64_t mapped_ = 0;
  std::uint64_t changes_ = 0;
};

}  // namespace ctflash::ftl
