#include "ftl/mapping_table.h"

#include <stdexcept>
#include <string>

namespace ctflash::ftl {

MappingTable::MappingTable(std::uint64_t logical_pages,
                           std::uint64_t physical_pages)
    : forward_(logical_pages, kInvalidPpn), reverse_(physical_pages, kInvalidLpn) {
  if (logical_pages == 0 || physical_pages == 0) {
    throw std::invalid_argument("MappingTable: zero-sized table");
  }
  if (logical_pages > physical_pages) {
    throw std::invalid_argument(
        "MappingTable: logical space exceeds physical space");
  }
}

Ppn MappingTable::Lookup(Lpn lpn) const {
  if (lpn >= forward_.size()) throw std::out_of_range("MappingTable::Lookup");
  return forward_[lpn];
}

Lpn MappingTable::LpnOf(Ppn ppn) const {
  if (ppn >= reverse_.size()) throw std::out_of_range("MappingTable::LpnOf");
  return reverse_[ppn];
}

Ppn MappingTable::Update(Lpn lpn, Ppn ppn) {
  if (lpn >= forward_.size()) throw std::out_of_range("MappingTable::Update lpn");
  if (ppn >= reverse_.size()) throw std::out_of_range("MappingTable::Update ppn");
  if (reverse_[ppn] != kInvalidLpn) {
    throw std::logic_error("MappingTable::Update: ppn already owned");
  }
  const Ppn old = forward_[lpn];
  if (old != kInvalidPpn) {
    reverse_[old] = kInvalidLpn;
  } else {
    ++mapped_;
  }
  forward_[lpn] = ppn;
  reverse_[ppn] = lpn;
  ++changes_;
  return old;
}

Ppn MappingTable::Unmap(Lpn lpn) {
  if (lpn >= forward_.size()) throw std::out_of_range("MappingTable::Unmap");
  const Ppn old = forward_[lpn];
  if (old != kInvalidPpn) {
    reverse_[old] = kInvalidLpn;
    forward_[lpn] = kInvalidPpn;
    --mapped_;
    ++changes_;
  }
  return old;
}

void MappingTable::ReleasePpn(Ppn ppn) {
  if (ppn >= reverse_.size()) throw std::out_of_range("MappingTable::ReleasePpn");
  reverse_[ppn] = kInvalidLpn;
}

bool MappingTable::CheckConsistent() const {
  std::uint64_t mapped = 0;
  for (Lpn lpn = 0; lpn < forward_.size(); ++lpn) {
    const Ppn ppn = forward_[lpn];
    if (ppn == kInvalidPpn) continue;
    ++mapped;
    if (ppn >= reverse_.size()) return false;
    if (reverse_[ppn] != lpn) return false;
  }
  if (mapped != mapped_) return false;
  for (Ppn ppn = 0; ppn < reverse_.size(); ++ppn) {
    const Lpn lpn = reverse_[ppn];
    if (lpn == kInvalidLpn) continue;
    if (lpn >= forward_.size()) return false;
    if (forward_[lpn] != ppn) return false;
  }
  return true;
}


void MappingTable::SaveState(util::StateWriter& w) const {
  w.Tag("MAPT");
  w.PutU64Seq(forward_);
  w.PutU64Seq(reverse_);
  w.PutU64(mapped_);
}

void MappingTable::LoadState(util::StateReader& r) {
  r.ExpectTag("MAPT");
  const std::vector<std::uint64_t> fwd = r.GetU64Seq();
  const std::vector<std::uint64_t> rev = r.GetU64Seq();
  if (fwd.size() != forward_.size() || rev.size() != reverse_.size()) {
    throw std::runtime_error("snapshot: mapping table size mismatch (have " +
                             std::to_string(forward_.size()) + "/" +
                             std::to_string(reverse_.size()) + ", state " +
                             std::to_string(fwd.size()) + "/" +
                             std::to_string(rev.size()) + ")");
  }
  forward_.assign(fwd.begin(), fwd.end());
  reverse_.assign(rev.begin(), rev.end());
  mapped_ = r.GetU64();
  ++changes_;
}

}  // namespace ctflash::ftl
