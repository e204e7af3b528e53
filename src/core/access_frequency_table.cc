#include "core/access_frequency_table.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::core {

AccessFrequencyTable::AccessFrequencyTable(std::uint32_t promote_threshold,
                                           std::size_t capacity,
                                           std::uint64_t lpn_bound)
    : promote_threshold_(promote_threshold), capacity_(capacity) {
  if (promote_threshold == 0 || capacity == 0 || lpn_bound >> 32 != 0) {
    throw std::invalid_argument(
        "AccessFrequencyTable: promote_threshold and capacity must be > 0 "
        "and lpn_bound below 2^32");
  }
  freq_.resize(lpn_bound, 0);
  tracked_.resize(lpn_bound, 0);
}

void AccessFrequencyTable::MaybeDecay() {
  if (size_ < capacity_) return;
  ++decays_;
  for (std::size_t lpn = 0; lpn < freq_.size(); ++lpn) {
    freq_[lpn] /= 2;
    if (freq_[lpn] == 0) Erase(lpn);
  }
  // Pathological case: every entry still above zero after halving.  Drop
  // the lowest lpns until there is room (they are all popular).
  for (Lpn lpn = 0; size_ >= capacity_; ++lpn) Erase(lpn);
}

void AccessFrequencyTable::Register(Lpn lpn, std::uint32_t initial_frequency) {
  if (tracked_[lpn] == 0) {
    MaybeDecay();
    tracked_[lpn] = 1;
    ++size_;
  }
  freq_[lpn] = initial_frequency;
}

std::uint32_t AccessFrequencyTable::OnRead(Lpn lpn) {
  // An untracked page counts 0, so its first read registers it at 1.
  const std::uint32_t count = freq_[lpn];
  Register(lpn, count == ~0u ? count : count + 1);
  return freq_[lpn];
}

void AccessFrequencyTable::Erase(Lpn lpn) {
  if (tracked_[lpn] == 0) return;
  tracked_[lpn] = 0;
  freq_[lpn] = 0;
  --size_;
}

void AccessFrequencyTable::SaveState(util::StateWriter& w) const {
  w.Tag("FREQ");
  w.PutU64(size_);
  for (Lpn lpn = 0; lpn < freq_.size(); ++lpn) {
    if (tracked_[lpn] == 0) continue;
    w.PutU64(lpn);
    w.PutU32(freq_[lpn]);
  }
  w.PutU64(decays_);
}

void AccessFrequencyTable::LoadState(util::StateReader& r) {
  r.ExpectTag("FREQ");
  const std::uint64_t n = r.GetCount();
  if (n > capacity_) {
    throw std::runtime_error("snapshot: frequency table over capacity (" +
                             std::to_string(n) + " entries)");
  }
  AccessFrequencyTable loaded(promote_threshold_, capacity_, freq_.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    const Lpn lpn = r.GetU64();
    const bool in_range = lpn < freq_.size();
    if (!in_range || loaded.Contains(lpn)) {
      throw std::runtime_error("snapshot: frequency lpn " + std::to_string(lpn) +
                               (in_range ? " listed twice" : " out of range"));
    }
    loaded.tracked_[lpn] = 1;
    loaded.freq_[lpn] = r.GetU32();
    ++loaded.size_;
  }
  loaded.decays_ = r.GetU64();
  *this = std::move(loaded);
}

}  // namespace ctflash::core
