// Access-frequency table for the cold data area (paper Fig. 11(a)).
//
// Logs per-chunk read counts for data the first stage classified cold.
// Chunks whose read frequency reaches `promote_threshold` are "cold"
// (write-once-read-MANY -> fast pages); the rest are "icy-cold"
// (write-once-read-few -> slow pages).  A write resets the counter — the
// data is new content whose popularity is unknown again.
//
// The table is capacity-bounded.  On overflow all counters are halved and
// zero entries dropped (classic aging), which both bounds memory and lets
// stale popularity decay, standing in for the paper's "sorted by logged
// access frequency" maintenance.
//
// The table is a 32-bit counter and a tracked flag per LPN plus a live count;
// untracked pages count 0.  Operations take lpn < lpn_bound unchecked.
#pragma once

#include <cstdint>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::core {

class AccessFrequencyTable {
 public:
  /// lpn_bound must be below 2^32.
  AccessFrequencyTable(std::uint32_t promote_threshold, std::size_t capacity,
                       std::uint64_t lpn_bound);

  /// Registers (or re-registers) newly written cold data; counter resets.
  void OnWrite(Lpn lpn) { Register(lpn, 0); }

  /// Registers an entry with an explicit popularity seed (used when data is
  /// demoted from the hot area with known read history).
  void Register(Lpn lpn, std::uint32_t initial_frequency);

  /// Increments and returns the read counter (registering if unknown).
  std::uint32_t OnRead(Lpn lpn);

  /// Current read count (0 when untracked).
  std::uint32_t FrequencyOf(Lpn lpn) const { return freq_[lpn]; }
  bool Contains(Lpn lpn) const { return tracked_[lpn] != 0; }

  /// Second-level classification: cold (true) vs icy-cold (false).
  bool IsCold(Lpn lpn) const { return freq_[lpn] >= promote_threshold_; }

  void Erase(Lpn lpn);

  std::size_t Size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t decay_count() const { return decays_; }

  /// Serializes entries sorted by lpn, so identical tables produce
  /// identical bytes.  LoadState throws, leaving this instance as it was,
  /// on more entries than capacity or an lpn out of range or listed twice.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  void MaybeDecay();

  std::uint32_t promote_threshold_;
  std::size_t capacity_;
  std::vector<std::uint32_t> freq_;
  std::vector<std::uint8_t> tracked_;
  std::size_t size_ = 0;
  std::uint64_t decays_ = 0;
};

}  // namespace ctflash::core
