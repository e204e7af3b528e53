// The conventional page-mapping FTL baseline (the paper's comparator).
//
// Active blocks are filled page-by-page in sequential order regardless of
// data hotness — pages of different layer speeds are handed out blindly,
// which is exactly the behaviour the paper's Section 2.2 motivates against.
// Host writes and GC relocations run as two independent write streams
// through the die-striped WriteAllocator: with `write_frontiers = 1` each
// stream fills one globally active block (the seed behavior, bit-for-bit);
// with more frontiers consecutive pages stripe across dies and overlap
// their program times under TimingMode::kQueued.  FtlBase runs the page
// loops; this class only allocates pages from its two streams.
#pragma once

#include <cstdint>
#include <optional>

#include "ftl/block_manager.h"
#include "ftl/ftl_base.h"
#include "ftl/mapping_table.h"
#include "ftl/write_allocator.h"

namespace ctflash::ftl {

class ConventionalFtl : public FtlBase {
 public:
  ConventionalFtl(FlashTarget& target, const FtlConfig& config);

  std::string Name() const override { return "conventional-ftl"; }

  std::optional<Us> ProbeWriteFreeAt() const override {
    // A growable stream can open a frontier on a fresh die, so the write is
    // startable now (nullopt); only a maxed-out stream is gated by its
    // frontier dies.  Keeps reads from starving queued writes when the
    // allocator could serve them immediately.
    if (walloc_.CanGrow(kHostStream)) return std::nullopt;
    return walloc_.EarliestFrontierFreeAt(kHostStream);
  }

  /// WriteAllocator stream ids of the two write contexts.
  static constexpr std::uint32_t kHostStream = 0;
  static constexpr std::uint32_t kGcStream = 1;

  const WriteAllocator& write_allocator() const { return walloc_; }

 protected:
  // Placement: host pages on the host stream, GC copies on the GC stream,
  // a failed program's retry on the stream it failed on.
  Placement PlaceHostPage(Lpn /*lpn*/, std::uint64_t /*bytes*/) override {
    return {AllocatePage(kHostStream), kHostStream};
  }
  Placement PlaceGcPage(Lpn /*lpn*/, Ppn /*src*/, BlockId /*victim*/) override {
    return {AllocatePage(kGcStream), kGcStream};
  }
  Ppn PlaceAgain(std::uint32_t stream) override { return AllocatePage(stream); }

  void SaveVariantState(util::StateWriter& w) const override {
    w.Tag("CFTL");
    walloc_.SaveState(w);
  }
  void LoadVariantState(util::StateReader& r) override {
    r.ExpectTag("CFTL");
    walloc_.LoadState(r);
  }

 private:
  /// Next programmable ppn on `stream` (kHostStream or kGcStream), opening
  /// new frontier blocks when needed.  Never runs GC.  Host and GC traffic
  /// use separate streams (standard dual-stream design); this also prevents
  /// the GC-burst/host-write phasing from accidentally sorting cold data
  /// into top-layer pages.
  Ppn AllocatePage(std::uint32_t stream);

  WriteAllocator walloc_;  ///< streams: {kHostStream, kGcStream}
};

}  // namespace ctflash::ftl
