// ReplayPlan: the transform pipeline between raw trace sources and the
// replay engine.
//
// A plan owns K trace sources, each with its own per-source options, and is
// itself a pull-iterator of tenant-tagged records:
//
//   source -> filter -> address remap -> time warp -+
//   source -> filter -> address remap -> time warp -+-> K-way merge
//   source -> filter -> address remap -> time warp -+   (by warped ts)
//
// Address remapping fits a trace collected on one device into the simulated
// one without destroying the properties the FTL cares about: every policy
// preserves the offset's residue modulo `alignment_bytes` (a 4 KiB-aligned
// request stays 4 KiB-aligned) and requests are clipped to the target
// footprint.
//
//  * kWrap        — aligned unit index modulo the footprint: preserves
//                   locality and sequential runs, folds a larger address
//                   space onto the device (the seed harness behavior,
//                   now explicit);
//  * kLinearScale — aligned unit index scaled source-span -> footprint:
//                   preserves the *shape* of the address distribution
//                   (hot regions stay distinct instead of aliasing);
//  * kHashScatter — aligned unit index hashed over the footprint:
//                   deliberately destroys locality while preserving sizes
//                   and popularity multiset (a worst-case placement arm).
//
// Time warping rescales inter-arrival gaps: `acceleration` divides
// timestamps (2.0 = twice the offered load), or a `target_iops` derives the
// factor from the source's native rate (resolved from a WorkloadProfile or
// set explicitly via ResolveRateTarget).  Merging K warped streams with
// per-source tenant tags is what turns two MSR traces into a two-tenant
// QoS study; ties in warped timestamps break by source index, so merged
// replays are deterministic.
//
// All transforms are pure per-record functions — a plan pass holds O(K)
// resident records on top of whatever window its sources keep.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qos/tenant.h"
#include "replay/trace_source.h"
#include "trace/trace.h"
#include "util/types.h"

namespace ctflash::replay {

enum class RemapPolicy : std::uint8_t {
  kNone = 0,        ///< pass offsets through untouched
  kWrap,            ///< fold: aligned unit modulo footprint
  kLinearScale,     ///< stretch: aligned unit scaled source-span -> footprint
  kHashScatter,     ///< scatter: aligned unit hashed over footprint
};

const char* RemapPolicyName(RemapPolicy policy);

struct RemapConfig {
  RemapPolicy policy = RemapPolicy::kNone;
  /// Target address span the remapped trace must land in (required for any
  /// policy but kNone).
  std::uint64_t footprint_bytes = 0;
  /// Target base: remapped offsets fall in [base, base + footprint), so
  /// per-tenant working-set slices stay disjoint.
  std::uint64_t base_bytes = 0;
  /// Remap granularity; offset % alignment is preserved exactly.
  std::uint64_t alignment_bytes = 4096;
  /// Source address span for kLinearScale (0 = resolve from a profile via
  /// ReplayPlan::SetSourceSpan / WorkloadProfile::max_offset_bytes).
  std::uint64_t source_span_bytes = 0;
  /// kHashScatter permutation seed (deterministic for a given seed).
  std::uint64_t hash_seed = 0x9E3779B97F4A7C15ull;

  void Validate() const;
};

/// Applies `config` to one record: remapped offset plus footprint clipping.
/// Returns false when the record clips away entirely (dropped).
bool RemapRecord(const RemapConfig& config, trace::TraceRecord& record);

struct TimeWarpConfig {
  /// Inter-arrival compression: warped_ts = ts / acceleration.  1.0 = real
  /// time, 2.0 = double the offered load.  Must be finite and > 0.
  double acceleration = 1.0;
  /// When > 0, replaces `acceleration` with target_iops / native_iops; the
  /// native rate must be resolved first (ResolveRateTarget), which needs
  /// the source's record count and duration.  Must be finite.
  double target_iops = 0.0;
  /// Added to every warped timestamp (aligning traces captured at
  /// different epochs, or delaying one tenant's entry).
  Us start_offset_us = 0;

  void Validate() const;
  /// Derives the effective acceleration from a source's native rate and
  /// re-validates it.  No-op when target_iops == 0.
  void ResolveRateTarget(std::uint64_t records, Us duration_us);
  /// warped timestamp of `ts` under this config.  Throws
  /// std::out_of_range when it does not fit the simulated clock (Us).
  Us Warp(Us ts) const;
};

struct FilterConfig {
  bool keep_reads = true;
  bool keep_writes = true;
  std::uint64_t min_size_bytes = 0;
  std::uint64_t max_size_bytes = std::numeric_limits<std::uint64_t>::max();
  /// Keep only records whose ORIGINAL offset intersects [lo, hi).
  std::uint64_t offset_lo_bytes = 0;
  std::uint64_t offset_hi_bytes = std::numeric_limits<std::uint64_t>::max();
  /// Stop pulling from the source after this many accepted records
  /// (0 = unlimited).
  std::uint64_t max_records = 0;
  /// Drop records with original timestamps beyond this (0 = unlimited).
  Us max_time_us = 0;

  bool Accepts(const trace::TraceRecord& record) const;
};

/// One record of the merged, tenant-tagged output stream.
struct TaggedRecord {
  trace::TraceRecord record;
  qos::TenantId tenant = qos::kNoTenant;
  std::uint32_t source_index = 0;
};

/// Per-source transform options.
struct SourceOptions {
  std::string name;  ///< reporting label ("" = "source<i>")
  qos::TenantId tenant = qos::kNoTenant;
  FilterConfig filter;
  RemapConfig remap;
  TimeWarpConfig warp;
};

/// Per-source pipeline counters (conservation accounting).
struct SourceCounters {
  std::string name;
  std::uint64_t pulled = 0;    ///< records drawn from the source
  std::uint64_t filtered = 0;  ///< rejected by the filter
  std::uint64_t clipped = 0;   ///< remapped to zero length and dropped
  std::uint64_t emitted = 0;   ///< delivered into the merged stream
};

class ReplayPlan {
 public:
  ReplayPlan() = default;

  ReplayPlan(const ReplayPlan&) = delete;
  ReplayPlan& operator=(const ReplayPlan&) = delete;

  /// Adds a source; returns its source index.  Options are validated here
  /// (std::invalid_argument on bad remap/warp configs; a rate-targeted warp
  /// must be resolved before the first Next()).
  std::uint32_t AddSource(std::unique_ptr<TraceSource> source,
                          const SourceOptions& options);

  std::size_t SourceCount() const { return sources_.size(); }

  /// Pulls the next merged record: smallest warped timestamp wins, ties
  /// break by source index.  Timestamps in the output are the warped ones.
  std::optional<TaggedRecord> Next();

  /// Rewinds every source and the merge state.
  void Reset();

  const SourceCounters& CountersOf(std::uint32_t source_index) const {
    return sources_[source_index].counters;
  }
  const SourceOptions& OptionsOf(std::uint32_t source_index) const {
    return sources_[source_index].options;
  }
  /// Mutable warp access so rate targets can be resolved after profiling.
  TimeWarpConfig& WarpOf(std::uint32_t source_index) {
    return sources_[source_index].options.warp;
  }
  /// Resolves a kLinearScale remap whose source_span_bytes was left 0.
  void SetSourceSpan(std::uint32_t source_index, std::uint64_t span_bytes) {
    sources_[source_index].options.remap.source_span_bytes = span_bytes;
  }

 private:
  struct PlanSource {
    std::unique_ptr<TraceSource> source;
    SourceOptions options;
    SourceCounters counters;
    std::optional<TaggedRecord> head;  ///< next merged candidate
    bool primed = false;
  };

  /// Advances `src` to its next transformed record (fills head).
  void Advance(PlanSource& src, std::uint32_t index);

  std::vector<PlanSource> sources_;
};

}  // namespace ctflash::replay
