// Synthetic workload generators standing in for the MSR Cambridge traces.
//
// PPB's benefit is driven by three workload properties (Section 3 of the
// paper): the share of sub-page writes (first-stage size-check classifier),
// read re-access skew (promotion of frequently read data into fast pages),
// and the update rate (progressive-migration opportunities).  The generators
// expose exactly those knobs:
//
//  * MediaServerWorkload(): ~90 % reads, large (64-256 KiB) mostly-sequential
//    streaming reads over Zipf-popular content, large write-once ingests,
//    plus a small stream of sub-page metadata updates to a hot region set —
//    write-once-read-many, the paper's "cold/icy-cold"-dominated trace.
//  * WebServerWorkload(): ~60/40 read/write, small (4-16 KiB) random
//    requests, strongly Zipf-skewed hot set with frequent overwrites — the
//    paper's "Web/SQL" trace where PPB gains the most.
//
// Popularity is modelled per fixed-size region.  A seeded permutation maps
// popularity rank -> region index so hot regions are scattered across the
// footprint (real file systems do not place hot data contiguously).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/random.h"
#include "util/types.h"

namespace ctflash::trace {

struct SizeWeight {
  std::uint64_t bytes = 4096;
  double weight = 1.0;

  bool operator==(const SizeWeight&) const = default;
};

struct SyntheticWorkloadConfig {
  std::string name = "synthetic";
  std::uint64_t num_requests = 100'000;
  std::uint64_t footprint_bytes = 256 * kMiB;  ///< logical address span
  std::uint64_t region_bytes = kMiB;           ///< popularity granularity
  double read_fraction = 0.6;

  double read_zipf_theta = 0.99;   ///< popularity skew of reads over regions
  double write_zipf_theta = 0.99;  ///< popularity skew of writes
  /// How much write popularity coincides with read popularity: 1.0 means the
  /// most-written regions are the most-read ones (fully shared ranking);
  /// 0.0 means independent rankings (write-hot data like logs and session
  /// state is disjoint from the read-hot set).  Enterprise traces sit in
  /// between.
  double rw_popularity_correlation = 1.0;
  /// Metadata stream: a `metadata_fraction` share of writes are small
  /// (`metadata_size_bytes`) updates to the read-popular end of the address
  /// space (file-system metadata / index pages are both read and written),
  /// sampled with `hot_write_zipf_theta` skew on the READ ranking.
  double metadata_fraction = 0.0;
  std::uint64_t metadata_size_bytes = 4 * kKiB;
  double hot_write_zipf_theta = 1.2;

  /// Probability that a read continues sequentially after the previous one.
  double sequential_read_fraction = 0.0;

  std::vector<SizeWeight> read_sizes = {{16 * kKiB, 1.0}};
  std::vector<SizeWeight> write_sizes = {{16 * kKiB, 1.0}};

  /// Mean exponential inter-arrival gap.
  Us mean_interarrival_us = 100;
  std::uint64_t seed = 42;
  std::uint64_t alignment_bytes = 4096;

  void Validate() const;
  bool operator==(const SyntheticWorkloadConfig&) const = default;
};

/// Streaming generator; deterministic for a given config (seed included).
class SyntheticTraceGenerator {
 public:
  explicit SyntheticTraceGenerator(const SyntheticWorkloadConfig& config);

  /// Produces the next request.  Never returns zero-sized requests; offsets
  /// are aligned and clipped to the footprint.
  TraceRecord Next();

  /// Generates the whole trace (config.num_requests records).
  std::vector<TraceRecord> Generate();

  const SyntheticWorkloadConfig& config() const { return config_; }

 private:
  std::uint64_t SampleSize(const std::vector<SizeWeight>& dist,
                           double total_weight);
  std::uint64_t RegionOffset(const util::ZipfSampler& zipf,
                             const std::vector<std::uint64_t>& perm);

  SyntheticWorkloadConfig config_;
  util::Xoshiro256StarStar rng_;
  util::ZipfSampler read_zipf_;
  util::ZipfSampler write_zipf_;
  util::ZipfSampler hot_write_zipf_;
  std::vector<std::uint64_t> region_perm_;  ///< read popularity rank -> region
  std::vector<std::uint64_t> write_perm_;   ///< independent write ranking
  double read_size_weight_ = 0.0;
  double write_size_weight_ = 0.0;
  Us clock_us_ = 0;
  std::uint64_t next_sequential_offset_ = 0;
  bool have_prev_read_ = false;
};

/// The "media server" stand-in (see file header).  `footprint_bytes` should
/// be sized relative to the simulated device (e.g. ~85 % of exported space).
SyntheticWorkloadConfig MediaServerWorkload(std::uint64_t footprint_bytes,
                                            std::uint64_t num_requests,
                                            std::uint64_t seed = 1);

/// The "web/SQL server" stand-in (see file header).
SyntheticWorkloadConfig WebServerWorkload(std::uint64_t footprint_bytes,
                                          std::uint64_t num_requests,
                                          std::uint64_t seed = 2);

}  // namespace ctflash::trace
