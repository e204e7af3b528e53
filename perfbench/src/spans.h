// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark brackets each call it makes into a library layer with a
// span (name, start, end, parent).  Spans nest: a span's self time is its
// duration minus the part its child spans cover, so the self times of all
// spans under one root tile that root's duration exactly.
//
// Per-kind aggregates (call count, total and self time, a duration
// histogram) are exact for every span.  Individual spans are kept only up
// to a cap so a multi-million-call replay cannot exhaust memory; WriteJson
// dumps the kept ones as a Chrome/Perfetto trace at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "util/stats.h"

namespace perfbench {

class SpanRecorder {
 public:
  using Kind = std::uint32_t;

  /// Registers a span name ("layer.call"); the layer is the part before the
  /// first '.'.  `name` must outlive the recorder (use a literal).
  Kind Register(const char* name);

  void Begin(Kind kind);
  /// Ends the innermost open span.
  void End();

  struct KindStats {
    const char* name = "";
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    ctflash::util::QuantileEstimator duration_ns;
  };
  /// Stats of the kind registered as `name`; null when never registered.
  const KindStats* Find(const char* name) const;

  /// Self time summed over every kind whose layer is `layer`.
  std::int64_t LayerSelfNs(const std::string& layer) const;
  /// Distinct layer names, in registration order.
  std::vector<std::string> Layers() const;

  /// Writes the kept spans as Chrome trace-event JSON (parent index in
  /// args).  Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    Kind kind;
    std::int32_t parent;  ///< index into spans_, -1 for a root or dropped
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Frame {
    Kind kind;
    std::int32_t kept;  ///< index into spans_, -1 when over the cap
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  static constexpr std::size_t kMaxKeptSpans = 200'000;

  std::vector<KindStats> kinds_;
  std::vector<Frame> open_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span named `name` (a literal); a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(recorder_->Register(name));
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
