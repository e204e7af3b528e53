#include "spans.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

SpanRecorder::Kind SpanRecorder::Register(const char* name) {
  for (Kind k = 0; k < kinds_.size(); ++k) {
    if (std::strcmp(kinds_[k].name, name) == 0) return k;
  }
  KindStats stats;
  stats.name = name;
  kinds_.push_back(std::move(stats));
  return static_cast<Kind>(kinds_.size() - 1);
}

const SpanRecorder::KindStats* SpanRecorder::Find(const char* name) const {
  for (const KindStats& k : kinds_) {
    if (std::strcmp(k.name, name) == 0) return &k;
  }
  return nullptr;
}

void SpanRecorder::Begin(Kind kind) {
  std::int32_t kept = -1;
  if (spans_.size() < kMaxKeptSpans) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back().kept;
    kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{kind, parent, 0, 0});
  } else {
    ++dropped_;
  }
  // Read the clock last so the bookkeeping above is not charged to the span.
  const std::int64_t now = NowNs();
  if (kept >= 0) spans_[kept].start_ns = now;
  open_.push_back(Frame{kind, kept, now, 0});
}

void SpanRecorder::End() {
  const std::int64_t now = NowNs();
  if (open_.empty()) throw std::logic_error("SpanRecorder::End: no open span");
  const Frame frame = open_.back();
  open_.pop_back();
  const std::int64_t duration = now - frame.start_ns;
  KindStats& stats = kinds_[frame.kind];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - frame.child_ns;
  stats.duration_ns.Add(static_cast<std::uint64_t>(duration));
  if (frame.kept >= 0) spans_[frame.kept].end_ns = now;
  if (!open_.empty()) open_.back().child_ns += duration;
}

std::int64_t SpanRecorder::LayerSelfNs(const std::string& layer) const {
  std::int64_t sum = 0;
  for (const KindStats& k : kinds_) {
    if (LayerOf(k.name) == layer) sum += k.self_ns;
  }
  return sum;
}

std::vector<std::string> SpanRecorder::Layers() const {
  std::vector<std::string> layers;
  for (const KindStats& k : kinds_) {
    const std::string layer = LayerOf(k.name);
    bool seen = false;
    for (const std::string& l : layers) seen = seen || l == layer;
    if (!seen) layers.push_back(layer);
  }
  return layers;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds; keep ns precision as a
    // fraction.
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << kinds_[s.kind].name
        << "\",\"ts\":" << static_cast<double>(s.start_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"dropped_spans\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
