#include "tracing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>

namespace perfbench {

std::size_t LogHistogram::bucket_of(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));  // >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return (e - kSubBits + 1) * kSub + static_cast<std::size_t>(sub);
}

double LogHistogram::bucket_low(std::size_t b) noexcept {
  if (b < kSub) return static_cast<double>(b);
  const unsigned e = static_cast<unsigned>(b / kSub) + kSubBits - 1;
  const std::uint64_t sub = b % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(e - kSubBits));
}

double LogHistogram::bucket_width(std::size_t b) noexcept {
  if (b < kSub) return 1.0;
  const unsigned e = static_cast<unsigned>(b / kSub) + kSubBits - 1;
  return std::ldexp(1.0, static_cast<int>(e - kSubBits));
}

void LogHistogram::record(std::uint64_t v) noexcept {
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ += static_cast<double>(v);
}

double LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n == 0.0) continue;
    if (before + n > rank) {
      // Samples are taken as spread evenly over the bucket.
      return bucket_low(b) + bucket_width(b) * ((rank - before + 0.5) / n);
    }
    before += n;
  }
  return 0.0;
}

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::llround(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string_view span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::replay:
      return "replay";
    case SpanKind::trace_next_batch:
      return "trace.next_batch";
    case SpanKind::sim_drain:
      return "sim.drain";
    case SpanKind::tl_write:
      return "tl.write_record";
    case SpanKind::tl_read:
      return "tl.read_record";
    case SpanKind::swl_bet_update:
      return "swl.on_block_erased";
    case SpanKind::swl_procedure:
      return "swl.run";
    case SpanKind::swl_collect:
      return "swl.collect_blocks";
    case SpanKind::count_:
      break;
  }
  return "?";
}

Recorder::Recorder(std::uint64_t sample_every, std::size_t max_spans)
    : sample_every_(sample_every == 0 ? 1 : sample_every), max_spans_(max_spans) {
  pending_.reserve(256);
  spans_.reserve(std::min<std::size_t>(max_spans_, 1u << 16));
}

double empty_span_ns() {
  Recorder r(1, 0);
  for (int i = 0; i < 100'000; ++i) {
    r.open(SpanKind::replay);
    r.close();
  }
  return r.stats(SpanKind::replay).hist.quantile(0.5);
}

bool Recorder::write_spans(const std::string& path, std::string_view workload) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  for (const Span& s : spans_) {
    out << "{\"workload\":\"" << workload << "\",\"name\":\"" << span_name(s.kind)
        << "\",\"id\":" << s.id << ",\"parent\":";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"record\":" << s.record << ",\"start_ns\":" << (s.start - t0)
        << ",\"end_ns\":" << (s.end - t0) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
