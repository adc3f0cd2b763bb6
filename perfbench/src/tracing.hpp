// Benchmark-side tracing: every span is recorded around a call into a public
// function of the library, from the benchmark's own code. Nothing inside the
// library is instrumented.
//
// For every span kind the recorder keeps the call count, the busy time, the
// self time (busy time minus the time covered by child spans) and a log
// histogram of durations. Full spans (name, start, end, parent, record id)
// are kept in memory for a sample of records plus every record the caller
// marks as interesting, and written out once the run ends.
#ifndef PERFBENCH_TRACING_HPP
#define PERFBENCH_TRACING_HPP

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of non-negative integers (durations in ns): 32 linear
/// sub-buckets per power of two, so a bucket is at most 1/32 of its value
/// wide. Quantiles interpolate linearly inside the bucket.
class LogHistogram {
 public:
  void record(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  static constexpr unsigned kSubBits = 5;
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  [[nodiscard]] static double bucket_low(std::size_t b) noexcept;
  [[nodiscard]] static double bucket_width(std::size_t b) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Exact quantile (nearest rank after sorting a copy); 0 when empty.
[[nodiscard]] double exact_quantile(std::vector<double> values, double q);

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

enum class SpanKind : std::uint8_t {
  replay,            // the whole traced replay (root)
  trace_next_batch,  // TraceSource::next_batch
  sim_drain,         // the record loop over one batch
  tl_write,          // TranslationLayer::write_record
  tl_read,           // TranslationLayer::read_record
  swl_bet_update,    // Leveler::on_block_erased (SWL-BETUpdate)
  swl_procedure,     // Leveler::run (SWL-Procedure)
  swl_collect,       // Cleaner::collect_blocks called by the leveler
  count_
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::count_);

[[nodiscard]] std::string_view span_name(SpanKind k) noexcept;

struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t busy_ns = 0;
  std::int64_t self_ns = 0;
  LogHistogram hist;
};

class Recorder {
 public:
  /// Keeps full spans of every `sample_every`-th record, and at most
  /// `max_spans` spans overall (the rest are counted as dropped).
  Recorder(std::uint64_t sample_every, std::size_t max_spans);

  void open(SpanKind kind) {
    Frame& f = stack_[depth_++];
    f.kind = kind;
    f.id = next_id_++;
    f.child_ns = 0;
    f.start = now_ns();
  }

  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t close() {
    const std::int64_t end = now_ns();
    const Frame& f = stack_[--depth_];
    const std::int64_t dur = end - f.start;
    SpanStats& s = stats_[static_cast<std::size_t>(f.kind)];
    ++s.count;
    s.busy_ns += dur;
    s.self_ns += dur - f.child_ns;
    s.hist.record(static_cast<std::uint64_t>(dur));
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    const Span span{f.id, depth_ > 0 ? stack_[depth_ - 1].id : kNoParent, record_, f.start, end,
                    f.kind};
    if (in_record_) {
      pending_.push_back(span);
    } else {
      keep(span);
    }
    return dur;
  }

  /// Spans closed until end_record() belong to record `id`.
  void begin_record(std::uint64_t id) noexcept {
    record_ = id;
    in_record_ = true;
    pending_.clear();
  }
  /// Keeps the record's spans when it is sampled or `interesting` is set.
  void end_record(bool interesting) {
    in_record_ = false;
    if (interesting || record_ % sample_every_ == 0) {
      for (const Span& s : pending_) keep(s);
    }
  }

  [[nodiscard]] const SpanStats& stats(SpanKind k) const noexcept {
    return stats_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::size_t spans_kept() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept { return dropped_; }

  /// Writes the kept spans as JSON lines; false when the file cannot be
  /// written.
  [[nodiscard]] bool write_spans(const std::string& path, std::string_view workload) const;

 private:
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
  static constexpr std::size_t kMaxDepth = 32;

  struct Frame {
    SpanKind kind = SpanKind::replay;
    std::uint64_t id = 0;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
  };
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t record;
    std::int64_t start;
    std::int64_t end;
    SpanKind kind;
  };

  void keep(const Span& s) {
    if (spans_.size() < max_spans_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  std::uint64_t sample_every_;
  std::size_t max_spans_;
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t record_ = 0;
  bool in_record_ = false;
  std::array<SpanStats, kSpanKinds> stats_{};
  std::vector<Span> pending_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Median duration a Recorder measures for a span with nothing inside: the
/// clock-read cost every measured span carries (its parent's self time
/// carries about as much again).
[[nodiscard]] double empty_span_ns();

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& r, SpanKind k) : r_(r) { r_.open(k); }
  ~ScopedSpan() { r_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& r_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_HPP
