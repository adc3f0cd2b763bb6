// lifetime_ftl / lifetime_nftl / lifetime_dftl: the paper's Figure-5 run.
//
// The paper-calibrated `desktop` synthetic trace is segment-replayed into a
// translation layer with the SW Leveler attached (paper T = 100 scaled to the
// endurance by sim::scaled_threshold, k = 0) until the first block reaches its
// endurance limit.
//
// Untraced repetitions call Simulator::run the way the library's own
// experiment harness does (sim::run_config_on), in chunks of a fixed record
// count, and give the end-to-end metrics. The traced run rebuilds the same stack by hand
// with a timing decorator around the leveler, replays the identical record
// stream through SimClock::advance_to, write_record and read_record, and must
// reproduce the untraced run's simulated results bit for bit.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "dftl/dftl.hpp"
#include "sim/experiments.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "swl/leveler.hpp"
#include "tracing.hpp"
#include "trace/segment_replay.hpp"

namespace perfbench {

using namespace swl;

namespace {

/// Records per Simulator::run call: half of one of the simulator's own
/// batches, small enough that even the shortest lifetime has well over 1,000
/// chunks, so at least ten lie beyond the p99.
constexpr std::uint64_t kChunk = 2048;
/// Records per TraceSource::next_batch call in the traced replay, as in
/// Simulator::run.
constexpr std::size_t kBatch = 4096;
/// Minimum untraced repetitions: the first repetition of a process runs on
/// fresh memory and is slower, so every chunk needs others to take its
/// fastest time from.
constexpr std::size_t kMinReps = 3;

/// Repetitions rotate over the CPUs the process may use. On a shared VM the
/// virtual CPUs run at different speeds from minute to minute (a
/// lifetime_dftl repetition took 2.4 s on one and 3.6 s on another at the
/// same moment), and the scheduler keeps a single-threaded process on one,
/// so without rotation a whole run landed on a slow CPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t count() const noexcept {
    return std::max<std::size_t>(1, cpus_.size());
  }

  /// Pins the calling thread to the i-th allowed CPU (modulo their count);
  /// returns it, or -1 when the affinity cannot be read or set.
  int pin(std::size_t i) const {
    if (cpus_.empty()) return -1;
    const std::size_t cpu = cpus_[i % cpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? static_cast<int>(cpu) : -1;
  }

 private:
  cpu_set_t original_;
  std::vector<std::size_t> cpus_;
};

struct Workload {
  sim::LayerKind kind;
  /// Endurance limit (erase cycles) and device size. Chosen so one untraced
  /// lifetime takes a few seconds on a 4-core x86 host while the scaled
  /// threshold stays at T >= 3; see perfbench/README.md.
  std::uint32_t endurance;
  BlockIndex blocks;
};

Workload workload_of(const std::string& name) {
  if (name == "lifetime_ftl") return {sim::LayerKind::ftl, 1000, 256};
  if (name == "lifetime_nftl") return {sim::LayerKind::nftl, 10000, 256};
  if (name == "lifetime_dftl") return {sim::LayerKind::dftl, 300, 64};
  throw std::invalid_argument("unknown lifetime workload " + name);
}

struct Setup {
  sim::ExperimentScale scale;
  sim::SimConfig config;
  std::uint64_t replay_seed = 0;
};

Setup make_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  s.scale.endurance = w.endurance;
  s.scale.block_count = w.blocks;
  // The base trace plays the paper's collected trace: one fixed trace per
  // device size (the library's default seed), whose 10-minute segments the
  // seeded replay picks at random. Seeding it too moved lifetime_nftl's
  // write_amp by 25% (IQR/median over five seeds), more than any bound.
  s.scale.seed = sim::ExperimentScale{}.seed;
  wear::LevelerConfig lev;
  lev.k = 0;
  lev.threshold = sim::scaled_threshold(100.0, s.scale);
  lev.rng_seed = derive_seed(seed, 3);
  s.config = sim::make_sim_config(s.scale, w.kind, lev);
  s.replay_seed = derive_seed(seed, 2);
  return s;
}

/// The simulated outcome two replays of one stream must agree on bit for bit.
struct Fingerprint {
  std::uint64_t records = 0;
  std::vector<std::uint32_t> erase_counts;
  tl::TlCounters counters;
  wear::LevelerStats leveler;
  std::optional<double> first_failure_years;
  double erase_stddev = 0.0;
  nand::NandCounters nand;
};

std::optional<double> failure_years(const nand::NandChip& chip) {
  const auto& f = chip.first_failure();
  if (!f.has_value()) return std::nullopt;
  // Same conversion as Simulator::result().
  return static_cast<double>(f->time_us) / static_cast<double>(kUsPerSecond) / kSecondsPerYear;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Lists every field in which `b` differs from `a`. fast_path_writes is a
/// dispatch diagnostic, not simulated state, and is not compared.
std::vector<std::string> diff(const Fingerprint& a, const Fingerprint& b) {
  std::vector<std::string> d;
  if (a.records != b.records) d.emplace_back("records");
  if (a.erase_counts != b.erase_counts) d.emplace_back("erase counts");
  const tl::TlCounters& x = a.counters;
  const tl::TlCounters& y = b.counters;
  if (x.host_writes != y.host_writes) d.emplace_back("host_writes");
  if (x.host_reads != y.host_reads) d.emplace_back("host_reads");
  if (x.gc_erases != y.gc_erases) d.emplace_back("gc_erases");
  if (x.swl_erases != y.swl_erases) d.emplace_back("swl_erases");
  if (x.gc_live_copies != y.gc_live_copies) d.emplace_back("gc_live_copies");
  if (x.swl_live_copies != y.swl_live_copies) d.emplace_back("swl_live_copies");
  if (x.map_reads != y.map_reads) d.emplace_back("map_reads");
  if (x.map_writes != y.map_writes) d.emplace_back("map_writes");
  if (a.leveler.collections_requested != b.leveler.collections_requested ||
      a.leveler.bet_resets != b.leveler.bet_resets ||
      a.leveler.activations != b.leveler.activations || a.leveler.stalls != b.leveler.stalls) {
    d.emplace_back("leveler stats");
  }
  if (a.first_failure_years.has_value() != b.first_failure_years.has_value() ||
      (a.first_failure_years.has_value() &&
       !same_bits(*a.first_failure_years, *b.first_failure_years))) {
    d.emplace_back("first_failure_years");
  }
  if (!same_bits(a.erase_stddev, b.erase_stddev)) d.emplace_back("erase stddev");
  return d;
}

struct UntracedRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Wall time of each Simulator::run call, in order; every call but the
  /// last replays a full chunk.
  std::vector<double> chunk_us;
  std::uint64_t failed = 0;
  Fingerprint fp;
};

void check_layer(Outcome& out, const tl::TranslationLayer& layer, const char* run) {
  try {
    layer.check_invariants();
  } catch (const std::logic_error& e) {
    out.fail(std::string(run) + " replay: check_invariants failed: " + e.what());
  }
}

UntracedRep run_untraced(const Setup& s, Outcome& out) {
  UntracedRep rep;
  const std::int64_t t0 = now_ns();
  const trace::Trace base = sim::make_base_trace(s.scale, s.config.layer);
  auto sim = sim::make_simulator(s.config);
  rep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  trace::SegmentReplaySource source(base, s.scale.segment_minutes * 60.0, s.replay_seed);
  std::int64_t busy = 0;
  while (true) {
    const std::int64_t c0 = now_ns();
    const std::uint64_t n = sim->run(source, s.scale.max_years, /*stop_on_first_failure=*/true,
                                     kChunk);
    const std::int64_t dt = now_ns() - c0;
    busy += dt;
    rep.chunk_us.push_back(static_cast<double>(dt) * 1e-3);
    if (sim->chip().first_failure().has_value()) break;
    if (n < kChunk) {
      // Out of space or past the horizon before any block wore out: the
      // write that stopped the run failed.
      ++rep.failed;
      out.fail("replay stopped before the first block failure");
      break;
    }
  }
  rep.wall_s = static_cast<double>(busy) * 1e-9;

  const sim::SimResult r = sim->result();
  rep.fp.records = r.records_processed;
  rep.fp.erase_counts = r.erase_counts;
  rep.fp.counters = r.counters;
  rep.fp.leveler = r.leveler_stats;
  rep.fp.first_failure_years = r.first_failure_years;
  rep.fp.erase_stddev = r.erase_summary.stddev;
  rep.fp.nand = r.chip_counters;
  rep.failed += r.chip_counters.program_failures;
  check_layer(out, sim->layer(), "untraced");
  return rep;
}

// -- traced replay ----------------------------------------------------------

/// Wraps the Cleaner the leveler drives, timing SWL-driven collections.
class TimedCleaner final : public wear::Cleaner {
 public:
  TimedCleaner(wear::Cleaner& inner, Recorder& rec) : inner_(inner), rec_(rec) {}
  void collect_blocks(BlockIndex first, BlockIndex count) override {
    ScopedSpan span(rec_, SpanKind::swl_collect);
    inner_.collect_blocks(first, count);
  }

 private:
  wear::Cleaner& inner_;
  Recorder& rec_;
};

/// Leveler decorator: times SWL-BETUpdate and SWL-Procedure and forwards
/// everything else to the wrapped SW Leveler unchanged.
class TimedLeveler final : public wear::Leveler {
 public:
  TimedLeveler(std::unique_ptr<wear::Leveler> inner, Recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void on_block_erased(BlockIndex block, std::uint32_t new_erase_count) override {
    ScopedSpan span(rec_, SpanKind::swl_bet_update);
    inner_->on_block_erased(block, new_erase_count);
  }
  [[nodiscard]] bool needs_leveling() const override { return inner_->needs_leveling(); }
  void run(wear::Cleaner& cleaner) override {
    ScopedSpan span(rec_, SpanKind::swl_procedure);
    TimedCleaner timed(cleaner, rec_);
    inner_->run(timed);
  }
  [[nodiscard]] BlockIndex block_count() const override { return inner_->block_count(); }
  [[nodiscard]] const wear::LevelerStats& stats() const override { return inner_->stats(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<wear::Leveler> inner_;
  Recorder& rec_;
};

struct TracedRun {
  Fingerprint fp;
  std::uint64_t failed = 0;
  std::uint64_t gc_writes = 0;
  double gc_write_ns = 0.0;
  std::uint64_t miss_writes = 0;
  double miss_write_ns = 0.0;
  std::uint64_t hit_writes = 0;
  double hit_write_ns = 0.0;
  dftl::DftlStats dftl;
};

/// Replays the record stream Simulator::run would replay for `s`, with every
/// call into the library wrapped in a span. Mirrors Simulator::run's stop
/// conditions and payload numbering exactly.
TracedRun run_traced(const Setup& s, Recorder& rec, Outcome& out) {
  TracedRun t;
  const trace::Trace base = sim::make_base_trace(s.scale, s.config.layer);
  SimClock clock;
  nand::NandChip chip(nand::NandConfig{.geometry = s.config.geometry,
                                       .timing = s.config.timing,
                                       .failures = s.config.failures,
                                       .store_payload_bytes =
                                           s.config.layer == sim::LayerKind::dftl},
                      &clock);
  auto layer = sim::make_layer(s.config.layer, chip, s.config.ftl, s.config.nftl, s.config.dftl,
                               /*mounted=*/false);
  layer->attach_leveler(std::make_unique<TimedLeveler>(
      std::make_unique<wear::SwLeveler>(s.config.geometry.block_count, *s.config.leveler), rec));
  const auto* dftl_layer = dynamic_cast<const dftl::Dftl*>(layer.get());

  trace::SegmentReplaySource source(base, s.scale.segment_minutes * 60.0, s.replay_seed);
  std::vector<trace::TraceRecord> batch(kBatch);
  const SimTime horizon = seconds_to_us(s.scale.max_years * kSecondsPerYear);
  const Lba lba_count = layer->lba_count();
  const tl::TlCounters& c = layer->counters();
  const wear::LevelerStats& ls = layer->leveler()->stats();
  std::uint64_t payload = 1;
  std::uint64_t records = 0;

  rec.open(SpanKind::replay);
  bool stop = false;
  while (!stop) {
    if (chip.first_failure().has_value() || clock.now() >= horizon) break;
    std::size_t n = 0;
    {
      ScopedSpan span(rec, SpanKind::trace_next_batch);
      n = source.next_batch(batch.data(), kBatch);
    }
    if (n == 0) break;
    ScopedSpan drain(rec, SpanKind::sim_drain);
    for (std::size_t i = 0; i < n; ++i) {
      if (chip.first_failure().has_value() || clock.now() >= horizon) {
        stop = true;
        break;
      }
      const trace::TraceRecord& r = batch[i];
      if (r.time_us >= horizon) {
        clock.advance_to(horizon);
        stop = true;
        break;
      }
      clock.advance_to(r.time_us);
      const Lba lba = r.lba >= lba_count ? r.lba % lba_count : r.lba;
      rec.begin_record(records);
      bool interesting = false;
      if (r.op == trace::Op::write) {
        const std::uint64_t gc0 = c.gc_erases;
        const std::uint64_t swl0 = c.swl_erases;
        const std::uint64_t act0 = ls.activations;
        const std::uint64_t map0 = c.map_reads;
        rec.open(SpanKind::tl_write);
        const Status st = layer->write_record(lba, payload++);
        const auto dt = static_cast<double>(rec.close());
        if (c.gc_erases != gc0) {
          ++t.gc_writes;
          t.gc_write_ns += dt;
        }
        if (c.map_reads != map0) {
          ++t.miss_writes;
          t.miss_write_ns += dt;
        } else {
          ++t.hit_writes;
          t.hit_write_ns += dt;
        }
        interesting = c.gc_erases != gc0 || c.swl_erases != swl0 || ls.activations != act0;
        if (st == Status::out_of_space || st == Status::program_failed) ++t.failed;
        if (st == Status::out_of_space) {
          rec.end_record(true);
          out.fail("traced replay: write returned out_of_space before the first failure");
          stop = true;
          break;
        }
        if (st != Status::ok && st != Status::program_failed) {
          out.fail("traced replay: unexpected write status " + std::string(to_string(st)));
        }
      } else {
        std::uint64_t token = 0;
        rec.open(SpanKind::tl_read);
        const Status st = layer->read_record(lba, &token);
        rec.close();
        if (st != Status::ok && st != Status::lba_not_mapped) {
          ++t.failed;
          out.fail("traced replay: unexpected read status " + std::string(to_string(st)));
        }
      }
      rec.end_record(interesting);
      ++records;
    }
  }
  rec.close();

  t.fp.records = records;
  t.fp.erase_counts = chip.erase_counts();
  t.fp.counters = layer->counters();
  t.fp.leveler = layer->leveler()->stats();
  t.fp.first_failure_years = failure_years(chip);
  t.fp.erase_stddev = stats::summarize(t.fp.erase_counts).stddev;
  t.fp.nand = chip.counters();
  if (dftl_layer != nullptr) t.dftl = dftl_layer->stats();
  check_layer(out, *layer, "traced");
  return t;
}

void add_per_layer(Outcome& out, const TracedRun& t, const Recorder& rec,
                   double untraced_rec_per_s) {
  const Fingerprint& fp = t.fp;
  const auto records = static_cast<double>(fp.records);
  auto self = [&](SpanKind k) { return static_cast<double>(rec.stats(k).self_ns); };
  auto busy = [&](SpanKind k) { return static_cast<double>(rec.stats(k).busy_ns); };
  auto calls = [&](SpanKind k) { return static_cast<double>(rec.stats(k).count); };
  const SpanStats& wr = rec.stats(SpanKind::tl_write);
  const SpanStats& rd = rec.stats(SpanKind::tl_read);
  const tl::TlCounters& c = fp.counters;

  out.add("trace.ns_per_rec", ratio(self(SpanKind::trace_next_batch), records), "ns");
  out.add("sim.loop_ns_per_rec", ratio(self(SpanKind::sim_drain), records), "ns");
  out.add("tl.write_ns_p50", wr.hist.quantile(0.5), "ns");
  out.add("tl.read_ns_p50", rd.hist.quantile(0.5), "ns");
  out.add("tl.write_ns_mean", wr.hist.mean(), "ns");
  out.add("tl.gc_writes", static_cast<double>(t.gc_writes), "count");
  out.add("tl.gc_write_ns_mean", ratio(t.gc_write_ns, static_cast<double>(t.gc_writes)), "ns");
  out.add("tl.live_copies_per_gc_erase", ratio(c.gc_live_copies, c.gc_erases), "pages");
  out.add("swl.bet_update_ns_per_erase",
          ratio(busy(SpanKind::swl_bet_update), calls(SpanKind::swl_bet_update)), "ns");
  out.add("swl.procedure_ns",
          ratio(busy(SpanKind::swl_procedure), calls(SpanKind::swl_procedure)), "ns");
  out.add("swl.collect_ns", ratio(busy(SpanKind::swl_collect), calls(SpanKind::swl_collect)),
          "ns");
  out.add("swl.activations", static_cast<double>(fp.leveler.activations), "count");
  out.add("swl.collections", static_cast<double>(fp.leveler.collections_requested), "count");
  out.add("swl.bet_resets", static_cast<double>(fp.leveler.bet_resets), "count");
  out.add("swl.erase_share", ratio(c.swl_erases, c.total_erases()), "ratio");
  out.add("nand.programs_per_rec", ratio(static_cast<double>(fp.nand.programs), records), "pages");
  out.add("nand.reads_per_rec", ratio(static_cast<double>(fp.nand.reads), records), "pages");
  out.add("nand.erases_per_rec", ratio(static_cast<double>(fp.nand.erases), records), "blocks");
  out.add("dftl.cmt_hit_ratio", ratio(t.dftl.cmt_hits, t.dftl.cmt_hits + t.dftl.cmt_misses),
          "ratio");
  out.add("dftl.map_reads_per_write", ratio(c.map_reads, c.host_writes), "pages");
  out.add("dftl.map_writes_per_write", ratio(c.map_writes, c.host_writes), "pages");
  if (t.dftl.cmt_hits + t.dftl.cmt_misses > 0) {
    out.add("dftl.miss_write_ns_mean",
            ratio(t.miss_write_ns, static_cast<double>(t.miss_writes)), "ns");
    out.add("dftl.hit_write_ns_mean", ratio(t.hit_write_ns, static_cast<double>(t.hit_writes)),
            "ns");
  }
  out.add("wear.first_failure_years", fp.first_failure_years.value_or(0.0), "years");
  out.add("wear.erase_stddev", fp.erase_stddev, "erases");

  // Self times partition the root span: every nanosecond of the traced
  // replay is in exactly one span's self time. The root's own self time is
  // what no span covers (refill bookkeeping and stop checks between batches).
  const double total = busy(SpanKind::replay);
  out.add("share.trace", ratio(self(SpanKind::trace_next_batch), total), "ratio");
  out.add("share.sim", ratio(self(SpanKind::sim_drain), total), "ratio");
  out.add("share.tl", ratio(self(SpanKind::tl_write) + self(SpanKind::tl_read), total), "ratio");
  out.add("share.swl",
          ratio(self(SpanKind::swl_bet_update) + self(SpanKind::swl_procedure) +
                    self(SpanKind::swl_collect),
                total),
          "ratio");
  out.add("share.unattributed", ratio(self(SpanKind::replay), total), "ratio");
  const double traced_ns = ratio(total, records);
  out.add("tracing.traced_ns_per_op", traced_ns, "ns");
  out.add("tracing.overhead", traced_ns * untraced_rec_per_s * 1e-9 - 1.0, "ratio");
  out.add("tracing.spans_kept", static_cast<double>(rec.spans_kept()), "count");
  out.add("tracing.empty_span_ns", empty_span_ns(), "ns");
}

}  // namespace

Outcome run_lifetime(const RunOptions& opt) {
  Outcome out;
  const Workload w = workload_of(opt.workload);
  const Setup s = make_setup(w, opt.seed);

  // Untraced repetitions: the whole budget for --trace 0; a third of it as
  // the reference for the traced replay.
  const double budget = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  const CpuRotation cpus;
  const std::size_t min_reps = std::max(kMinReps, cpus.count());
  std::vector<UntracedRep> reps;
  const std::int64_t start = now_ns();
  double last_rep_s = 0.0;
  auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  while (reps.size() < min_reps || elapsed_s() + last_rep_s <= budget) {
    const double before = elapsed_s();
    const int cpu = cpus.pin(reps.size());
    reps.push_back(run_untraced(s, out));
    last_rep_s = elapsed_s() - before;
    std::fprintf(stderr, "%s: repetition %zu on cpu %d: %.3f s (setup %.3f s)\n",
                 opt.workload.c_str(), reps.size(), cpu, reps.back().wall_s,
                 reps.back().setup_s);
    out.attempted += reps.back().fp.records;
    out.failed += reps.back().failed;
    if (!out.correct) break;
  }
  for (std::size_t i = 1; i < reps.size(); ++i) {
    for (const std::string& d : diff(reps[0].fp, reps[i].fp)) {
      out.fail("untraced repetition " + std::to_string(i) + " differs from the first in " + d);
    }
  }
  const Fingerprint& fp = reps[0].fp;
  if (!fp.first_failure_years.has_value()) out.fail("no block wore out");

  // Every repetition replays the identical record stream in the same chunks,
  // so chunk i is the same work in every repetition. Interference from
  // other tenants of the host only ever slows a chunk down, so the fastest
  // repetition of each chunk is its least disturbed measurement.
  std::vector<double> setup_s;
  std::vector<double> full_chunk_us;
  double lifetime_us = 0.0;
  for (const UntracedRep& r : reps) setup_s.push_back(r.setup_s);
  const std::size_t chunks = reps[0].chunk_us.size();
  for (std::size_t i = 0; i < chunks; ++i) {
    double fastest = reps[0].chunk_us[i];
    for (const UntracedRep& r : reps) {
      if (r.chunk_us.size() == chunks) fastest = std::min(fastest, r.chunk_us[i]);
    }
    lifetime_us += fastest;
    if (i + 1 < chunks) full_chunk_us.push_back(fastest);
  }
  const double ops = static_cast<double>(fp.records) / (lifetime_us * 1e-6);
  std::fprintf(stderr, "%s: %zu repetitions of %llu records; fastest-chunk lifetime %.3f s\n",
               opt.workload.c_str(), reps.size(), static_cast<unsigned long long>(fp.records),
               lifetime_us * 1e-6);

  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("ops_per_s", ops, "1/s");
    out.add("lat_p50_us", exact_quantile(full_chunk_us, 0.50), "us");
    out.add("write_amp", ratio(fp.nand.programs, fp.counters.host_writes), "pages/page");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // The traced replay runs on the CPU of the fastest untraced repetition.
  std::size_t fastest_rep = 0;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].wall_s < reps[fastest_rep].wall_s) fastest_rep = i;
  }
  cpus.pin(fastest_rep);
  // Full spans of one record in 16384 plus every record whose write raised
  // GC or SWL work, capped at 100,000 spans (about 14 MB of JSON lines).
  Recorder rec(16384, 100'000);
  const TracedRun t = run_traced(s, rec, out);
  out.attempted += t.fp.records;
  out.failed += t.failed;
  for (const std::string& d : diff(fp, t.fp)) {
    out.fail("traced replay differs from the untraced run in " + d);
  }
  add_per_layer(out, t, rec, ops);
  out.add("sim.chunk_p99_us", exact_quantile(full_chunk_us, 0.99), "us");
  std::fprintf(stderr, "%s: traced replay kept %zu spans, dropped %llu over the cap\n",
               opt.workload.c_str(), rec.spans_kept(),
               static_cast<unsigned long long>(rec.spans_dropped()));
  if (!opt.spans_dir.empty()) {
    const std::string path = opt.spans_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.jsonl";
    if (!rec.write_spans(path, opt.workload)) out.fail("cannot write spans to " + path);
  }
  return out;
}

}  // namespace perfbench
