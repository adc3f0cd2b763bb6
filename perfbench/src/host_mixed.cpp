// host_mixed: the host front-end under mixed load.
//
// One process, four busy threads on a 4-core host: two HostScheduler shard
// consumers, each owning FTL + SW Leveler under a BlockDevice, and two
// closed-loop clients:
//   - the loader keeps up to 32 requests in flight (asynchronous submit,
//     reap with wait), a 70/30 write/read mix of random sectors;
//   - the probe issues the same mix synchronously at queue depth 1, for
//     exactly as long as the loader runs, and measures submit-to-reap
//     latency.
// The clients own disjoint sector ranges and keep a shadow of the last value
// written to each sector; every read is compared with it, and after stop()
// every sector is read back through read_sector_direct and compared.
//
// The traced run times the loader's submit and wait calls, and replays the
// probe's request stream single-threaded into a twin pair of BlockDevice
// stacks to time write_sector and read_sector without the front-end.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "host/scheduler.hpp"
#include "sim/experiments.hpp"
#include "swl/leveler.hpp"
#include "tracing.hpp"

namespace perfbench {

using namespace swl;

namespace {

constexpr unsigned kShards = 2;
constexpr std::size_t kLoaderDepth = 32;
/// The loader also reaps opportunistically with poll() after every this many
/// submissions, as bench_micro's host_mt client does.
constexpr std::uint64_t kPollEvery = 16;
constexpr std::uint32_t kWritePercent = 70;
/// Setups per run; setup_s is their median and the last one is measured.
constexpr int kSetups = 21;
/// The timed measurement is cut into windows of this length. The first window
/// (the GC steady state forming) is not used; of the others, the end-to-end
/// metrics take the least disturbed one, since interference from other
/// tenants of the host only ever slows a window down.
constexpr double kWindowS = 1.0;

const FlashGeometry kGeometry{.block_count = 256, .pages_per_block = 64, .page_size_bytes = 2048};

/// Logical pages exported per shard: three quarters of the physical pages,
/// so uniform random overwrites leave the FTL's GC a workable spare area.
constexpr Lba kLbasPerShard = Lba{256} * 64 * 3 / 4;

struct Seeds {
  std::uint64_t fill;
  std::uint64_t leveler;
  std::uint64_t loader;
  std::uint64_t probe;
};

Seeds seeds_of(std::uint64_t seed) {
  return {derive_seed(seed, 11), derive_seed(seed, 12), derive_seed(seed, 13),
          derive_seed(seed, 14)};
}

/// Value a sector holds after the prefill.
std::uint64_t initial_value(const Seeds& s, std::uint64_t sector, std::uint64_t lane_mask) {
  return derive_seed(s.fill, sector) & lane_mask;
}

/// Global sector of `local` on `shard`, the inverse of
/// HostScheduler::shard_of / local_sector.
bdev::SectorIndex global_sector(unsigned shard, bdev::SectorIndex local, std::uint32_t spp) {
  const bdev::SectorIndex page = local / spp;
  return (page * kShards + shard) * spp + local % spp;
}

/// One shard's stack, every sector written with its initial value so that
/// every read in the run hits a mapped page.
host::ShardStack make_stack(const Seeds& seeds, unsigned shard) {
  nand::NandConfig nc;
  nc.geometry = kGeometry;
  nc.timing = default_timing(CellType::mlc_x2);
  host::ShardStack s;
  s.chip = std::make_unique<nand::NandChip>(nc);
  ftl::FtlConfig fc;
  fc.lba_count = kLbasPerShard;
  s.layer = std::make_unique<ftl::Ftl>(*s.chip, fc);
  sim::ExperimentScale scale;
  scale.endurance = nc.timing.endurance;
  wear::LevelerConfig lev;
  lev.k = 0;
  lev.threshold = sim::scaled_threshold(100.0, scale);
  lev.rng_seed = derive_seed(seeds.leveler, shard);
  s.layer->attach_leveler(std::make_unique<wear::SwLeveler>(kGeometry.block_count, lev));
  s.dev = std::make_unique<bdev::BlockDevice>(*s.layer);
  const std::uint32_t spp = s.dev->sectors_per_page();
  const std::uint64_t mask = s.dev->lane_mask();
  std::vector<std::uint64_t> values(spp);
  for (bdev::SectorIndex first = 0; first < s.dev->sector_count(); first += spp) {
    for (std::uint32_t lane = 0; lane < spp; ++lane) {
      values[lane] = initial_value(seeds, global_sector(shard, first + lane, spp), mask);
    }
    if (s.dev->write_sector_run(first, values) != Status::ok) {
      throw std::runtime_error("prefill write failed");
    }
  }
  return s;
}

struct ProbeOp {
  bool write;
  bdev::SectorIndex sector;
  std::uint64_t value;  // written value, or the value the read returned
};

/// Everything one timed measurement produces.
struct Measurement {
  double setup_s = 0.0;
  double loader_s = 0.0;
  std::uint64_t loader_completed = 0;
  std::uint64_t loader_failed = 0;
  std::uint64_t probe_ops = 0;
  std::uint64_t probe_failed = 0;
  std::uint64_t mismatches = 0;
  /// Per window (the last entry collects what completes after the stop):
  /// loader completions and probe latencies, each written by one client.
  std::vector<std::uint64_t> window_done;
  std::vector<LogHistogram> window_probe_ns;
  std::vector<double> window_s;
  std::vector<ProbeOp> probe_stream;  // traced measurements only
  host::StreamCounters loader_counters;
  std::uint64_t requests_executed = 0;
  std::uint64_t drain_batches = 0;
  std::uint64_t coalesced_requests = 0;
  // NAND programs and TL page writes during the measurement (prefill excluded).
  std::uint64_t nand_programs = 0;
  std::uint64_t page_writes = 0;
  // Traced measurements only: loader call timings and completion latency.
  LogHistogram submit_ns;
  LogHistogram reap_ns;  // wait() calls
  LogHistogram poll_ns;
  LogHistogram loader_latency_ns;
  std::vector<std::string> errors;
};

struct Layout {
  bdev::SectorIndex sectors = 0;
  bdev::SectorIndex split = 0;  // loader owns [0, split), probe [split, sectors)
  std::uint32_t spp = 0;
  std::uint64_t lane_mask = 0;
};

/// Expected-value ring for the loader's in-flight reads, keyed by request id.
struct PendingRead {
  host::RequestId id = ~host::RequestId{0};
  std::uint64_t expected = 0;
};

/// State shared between the timing thread and the two clients.
struct Clock {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> window{0};
};

void run_loader(host::QueuePair& qp, const Layout& lay, std::uint64_t seed,
                std::vector<std::uint64_t>& shadow, const Clock& clk, bool traced,
                Measurement& out) {
  Rng rng(seed);
  std::array<host::Completion, kLoaderDepth> comps;
  std::vector<PendingRead> pending(4096);
  const std::size_t mask = pending.size() - 1;
  while (!clk.go.load(std::memory_order_acquire)) {
  }
  const std::int64_t t0 = now_ns();
  auto reap = [&](std::size_t n) {
    out.window_done[clk.window.load(std::memory_order_relaxed)] += n;
    for (std::size_t i = 0; i < n; ++i) {
      const host::Completion& c = comps[i];
      ++out.loader_completed;
      if (c.status != Status::ok) ++out.loader_failed;
      if (traced) out.loader_latency_ns.record(c.latency_ns);
      if (c.op == host::OpKind::read) {
        const PendingRead& p = pending[c.id & mask];
        if (p.id != c.id || c.value != p.expected) ++out.mismatches;
      }
    }
  };
  std::uint64_t submitted = 0;
  while (!clk.stop.load(std::memory_order_relaxed)) {
    const bdev::SectorIndex sector = rng.below(lay.split);
    const bool write = rng.below(100) < kWritePercent;
    const std::uint64_t value = rng.next() & lay.lane_mask;
    host::RequestId id = 0;
    while (true) {
      const std::int64_t s0 = traced ? now_ns() : 0;
      const Status st = write ? qp.submit_write(sector, value, host::SubmitMode::try_once, &id)
                              : qp.submit_read(sector, host::SubmitMode::try_once, &id);
      if (traced) out.submit_ns.record(static_cast<std::uint64_t>(now_ns() - s0));
      if (st == Status::ok) break;
      if (st != Status::busy) {
        ++out.loader_failed;
        break;
      }
      const std::int64_t w0 = traced ? now_ns() : 0;
      const std::size_t n = qp.wait(comps);
      if (traced) out.reap_ns.record(static_cast<std::uint64_t>(now_ns() - w0));
      reap(n);
    }
    if (write) {
      shadow[sector] = value;
    } else {
      pending[id & mask] = {id, shadow[sector]};
    }
    if (++submitted % kPollEvery == 0) {
      const std::int64_t p0 = traced ? now_ns() : 0;
      const std::size_t n = qp.poll(comps);
      if (traced) out.poll_ns.record(static_cast<std::uint64_t>(now_ns() - p0));
      reap(n);
    }
  }
  out.loader_s = static_cast<double>(now_ns() - t0) * 1e-9;
  while (qp.counters().inflight() > 0) reap(qp.wait(comps));
  out.loader_counters = qp.counters();
}

void run_probe(host::QueuePair& qp, const Layout& lay, std::uint64_t seed,
               std::vector<std::uint64_t>& shadow, const Clock& clk, bool traced,
               Measurement& out) {
  Rng rng(seed);
  while (!clk.go.load(std::memory_order_acquire)) {
  }
  while (!clk.stop.load(std::memory_order_relaxed)) {
    const bdev::SectorIndex sector = lay.split + rng.below(lay.sectors - lay.split);
    const bool write = rng.below(100) < kWritePercent;
    const std::uint64_t value = rng.next() & lay.lane_mask;
    std::uint64_t got = 0;
    const std::int64_t t0 = now_ns();
    const Status st = write ? qp.write_sector(sector, value) : qp.read_sector(sector, &got);
    out.window_probe_ns[clk.window.load(std::memory_order_relaxed)].record(
        static_cast<std::uint64_t>(now_ns() - t0));
    ++out.probe_ops;
    if (st != Status::ok) ++out.probe_failed;
    if (write) {
      shadow[sector] = value;
    } else if (got != shadow[sector]) {
      ++out.mismatches;
    }
    if (traced) out.probe_stream.push_back({write, sector, write ? value : got});
  }
}

Measurement measure(const Seeds& seeds, double seconds, bool traced) {
  Measurement ses;
  std::vector<double> setups;
  std::unique_ptr<host::HostScheduler> sched;
  host::QueuePair* loader = nullptr;
  host::QueuePair* probe = nullptr;
  for (int i = 0; i < kSetups; ++i) {
    if (sched) sched->stop();
    sched.reset();
    const std::int64_t t0 = now_ns();
    std::vector<host::ShardStack> stacks;
    ses.nand_programs = 0;
    ses.page_writes = 0;
    for (unsigned s = 0; s < kShards; ++s) {
      stacks.push_back(make_stack(seeds, s));
      ses.nand_programs -= stacks.back().chip->counters().programs;
      ses.page_writes -= stacks.back().layer->counters().host_writes;
    }
    host::HostConfig config;
    config.queue_depth = kLoaderDepth;
    sched = std::make_unique<host::HostScheduler>(std::move(stacks), config);
    loader = &sched->open_queue_pair();
    probe = &sched->open_queue_pair();
    sched->start();
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  ses.setup_s = median(setups);

  Layout lay;
  lay.sectors = sched->sector_count();
  lay.spp = sched->sectors_per_page();
  lay.split = (lay.sectors / lay.spp / 2) * lay.spp;
  lay.lane_mask = sched->shard_device(0).lane_mask();
  std::vector<std::uint64_t> shadow(lay.sectors);
  for (bdev::SectorIndex g = 0; g < lay.sectors; ++g) {
    shadow[g] = initial_value(seeds, g, lay.lane_mask);
  }

  const std::size_t windows =
      std::max<std::size_t>(2, static_cast<std::size_t>(seconds / kWindowS));
  ses.window_done.assign(windows + 1, 0);
  Measurement probe_part;
  probe_part.window_probe_ns.resize(windows + 1);
  Clock clk;
  std::thread lt([&] { run_loader(*loader, lay, seeds.loader, shadow, clk, traced, ses); });
  std::thread pt([&] { run_probe(*probe, lay, seeds.probe, shadow, clk, traced, probe_part); });
  const auto start = std::chrono::steady_clock::now();
  clk.go.store(true, std::memory_order_release);
  auto boundary = start;
  for (std::size_t w = 1; w <= windows; ++w) {
    const auto next = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(kWindowS * static_cast<double>(w)));
    std::this_thread::sleep_until(next);
    const auto now = std::chrono::steady_clock::now();
    clk.window.store(w, std::memory_order_relaxed);
    ses.window_s.push_back(std::chrono::duration<double>(now - boundary).count());
    boundary = now;
  }
  clk.stop.store(true, std::memory_order_relaxed);
  lt.join();
  pt.join();
  sched->stop();

  ses.probe_ops = probe_part.probe_ops;
  ses.probe_failed = probe_part.probe_failed;
  ses.mismatches += probe_part.mismatches;
  ses.window_probe_ns = std::move(probe_part.window_probe_ns);
  ses.probe_stream = std::move(probe_part.probe_stream);

  for (unsigned s = 0; s < kShards; ++s) {
    const host::ShardCounters& c = sched->shard_counters(s);
    ses.requests_executed += c.requests_executed;
    ses.drain_batches += c.drain_batches;
    ses.coalesced_requests += c.coalesced_requests;
    bdev::BlockDevice& dev = sched->shard_device(s);
    ses.nand_programs += dev.layer().chip().counters().programs;
    ses.page_writes += dev.layer().counters().host_writes;
    try {
      dev.layer().check_invariants();
    } catch (const std::logic_error& e) {
      ses.errors.push_back("shard " + std::to_string(s) + ": check_invariants failed: " +
                           e.what());
    }
  }
  std::uint64_t readback_bad = 0;
  for (bdev::SectorIndex g = 0; g < lay.sectors; ++g) {
    std::uint64_t v = 0;
    if (sched->read_sector_direct(g, &v) != Status::ok || v != shadow[g]) ++readback_bad;
  }
  if (readback_bad != 0) {
    ses.errors.push_back(std::to_string(readback_bad) + " sectors read back wrong after stop()");
  }
  if (ses.mismatches != 0) {
    ses.errors.push_back(std::to_string(ses.mismatches) +
                         " reads returned a value other than the last one written");
  }
  return ses;
}

/// The end-to-end figures of a measurement, each from its least disturbed window
/// after the first.
struct Best {
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t probe_samples = 0;
};

Best best_window(const Measurement& s) {
  Best b;
  for (std::size_t w = 1; w < s.window_s.size(); ++w) {
    const double rate = static_cast<double>(s.window_done[w]) / s.window_s[w];
    const double p50 = s.window_probe_ns[w].quantile(0.50) * 1e-3;
    const double p99 = s.window_probe_ns[w].quantile(0.99) * 1e-3;
    b.req_per_s = std::max(b.req_per_s, rate);
    b.p50_us = w == 1 ? p50 : std::min(b.p50_us, p50);
    b.p99_us = w == 1 ? p99 : std::min(b.p99_us, p99);
  }
  for (const LogHistogram& h : s.window_probe_ns) b.probe_samples += h.count();
  return b;
}

struct Twin {
  LogHistogram write_ns;
  LogHistogram read_ns;
  std::uint64_t sector_writes = 0;
  std::uint64_t rmw_reads = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

/// Replays the probe's request stream, single-threaded and in order, into a
/// twin pair of freshly prefilled shard stacks, timing each BlockDevice call.
/// The probe owns its sectors, so every read must return what the probe read
/// through the scheduler.
Twin replay_on_twin(const Seeds& seeds, const std::vector<ProbeOp>& ops) {
  Twin t;
  std::vector<host::ShardStack> stacks;
  for (unsigned s = 0; s < kShards; ++s) stacks.push_back(make_stack(seeds, s));
  const std::uint32_t spp = stacks[0].dev->sectors_per_page();
  std::uint64_t writes0 = 0;
  std::uint64_t rmw0 = 0;
  for (const host::ShardStack& s : stacks) {
    writes0 += s.dev->counters().sector_writes;
    rmw0 += s.dev->counters().rmw_page_reads;
  }
  for (const ProbeOp& op : ops) {
    const bdev::SectorIndex page = op.sector / spp;
    bdev::BlockDevice& dev = *stacks[page % kShards].dev;
    const bdev::SectorIndex local = (page / kShards) * spp + op.sector % spp;
    std::uint64_t got = 0;
    const std::int64_t t0 = now_ns();
    const Status st = op.write ? dev.write_sector(local, op.value) : dev.read_sector(local, &got);
    const auto dt = static_cast<std::uint64_t>(now_ns() - t0);
    (op.write ? t.write_ns : t.read_ns).record(dt);
    if (st != Status::ok) ++t.failed;
    if (!op.write && got != op.value) ++t.mismatches;
  }
  for (const host::ShardStack& s : stacks) {
    t.sector_writes += s.dev->counters().sector_writes;
    t.rmw_reads += s.dev->counters().rmw_page_reads;
  }
  t.sector_writes -= writes0;
  t.rmw_reads -= rmw0;
  return t;
}

}  // namespace

Outcome run_host_mixed(const RunOptions& opt) {
  Outcome out;
  const Seeds seeds = seeds_of(opt.seed);
  // --trace 1 splits the budget between an untraced reference measurement and
  // the traced one.
  const Measurement base = measure(seeds, opt.trace ? opt.seconds / 2.0 : opt.seconds, false);
  for (const std::string& e : base.errors) out.fail(e);
  out.attempted += base.loader_completed + base.probe_ops;
  out.failed += base.loader_failed + base.probe_failed;
  const Best best = best_window(base);
  if (!opt.trace) {
    out.add("setup_s", base.setup_s, "s");
    out.add("ops_per_s", best.req_per_s, "1/s");
    out.add("lat_p50_us", best.p50_us, "us");
    out.add("write_amp",
            static_cast<double>(base.nand_programs) / static_cast<double>(base.page_writes),
            "pages/page");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    std::fprintf(stderr, "host_mixed: %llu probe samples, %llu loader requests\n",
                 static_cast<unsigned long long>(best.probe_samples),
                 static_cast<unsigned long long>(base.loader_completed));
    return out;
  }

  const Measurement traced = measure(seeds, opt.seconds / 2.0, true);
  for (const std::string& e : traced.errors) out.fail(e);
  out.attempted += traced.loader_completed + traced.probe_ops;
  out.failed += traced.loader_failed + traced.probe_failed;
  const Twin twin = replay_on_twin(seeds, traced.probe_stream);
  out.attempted += traced.probe_stream.size();
  out.failed += twin.failed;
  if (twin.mismatches != 0) {
    out.fail(std::to_string(twin.mismatches) +
             " twin reads differ from what the probe read through the scheduler");
  }

  const double write_p50 = twin.write_ns.quantile(0.5);
  const double loader_ns = traced.loader_s * 1e9;
  const double submit_share = traced.submit_ns.sum() / loader_ns;
  const double reap_share = (traced.reap_ns.sum() + traced.poll_ns.sum()) / loader_ns;
  const host::StreamCounters& lc = base.loader_counters;
  out.add("host.submit_ns_p50", traced.submit_ns.quantile(0.5), "ns");
  out.add("host.reap_ns_p50", traced.reap_ns.quantile(0.5), "ns");
  out.add("host.poll_ns_p50", traced.poll_ns.quantile(0.5), "ns");
  out.add("host.drain_batch_mean", ratio(base.requests_executed, base.drain_batches),
          "requests");
  out.add("host.coalesced_share", ratio(base.coalesced_requests, base.requests_executed),
          "ratio");
  out.add("host.would_block_ratio", ratio(lc.would_blocks, lc.submitted + lc.would_blocks),
          "ratio");
  out.add("host.qd1_p99_us", best.p99_us, "us");
  out.add("host.loader_p50_us", traced.loader_latency_ns.quantile(0.5) * 1e-3, "us");
  out.add("host.loader_p99_us", traced.loader_latency_ns.quantile(0.99) * 1e-3, "us");
  out.add("host.handoff_us", best.p50_us - write_p50 * 1e-3, "us");
  out.add("bdev.write_sector_ns_p50", write_p50, "ns");
  out.add("bdev.read_sector_ns_p50", twin.read_ns.quantile(0.5), "ns");
  out.add("bdev.rmw_reads_per_write", ratio(twin.rmw_reads, twin.sector_writes), "pages");
  // Shares of the loader thread's time: its submit calls, its wait calls,
  // and the rest of its loop (request generation and shadow bookkeeping).
  out.add("share.host_submit", submit_share, "ratio");
  out.add("share.host_reap", reap_share, "ratio");
  out.add("share.unattributed", 1.0 - submit_share - reap_share, "ratio");
  const double traced_req_per_s = best_window(traced).req_per_s;
  out.add("tracing.traced_ns_per_op", 1e9 / traced_req_per_s, "ns");
  out.add("tracing.overhead", best.req_per_s / traced_req_per_s - 1.0, "ratio");
  out.add("tracing.empty_span_ns", empty_span_ns(), "ns");
  return out;
}

}  // namespace perfbench
