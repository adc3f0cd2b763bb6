// swl_perfbench: runs one benchmark workload and prints its outcome as one
// JSON line on stdout (diagnostics go to stderr).
//
//   swl_perfbench --workload <lifetime_ftl|lifetime_nftl|lifetime_dftl|host_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with nothing timed inside the
// replay; --trace 1 also runs the traced replay and reports per-layer
// metrics. perfbench/run.py builds this binary and is the entry point.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "swl_perfbench: " << why
            << "\nusage: swl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--spans-dir <dir>]\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--spans-dir") {
        opt.spans_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("invalid value for " + flag + ": '" + value + "'");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

void print_json(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const Metric& m : out.metrics) {
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions opt = parse(argc, argv);
  Outcome out;
  try {
    if (opt.workload == "host_mixed") {
      out = run_host_mixed(opt);
    } else if (opt.workload.rfind("lifetime_", 0) == 0) {
      out = run_lifetime(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "swl_perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  for (const std::string& e : out.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  print_json(out);
  return out.correct ? 0 : 3;
}
