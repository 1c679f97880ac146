// perfbench_runner: runs one benchmark workload closed-loop and prints its
// metrics, one per line, then the result as one JSON object on the last
// line of standard output.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--git-rev REV]
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from traced runs interleaved with untraced
// ones.  A context line (machine, compiler, build type, revision, load)
// precedes the result.  Builds other than Release are refused.
#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"ns_per_agent_round", "ns"},
    {"peak_rss_mib", "MiB"},
    {"rss_bytes_per_agent", "B"},
};

// A per-layer metric a workload does not exercise reads 0 (README.md).
constexpr MetricSpec kPerLayer[] = {
    {"trace.overhead", "ratio"},
    {"sim.step_s", "s"},
    {"sim.step_ms_p50", "ms"},
    {"sim.step_ms_p90", "ms"},
    {"sim.messages", "count"},
    {"sim.ns_per_message", "ns"},
    {"sim.cpu_util", "cpu/wall"},
    {"sim.shard.speedup", "ratio"},
    {"sim.net.faults", "count"},
    {"sim.net.fault_ns_per_message", "ns"},
    {"gossip.check_s", "s"},
    {"core.commitment_s", "s"},
    {"core.voting_s", "s"},
    {"core.find_min_s", "s"},
    {"core.coherence_s", "s"},
    {"core.verification_s", "s"},
    {"core.outcome_s", "s"},
    {"core.bits_per_agent_round", "bit"},
    {"core.max_message_bits", "bit"},
    {"core.max_local_memory_bits", "bit"},
    {"core.rss_over_model", "ratio"},
    {"core.wire.encode_ns_per_bit", "ns"},
    {"core.wire.decode_ns_per_bit", "ns"},
    {"net.frames", "count"},
    {"net.bytes", "B"},
    {"net.bytes_per_frame", "B"},
    {"net.resend_requests", "count"},
    {"net.send_s", "s"},
    {"net.handle_s", "s"},
    {"net.wait_s", "s"},
    {"net.node_imbalance", "ratio"},
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest text that reads back as exactly `value`.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string first_line_with(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1u;
}

bool is_release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got " + key);
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  return args;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string loadavg = read_first_line("/proc/loadavg");
  Options options;
  std::string git_rev = "unknown";
  try {
    const auto args = parse_args(argc, argv);
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
    options.trace = args.at("trace") == "1";
    if (args.count("git-rev") != 0) git_rev = args.at("git-rev");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
  const unsigned cpus = usable_cpus();
  options.threads = cpus < 4 ? cpus : 4;

  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_revision\": \"%s\", "
      "\"loadavg_at_start\": \"%s\"}\n",
      json_escape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      cpus,
      json_escape(first_line_with("/proc/cpuinfo", "model name")).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(git_rev).c_str(), json_escape(loadavg).c_str());
  if (!is_release_build()) {
    std::fprintf(stderr,
                 "perfbench_runner: refusing to measure a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  RunReport report;
  try {
    if (options.workload == "spread") {
      report = run_spread(options);
    } else if (options.workload == "spread_sharded_lossy") {
      report = run_spread_sharded_lossy(options);
    } else if (options.workload == "protocol") {
      report = run_protocol(options);
    } else if (options.workload == "cluster") {
      report = run_cluster(options);
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // Set-up of the workload itself failed: no run could be attempted.
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  std::map<std::string, Metric> measured;
  for (const Metric& m : report.metrics) measured[m.name] = m;
  std::ostringstream metrics_json;
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = measured.find(spec.name);
    const double value = it != measured.end() ? it->second.value : 0.0;
    if (it != measured.end() && it->second.unit != spec.unit) {
      report.fail(std::string("unit mismatch for ") + spec.name);
    }
    std::printf("%-32s %-16s %s\n", spec.name, json_number(value).c_str(),
                spec.unit);
    metrics_json << (first ? "" : ", ") << '"' << spec.name
                 << "\": {\"value\": " << json_number(value)
                 << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  const double error_rate =
      report.attempted == 0 ? 1.0
                            : double(report.failed) / double(report.attempted);
  std::printf("%-32s %-16s failed/attempted = %llu/%llu\n", "error_rate",
              json_number(error_rate).c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct && report.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      metrics_json.str().c_str());
  return 0;
}
