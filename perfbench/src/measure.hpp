// Shared measurement helpers of the benchmark: clocks, sample statistics,
// process counters, the per-run child process, the closed-loop driver, and
// the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_seconds();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// True when at least ten of `samples` values lie beyond quantile q (p90
/// needs 100 samples), the least a reported percentile rests on.
inline bool supports_quantile(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< Worker threads to use: min(4, usable CPUs).
};

/// What one run reports back from the child process that ran it.
struct RunRecord {
  std::map<std::string, double> values;  ///< Timings and sizes.
  /// Exact counts and digests.  Every run of a workload process replays the
  /// same inputs, so each count must repeat in every run that reports it.
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, std::vector<double>> series;  ///< Per-round spans.
  std::string error;  ///< Empty when every output check held.

  double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
  std::uint64_t count(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
  }
  const std::vector<double>& spans(const std::string& name) const {
    static const std::vector<double> kEmpty;
    const auto it = series.find(name);
    return it == series.end() ? kEmpty : it->second;
  }
  bool traced() const { return value("traced") != 0.0; }
};

/// Runs `body` in a fresh child process and returns its record, so that
/// every run starts from the same clean heap, as a run of its own would.
/// A child that throws, dies, or outlives `timeout_s` yields a record
/// whose `error` says so.
RunRecord run_in_child(const std::function<RunRecord()>& body,
                       double timeout_s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's result: the runs attempted and failed, whether every
/// output check held, and the metrics of the mode (end-to-end or traced).
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// Records a failed output check.
  void fail(const std::string& why);
};

/// Runs `body` once, untimed, in a child process (see run_in_child); a
/// failed one counts as a failed run of the workload, named `what`.
RunRecord run_companion(RunReport& report, const std::string& what,
                        const std::function<RunRecord()>& body,
                        double timeout_s);

/// Runs `body(i)` closed-loop, each run in its own child process and
/// starting when the previous one ended, for about `seconds` of wall time:
/// a run starts only while the window can still hold one more of the runs
/// seen so far, and at least `min_runs` run.  A run fails when its record
/// carries an error, or a count that differs from the first good run's.
/// Returns the records of the runs that passed.
std::vector<RunRecord> closed_loop(
    RunReport& report, double seconds, int min_runs, double timeout_s,
    const std::function<RunRecord(int)>& body);

/// The records of `records` whose traced() equals `traced`.
std::vector<RunRecord> select(const std::vector<RunRecord>& records,
                              bool traced);

/// `name` of every record, in order.
std::vector<double> column(const std::vector<RunRecord>& records,
                           const std::string& name);

}  // namespace perfbench
