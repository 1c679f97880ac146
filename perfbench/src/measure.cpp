#include "measure.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::string serialize(const RunRecord& record) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, v] : record.values) {
    out << "v " << name << ' ' << v << '\n';
  }
  for (const auto& [name, c] : record.counts) {
    out << "c " << name << ' ' << c << '\n';
  }
  for (const auto& [name, s] : record.series) {
    out << "s " << name << ' ' << s.size();
    for (double v : s) out << ' ' << v;
    out << '\n';
  }
  if (!record.error.empty()) out << "e " << record.error << '\n';
  return out.str();
}

RunRecord deserialize(const std::string& text) {
  RunRecord record;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, name;
    fields >> kind;
    if (kind == "e") {
      std::getline(fields >> std::ws, record.error);
      continue;
    }
    fields >> name;
    if (kind == "v") {
      fields >> record.values[name];
    } else if (kind == "c") {
      fields >> record.counts[name];
    } else if (kind == "s") {
      std::size_t size = 0;
      fields >> size;
      std::vector<double>& s = record.series[name];
      s.resize(size);
      for (double& v : s) fields >> v;
    }
    if (fields.fail()) {
      record.error = "malformed record line from the run: " + line;
      break;
    }
  }
  return record;
}

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // The parent reports the truncated record.
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

RunRecord run_in_child(const std::function<RunRecord()>& body,
                       double timeout_s) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    RunRecord record;
    try {
      record = body();
    } catch (const std::exception& e) {
      record.error = std::string("run threw: ") + e.what();
    }
    write_all(fds[1], serialize(record));
    close(fds[1]);
    std::fflush(stderr);
    _exit(0);  // Skip the parent's atexit handlers and stdio buffers.
  }

  close(fds[1]);
  std::string text;
  bool timed_out = false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  char buf[1 << 16];
  for (;;) {
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // Re-check the deadline.
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child closed its end.
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  RunRecord record;
  if (timed_out) {
    record.error = "run exceeded its time limit";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    record.error = "run process died";
  } else {
    record = deserialize(text);
  }
  return record;
}

void RunReport::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

RunRecord run_companion(RunReport& report, const std::string& what,
                        const std::function<RunRecord()>& body,
                        double timeout_s) {
  ++report.attempted;
  RunRecord record = run_in_child(body, timeout_s);
  if (!record.error.empty()) {
    report.fail(what + ": " + record.error);
    ++report.failed;
  }
  return record;
}

std::vector<RunRecord> closed_loop(
    RunReport& report, double seconds, int min_runs, double timeout_s,
    const std::function<RunRecord(int)>& body) {
  std::vector<RunRecord> passed;
  std::vector<double> durations;
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       i < min_runs || seconds_since(start) + median(durations) < seconds;
       ++i) {
    ++report.attempted;
    const Clock::time_point t0 = Clock::now();
    RunRecord record = run_in_child([&] { return body(i); }, timeout_s);
    durations.push_back(seconds_since(t0));
    std::fprintf(stderr,
                 "perfbench: run %d%s wall_s=%.6f setup_s=%.6f rounds=%llu\n",
                 i, record.traced() ? " (traced)" : "", record.value("wall_s"),
                 record.value("setup_s"),
                 static_cast<unsigned long long>(record.count("rounds")));
    if (record.error.empty() && !passed.empty()) {
      for (const auto& [name, c] : record.counts) {
        const auto it = passed.front().counts.find(name);
        if (it != passed.front().counts.end() && it->second != c) {
          record.error = "run does not reproduce the first run's " + name;
          break;
        }
      }
    }
    if (!record.error.empty()) {
      report.fail(record.error);
      ++report.failed;
      continue;
    }
    passed.push_back(std::move(record));
  }
  return passed;
}

std::vector<RunRecord> select(const std::vector<RunRecord>& records,
                              bool traced) {
  std::vector<RunRecord> out;
  for (const RunRecord& r : records) {
    if (r.traced() == traced) out.push_back(r);
  }
  return out;
}

std::vector<double> column(const std::vector<RunRecord>& records,
                           const std::string& name) {
  std::vector<double> out;
  for (const RunRecord& r : records) out.push_back(r.value(name));
  return out;
}

}  // namespace perfbench
