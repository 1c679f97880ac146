// The `cluster` workload: Protocol P at n=4096 with gamma=4, run as 4
// NodeDriver nodes on 4 threads over the loopback transport through
// net::run_local_cluster, every node's client wrapped in a ProbeClient.
// Each run is cross-checked against net::reference_result, which is
// computed once, untimed, in a process of its own.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "net/harness.hpp"
#include "net/loopback.hpp"
#include "probe_client.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kClusterN = 4096;
constexpr std::uint32_t kNodes = 4;
constexpr double kRunTimeoutS = 90.0;

rfc::net::ClusterSpec cluster_spec(std::uint64_t seed) {
  rfc::net::ClusterSpec spec;
  spec.kind = rfc::net::ClusterSpec::Kind::kProtocol;
  spec.protocol.n = kClusterN;
  spec.protocol.gamma = 4.0;
  spec.protocol.seed = seed;
  spec.num_nodes = kNodes;
  return spec;
}

using MetricField = std::uint64_t rfc::sim::Metrics::*;

// The counters of sim::Metrics, so that a ClusterResult can come back from
// a child process as record counts.
const std::vector<std::pair<const char*, MetricField>>& metric_fields() {
  using M = rfc::sim::Metrics;
  static const std::vector<std::pair<const char*, MetricField>> kFields = {
      {"rounds", &M::rounds},
      {"pushes", &M::pushes},
      {"pull_requests", &M::pull_requests},
      {"pull_replies", &M::pull_replies},
      {"total_bits", &M::total_bits},
      {"max_message_bits", &M::max_message_bits},
      {"active_links", &M::active_links},
      {"denials", &M::denials},
      {"net_drops", &M::net_drops},
      {"net_dups", &M::net_dups},
      {"net_corruptions", &M::net_corruptions},
      {"net_delays", &M::net_delays},
      {"churn_crashes", &M::churn_crashes}};
  return kFields;
}

RunRecord to_record(const rfc::net::ClusterResult& result) {
  RunRecord record;
  record.counts["complete"] = result.complete ? 1 : 0;
  record.counts["rounds"] = result.rounds;
  record.counts["digest"] = result.digest;
  record.values["virtual_time"] = result.metrics.virtual_time;
  for (const auto& [name, field] : metric_fields()) {
    record.counts[std::string("m.") + name] = result.metrics.*field;
  }
  for (std::size_t b = 0; b < result.block_digests.size(); ++b) {
    record.counts["block." + std::to_string(b)] = result.block_digests[b];
  }
  return record;
}

rfc::net::ClusterResult from_record(const RunRecord& record) {
  rfc::net::ClusterResult result;
  result.complete = record.count("complete") != 0;
  result.rounds = record.count("rounds");
  result.digest = record.count("digest");
  result.metrics.virtual_time = record.value("virtual_time");
  for (const auto& [name, field] : metric_fields()) {
    result.metrics.*field = record.count(std::string("m.") + name);
  }
  for (std::uint32_t b = 0; b < kNodes; ++b) {
    result.block_digests.push_back(record.count("block." + std::to_string(b)));
  }
  return result;
}

RunRecord run_once(const rfc::net::ClusterSpec& spec,
                   const rfc::net::Workload& workload,
                   const rfc::net::FrameCodec& codec,
                   const rfc::net::ClusterResult& reference, bool traced) {
  RunRecord record;
  record.values["traced"] = traced ? 1.0 : 0.0;
  std::vector<NodeStats> nodes(kNodes);
  rfc::net::LoopbackHub hub(kNodes);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const std::vector<rfc::net::NodeReport> reports = rfc::net::run_local_cluster(
      spec, [&](rfc::net::NodeId id) -> rfc::net::CommClientPtr {
        return std::make_unique<ProbeClient>(
            rfc::net::make_comm_client(rfc::net::TransportKind::kLoopback,
                                       &hub),
            nodes.at(id), traced, codec);
      });
  const Clock::time_point end = Clock::now();
  Clock::time_point ready = t0;
  for (const NodeStats& s : nodes) ready = std::max(ready, s.started);
  record.values["setup_s"] = seconds_between(t0, ready);
  record.values["wall_s"] = seconds_between(ready, end);
  record.values["cpu_s"] = process_cpu_seconds() - cpu0;
  record.values["rss_mib"] = peak_rss_mib();

  const rfc::net::ClusterResult result =
      rfc::net::merge_reports(workload, reports);
  const std::string mismatch = rfc::net::cross_check(result, reference);
  if (!mismatch.empty()) {
    record.error = "cluster diverges from the in-memory engine: " + mismatch;
  }
  record.counts["rounds"] = result.rounds;
  record.counts["messages"] = result.metrics.messages();
  record.counts["bits"] = result.metrics.total_bits;
  record.counts["max_message_bits"] = result.metrics.max_message_bits;
  record.counts["digest"] = result.digest;

  std::uint64_t frames = 0, bytes = 0, resends = 0;
  for (const NodeStats& s : nodes) {
    frames += s.frames;
    bytes += s.bytes;
    resends += s.resend_requests;
  }
  record.values["frames"] = double(frames);
  record.values["bytes"] = double(bytes);
  record.values["resend_requests"] = double(resends);
  // Retransmissions depend on timing, so frame counts repeat only in runs
  // that needed none.
  if (resends == 0) record.counts["frames"] = frames;
  if (!traced) return record;

  // Node 0's round-status sends bound each round; the last one is the
  // status exchange that ends the run.
  const auto& starts = nodes.front().round_starts;
  std::vector<double>& rounds = record.series["step_round"];
  std::vector<double>& spans = record.series["step_s"];
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    rounds.push_back(double(starts[k].first));
    spans.push_back(seconds_between(starts[k].second, starts[k + 1].second));
  }
  record.values["outcome_s"] =
      starts.empty() ? 0.0 : seconds_between(starts.back().second, end);

  double send = 0.0, handle = 0.0, wait = 0.0, busiest = 0.0, busy = 0.0;
  for (const NodeStats& s : nodes) {
    send += s.send_s;
    handle += s.handle_s;
    wait += s.poll_s - s.handle_s;
    const double node_busy =
        seconds_between(s.started, s.stopped) - (s.poll_s - s.handle_s);
    busiest = std::max(busiest, node_busy);
    busy += node_busy;
  }
  record.values["send_s"] = send;
  record.values["handle_s"] = handle;
  record.values["wait_s"] = wait;
  record.values["node_imbalance"] = busiest / (busy / kNodes);
  return record;
}

}  // namespace

RunReport run_cluster(const Options& options) {
  const rfc::net::ClusterSpec spec = cluster_spec(options.seed);
  const rfc::net::Workload workload = rfc::net::make_cluster_workload(spec);
  const rfc::core::ProtocolParams params = rfc::core::ProtocolParams::make(
      spec.protocol.n, spec.protocol.gamma, spec.protocol.strict_verification);
  const rfc::net::FrameCodec codec{kClusterN, &params};

  RunReport report;
  const rfc::net::ClusterResult reference =
      from_record(run_companion(
          report, "reference run",
          [&] { return to_record(rfc::net::reference_result(spec)); },
          kRunTimeoutS));
  const std::vector<RunRecord> records = closed_loop(
      report, options.seconds, options.trace ? 4 : 3, kRunTimeoutS,
      [&](int i) {
        return run_once(spec, workload, codec, reference,
                        options.trace && i % 2 == 1);
      });
  const std::vector<RunRecord> untraced = select(records, false);
  const std::vector<RunRecord> traced = select(records, true);
  if (!options.trace) {
    add_end_to_end(report, untraced, kClusterN);
    return report;
  }
  if (untraced.empty() || traced.empty()) return report;  // Runs failed.

  // The in-memory run of the same spec gives the end state the wire probe
  // encodes and the local-memory figure NodeReports do not carry.
  const RunRecord in_memory = run_companion(
      report, "in-memory run",
      [&] { return run_protocol_with_probe(spec.protocol); }, kRunTimeoutS);
  add_step_metrics(report, traced, untraced);
  add_protocol_phases(report, params, traced);
  add_protocol_counts(report, traced, kClusterN,
                      in_memory.value("max_local_memory_bits"), in_memory);
  const RunRecord& sample = traced.front();
  const double frames = sample.value("frames");
  report.add("net.frames", frames, "count");
  report.add("net.bytes", sample.value("bytes"), "B");
  report.add("net.bytes_per_frame", sample.value("bytes") / frames, "B");
  report.add("net.resend_requests", sample.value("resend_requests"), "count");
  report.add("net.send_s", median(column(traced, "send_s")), "s");
  report.add("net.handle_s", median(column(traced, "handle_s")), "s");
  report.add("net.wait_s", median(column(traced, "wait_s")), "s");
  report.add("net.node_imbalance", median(column(traced, "node_imbalance")),
             "ratio");
  return report;
}

}  // namespace perfbench
