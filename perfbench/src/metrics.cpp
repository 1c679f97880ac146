// Aggregation of run records into the metrics several workloads share.
#include <array>

#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(RunReport& report, const std::vector<RunRecord>& untraced,
                    double n) {
  std::vector<double> ns_per_agent_round;
  for (const RunRecord& r : untraced) {
    const double agent_rounds = n * double(r.count("rounds"));
    if (agent_rounds > 0) {
      ns_per_agent_round.push_back(r.value("wall_s") * 1e9 / agent_rounds);
    }
  }
  const double rss_mib = median(column(untraced, "rss_mib"));
  report.add("wall_s", median(column(untraced, "wall_s")), "s");
  report.add("setup_s", median(column(untraced, "setup_s")), "s");
  report.add("ns_per_agent_round", median(ns_per_agent_round), "ns");
  report.add("peak_rss_mib", rss_mib, "MiB");
  report.add("rss_bytes_per_agent", rss_mib * 1024.0 * 1024.0 / n, "B");
}

void add_step_metrics(RunReport& report, const std::vector<RunRecord>& traced,
                      const std::vector<RunRecord>& untraced) {
  const double messages = double(traced.front().count("messages"));
  std::vector<double> step_total, cpu_util, pooled_ms;
  for (const RunRecord& r : traced) {
    const double total = sum(r.spans("step_s"));
    step_total.push_back(total);
    cpu_util.push_back(r.value("cpu_s") / total);
    for (double s : r.spans("step_s")) pooled_ms.push_back(s * 1e3);
  }
  report.add("trace.overhead",
             median(column(traced, "wall_s")) /
                 median(column(untraced, "wall_s")),
             "ratio");
  report.add("sim.step_s", median(step_total), "s");
  report.add("sim.step_ms_p50", median(pooled_ms), "ms");
  if (supports_quantile(pooled_ms.size(), 0.9)) {
    report.add("sim.step_ms_p90", quantile(pooled_ms, 0.9), "ms");
  }
  report.add("sim.messages", messages, "count");
  report.add("sim.ns_per_message", median(step_total) * 1e9 / messages, "ns");
  report.add("sim.cpu_util", median(cpu_util), "cpu/wall");
}

void add_protocol_phases(RunReport& report,
                         const rfc::core::ProtocolParams& params,
                         const std::vector<RunRecord>& traced) {
  // Indexed by rfc::core::Phase; kFinished is the local Verification round.
  static constexpr std::array<const char*, 5> kNames = {
      "core.commitment_s", "core.voting_s", "core.find_min_s",
      "core.coherence_s", "core.verification_s"};
  std::array<std::vector<double>, 5> per_phase;
  for (const RunRecord& r : traced) {
    const std::vector<double>& rounds = r.spans("step_round");
    const std::vector<double>& spans = r.spans("step_s");
    std::array<double, 5> total{};
    for (std::size_t k = 0; k < spans.size() && k < rounds.size(); ++k) {
      const auto round = static_cast<std::uint64_t>(rounds[k]);
      total[static_cast<std::size_t>(params.phase_of_round(round))] +=
          spans[k];
    }
    for (std::size_t p = 0; p < kNames.size(); ++p) {
      per_phase[p].push_back(total[p]);
    }
  }
  for (std::size_t p = 0; p < kNames.size(); ++p) {
    report.add(kNames[p], median(per_phase[p]), "s");
  }
  report.add("core.outcome_s", median(column(traced, "outcome_s")), "s");
}

void add_protocol_counts(RunReport& report,
                         const std::vector<RunRecord>& traced, double n,
                         double max_local_memory_bits,
                         const RunRecord& wire_probe) {
  const RunRecord& sample = traced.front();
  report.add("core.bits_per_agent_round",
             double(sample.count("bits")) /
                 (n * double(sample.count("rounds"))),
             "bit");
  report.add("core.max_message_bits", double(sample.count("max_message_bits")),
             "bit");
  report.add("core.max_local_memory_bits", max_local_memory_bits, "bit");
  report.add("core.rss_over_model",
             median(column(traced, "rss_mib")) * 1024.0 * 1024.0 / n /
                 (max_local_memory_bits / 8.0),
             "ratio");
  report.add("core.wire.encode_ns_per_bit",
             wire_probe.value("encode_ns_per_bit"), "ns");
  report.add("core.wire.decode_ns_per_bit",
             wire_probe.value("decode_ns_per_bit"), "ns");
}

}  // namespace perfbench
