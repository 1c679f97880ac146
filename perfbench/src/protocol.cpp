// The `protocol` workload: one Protocol P run at n=2^14 with gamma=4 and
// leader-election colors (c_u = u), serial, no faults, through
// core::build_protocol_engine + run_protocol_on.  Traced runs time every
// round from sim::Engine's round observer and bucket it by phase.
#include <memory>
#include <vector>

#include "core/protocol_agent.hpp"
#include "core/runner.hpp"
#include "sim/engine.hpp"
#include "wire_probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rfc::core::ProtocolAgent;

constexpr std::uint32_t kProtocolN = 1u << 14;
constexpr double kRunTimeoutS = 90.0;

rfc::core::RunConfig protocol_config(std::uint64_t seed) {
  rfc::core::RunConfig cfg;
  cfg.n = kProtocolN;
  cfg.gamma = 4.0;
  cfg.seed = seed;  // Empty colors: fair leader election, c_u = u.
  return cfg;
}

/// The wire probe's figures as record values (error: the record's error).
void add_wire_probe(RunRecord& record, const rfc::sim::Engine& engine,
                    const rfc::core::ProtocolParams& params) {
  const WireProbe wire = probe_wire(engine, params);
  record.values["encode_ns_per_bit"] = wire.encode_ns_per_bit;
  record.values["decode_ns_per_bit"] = wire.decode_ns_per_bit;
  if (record.error.empty()) record.error = wire.error;
}

RunRecord run_once(const rfc::core::RunConfig& cfg,
                   const rfc::core::ProtocolParams& params, bool traced,
                   bool probe) {
  RunRecord record;
  record.values["traced"] = traced ? 1.0 : 0.0;
  std::vector<double>& rounds = record.series["step_round"];
  std::vector<double>& spans = record.series["step_s"];
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<rfc::sim::Engine> engine =
      rfc::core::build_protocol_engine(cfg);
  const Clock::time_point t1 = Clock::now();
  Clock::time_point last = t1;
  const double cpu0 = process_cpu_seconds();
  double cpu_last = cpu0;
  if (traced) {
    rounds.reserve(params.total_rounds() + cfg.max_rounds_slack);
    spans.reserve(params.total_rounds() + cfg.max_rounds_slack);
    engine->set_round_observer([&](const rfc::sim::Engine& e) {
      const Clock::time_point now = Clock::now();
      rounds.push_back(double(e.round() - 1));
      spans.push_back(seconds_between(last, now));
      last = now;
      cpu_last = process_cpu_seconds();
    });
  }
  const rfc::core::RunResult res = rfc::core::run_protocol_on(*engine, cfg);
  const Clock::time_point t2 = Clock::now();
  engine->set_round_observer(nullptr);
  record.values["setup_s"] = seconds_between(t0, t1);
  record.values["wall_s"] = seconds_between(t1, t2);
  record.values["rss_mib"] = peak_rss_mib();
  if (traced) {
    record.values["outcome_s"] = seconds_between(last, t2);
    record.values["cpu_s"] = cpu_last - cpu0;
  }
  record.values["max_local_memory_bits"] = double(res.max_local_memory_bits);

  rfc::net::Fnv1a fnv;
  fnv.mix_u64(static_cast<std::uint64_t>(res.winner));
  fnv.mix_u64(res.winner_agent);
  fnv.mix_u64(res.rounds);
  fnv.mix_u64(res.honest_failures);
  fnv.mix_u64(res.max_local_memory_bits);
  mix_metrics(fnv, res.metrics);
  for (std::uint32_t i = 0; i < engine->n(); ++i) {
    const auto& agent = static_cast<const ProtocolAgent&>(engine->agent(i));
    fnv.mix_u64(static_cast<std::uint64_t>(agent.decision()));
    fnv.mix_u64(agent.has_min_certificate() ? agent.min_certificate().digest()
                                            : 0);
  }
  record.counts["rounds"] = res.rounds;
  record.counts["messages"] = res.metrics.messages();
  record.counts["bits"] = res.metrics.total_bits;
  record.counts["max_message_bits"] = res.metrics.max_message_bits;
  record.counts["digest"] = fnv.value();
  if (res.failed() || res.honest_failures != 0 ||
      !res.events.find_min_agreement) {
    record.error =
        "Protocol P ended in bottom, an honest failure, or Find-Min "
        "disagreement";
  }
  if (probe) add_wire_probe(record, *engine, params);
  return record;
}

}  // namespace

RunRecord run_protocol_with_probe(const rfc::core::RunConfig& cfg) {
  const rfc::core::ProtocolParams params = rfc::core::ProtocolParams::make(
      cfg.n, cfg.gamma, cfg.strict_verification);
  return run_once(cfg, params, false, true);
}

RunReport run_protocol(const Options& options) {
  const rfc::core::RunConfig cfg = protocol_config(options.seed);
  const rfc::core::ProtocolParams params = rfc::core::ProtocolParams::make(
      cfg.n, cfg.gamma, cfg.strict_verification);

  RunReport report;
  // The first traced run also encodes its end state through the wire probe.
  const std::vector<RunRecord> records = closed_loop(
      report, options.seconds, options.trace ? 4 : 3, kRunTimeoutS,
      [&](int i) {
        return run_once(cfg, params, options.trace && i % 2 == 1,
                        options.trace && i == 1);
      });
  const std::vector<RunRecord> untraced = select(records, false);
  const std::vector<RunRecord> traced = select(records, true);
  if (!options.trace) {
    add_end_to_end(report, untraced, cfg.n);
    return report;
  }
  if (untraced.empty() || traced.empty()) return report;  // Runs failed.

  add_step_metrics(report, traced, untraced);
  add_protocol_phases(report, params, traced);
  const RunRecord& sample = traced.front();
  add_protocol_counts(report, traced, cfg.n,
                      sample.value("max_local_memory_bits"), sample);
  return report;
}

}  // namespace perfbench
