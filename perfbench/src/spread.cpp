// The two spread workloads: one push-pull rumor spread at n=2^20, serial on
// the reliable network (`spread`) or sharded on every CPU under an active
// message-layer adversary (`spread_sharded_lossy`).
//
// Untraced runs go through the public entry points
// (gossip::build_spread_engine + run_rumor_spreading_on).  Traced runs
// replay run_rumor_spreading_on's check-before-step loop on the same engine
// with sim::Engine::step, so that a span sits around each round and around
// each O(n) all-informed scan; they must reproduce the untraced end state.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gossip/rumor.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rfc::gossip::RumorAgent;
using rfc::gossip::SpreadConfig;

constexpr std::uint32_t kSpreadN = 1u << 20;
constexpr const char* kLossyNetwork =
    "network:drop=0.05,dup=0.02,delay=1,seed=7";
constexpr double kRunTimeoutS = 60.0;

SpreadConfig spread_config(std::uint64_t seed, const std::string& scheduler,
                           const std::string& network) {
  SpreadConfig cfg;
  cfg.n = kSpreadN;
  cfg.mechanism = rfc::gossip::Mechanism::kPushPull;
  cfg.seed = seed;
  cfg.scheduler = rfc::sim::SchedulerSpec::parse(scheduler);
  if (!network.empty()) cfg.network = rfc::sim::NetworkSpec::parse(network);
  return cfg;
}

/// The completion predicate run_rumor_spreading_on evaluates every round.
bool all_informed(const rfc::sim::Engine& engine) {
  for (std::uint32_t i = 0; i < engine.n(); ++i) {
    if (engine.is_faulty(i)) continue;
    if (!static_cast<const RumorAgent&>(engine.agent(i)).informed()) {
      return false;
    }
  }
  return true;
}

RunRecord run_once(const SpreadConfig& cfg, bool traced,
                   const std::uint64_t* expected_digest) {
  RunRecord record;
  record.values["traced"] = traced ? 1.0 : 0.0;
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<rfc::sim::Engine> engine =
      rfc::gossip::build_spread_engine(cfg);
  const Clock::time_point t1 = Clock::now();
  bool complete = false;
  if (!traced) {
    complete = rfc::gossip::run_rumor_spreading_on(*engine, cfg).complete;
  } else {
    rfc::sim::Budget budget = cfg.budget;
    if (budget.events == 0) budget.events = cfg.max_rounds;
    double check_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double>& steps = record.series["step_s"];
    const auto timed_scan = [&] {
      const Clock::time_point a = Clock::now();
      const bool all = all_informed(*engine);
      check_s += seconds_since(a);
      return all;
    };
    while (!budget.exhausted(engine->round(), engine->virtual_time()) &&
           !timed_scan() && !engine->all_done()) {
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point s0 = Clock::now();
      engine->step();
      steps.push_back(seconds_since(s0));
      cpu_s += process_cpu_seconds() - cpu0;
    }
    complete = timed_scan();
    record.values["check_s"] = check_s;
    record.values["cpu_s"] = cpu_s;
  }
  record.values["wall_s"] = seconds_since(t1);
  record.values["setup_s"] = seconds_between(t0, t1);
  record.values["rss_mib"] = peak_rss_mib();

  const rfc::sim::Metrics& m = engine->metrics();
  rfc::net::Fnv1a fnv;
  fnv.mix_bool(complete);
  fnv.mix_u64(engine->round());
  mix_metrics(fnv, m);
  for (std::uint32_t i = 0; i < engine->n(); ++i) {
    fnv.mix_bool(static_cast<const RumorAgent&>(engine->agent(i)).informed());
  }
  record.counts["rounds"] = engine->round();
  record.counts["messages"] = m.messages();
  record.counts["bits"] = m.total_bits;
  record.counts["faults"] = m.net_drops + m.net_dups + m.net_delays;
  record.counts["digest"] = fnv.value();
  if (!complete) {
    record.error = "spread did not complete";
  } else if (expected_digest != nullptr && fnv.value() != *expected_digest) {
    record.error = "end-state digest differs from the serial engine's";
  }
  return record;
}

double step_ns_per_message(const RunRecord& run) {
  const double messages = double(run.count("messages"));
  return messages == 0 ? 0.0 : sum(run.spans("step_s")) * 1e9 / messages;
}

/// Shared body of both spread workloads.  `reference` (optional) is the
/// serial engine's run on the same spec and seed: every run's end-state
/// digest must equal its digest.  `inert` (traced only) is the same spread
/// at the same shards on the reliable network.
RunReport run_spread_workload(RunReport report, const Options& options,
                              const SpreadConfig& cfg,
                              const RunRecord* reference,
                              const RunRecord* inert) {
  const std::uint64_t expected =
      reference != nullptr ? reference->count("digest") : 0;
  const std::vector<RunRecord> records = closed_loop(
      report, options.seconds, options.trace ? 4 : 3, kRunTimeoutS,
      [&](int i) {
        return run_once(cfg, options.trace && i % 2 == 1,
                        reference != nullptr ? &expected : nullptr);
      });
  const std::vector<RunRecord> untraced = select(records, false);
  const std::vector<RunRecord> traced = select(records, true);
  if (!options.trace) {
    add_end_to_end(report, untraced, kSpreadN);
    return report;
  }
  if (untraced.empty() || traced.empty()) return report;  // Runs failed.

  add_step_metrics(report, traced, untraced);
  std::vector<double> step_total, ns_per_msg;
  for (const RunRecord& r : traced) {
    step_total.push_back(sum(r.spans("step_s")));
    ns_per_msg.push_back(step_ns_per_message(r));
  }
  report.add("gossip.check_s", median(column(traced, "check_s")), "s");
  report.add("sim.net.faults", double(traced.front().count("faults")),
             "count");
  if (reference != nullptr && inert != nullptr) {
    report.add("sim.shard.speedup",
               sum(reference->spans("step_s")) / median(step_total), "ratio");
    report.add("sim.net.fault_ns_per_message",
               median(ns_per_msg) - step_ns_per_message(*inert), "ns");
  }
  return report;
}

/// The serial or inert companion of `spread_sharded_lossy`, untimed.
RunRecord companion(RunReport& report, const std::string& what,
                    const SpreadConfig& cfg, bool traced) {
  return run_companion(
      report, what, [&] { return run_once(cfg, traced, nullptr); },
      kRunTimeoutS);
}

}  // namespace

RunReport run_spread(const Options& options) {
  return run_spread_workload(RunReport{}, options,
                             spread_config(options.seed, "synchronous", ""),
                             nullptr, nullptr);
}

RunReport run_spread_sharded_lossy(const Options& options) {
  const std::string sharded =
      "synchronous:shards=4,threads=" + std::to_string(options.threads);
  // The serial run pins the digest (and, traced, the shards=1 step time of
  // the speedup); the reliable-network run at the same shards is the fault
  // stage's baseline.
  RunReport report;
  const RunRecord reference = companion(
      report, "serial run",
      spread_config(options.seed, "synchronous", kLossyNetwork),
      options.trace);
  RunRecord inert;
  if (options.trace) {
    inert = companion(report, "reliable-network run",
                      spread_config(options.seed, sharded, ""), true);
  }
  return run_spread_workload(
      std::move(report), options,
      spread_config(options.seed, sharded, kLossyNetwork), &reference,
      options.trace ? &inert : nullptr);
}

}  // namespace perfbench
