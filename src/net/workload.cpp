#include "net/workload.hpp"

#include <stdexcept>
#include <utility>

#include "core/protocol_agent.hpp"
#include "core/wire.hpp"
#include "sim/fault_model.hpp"
#include "support/rng.hpp"

namespace rfc::net {

namespace {

/// A node steps the engine's phased-round kernel under the workload's
/// scheduler (synchronous, or masked by the partial-async Bernoulli
/// stream); activation-based policies wake one agent per event and have no
/// round structure to distribute.
void require_round_based(const sim::SchedulerSpec& scheduler) {
  const std::string& policy = scheduler.policy();
  if (policy != "synchronous" && policy != "partial-async") {
    throw std::invalid_argument(
        "net: transport runs support scheduler=synchronous or "
        "partial-async, not '" + policy + "'");
  }
}

void require_round_budget(const sim::Budget& budget) {
  if (budget.virtual_horizon > 0.0) {
    throw std::invalid_argument(
        "net: transport runs budget in rounds only (no virtual-time "
        "horizon)");
  }
}

std::vector<bool> fault_plan_for(std::uint64_t seed,
                                 sim::FaultPlacement placement,
                                 std::uint32_t n, std::uint32_t num_faulty) {
  // The exact stream of run_rumor_spreading / run_protocol.
  rfc::support::Xoshiro256 fault_rng(rfc::support::derive_seed(seed, 0x0fau));
  return sim::make_fault_plan(placement, n, num_faulty, fault_rng);
}

void mix_certificate(Fnv1a& fnv, const core::ProtocolParams& params,
                     const core::Certificate& certificate) {
  core::BitWriter w;
  core::encode_certificate(w, params, certificate);
  fnv.mix_u64(w.bit_count());
  fnv.mix_bytes(w.bytes().data(), w.bytes().size());
}

}  // namespace

Workload make_rumor_workload(const gossip::SpreadConfig& cfg) {
  require_round_based(cfg.scheduler);
  require_round_budget(cfg.budget);
  if (cfg.topology != nullptr) {
    throw std::invalid_argument(
        "net: transport runs model the complete graph (topology must be "
        "null)");
  }
  if (!cfg.network.inert()) {
    throw std::invalid_argument(
        "net: transport runs are adversary-free (the simulated message "
        "adversary lives in the engine; transport loss is the backend's "
        "hazard, recovered by retransmission) — network spec must be inert");
  }

  Workload w;
  w.n = cfg.n;
  w.seed = cfg.seed;
  w.scheduler = cfg.scheduler;
  w.fault_plan = fault_plan_for(cfg.seed, cfg.placement, cfg.n,
                                cfg.num_faulty);
  w.max_rounds = cfg.budget.events != 0 ? cfg.budget.events : cfg.max_rounds;

  // Sources on the first `initial_informed` active labels, exactly as
  // run_rumor_spreading places them.
  std::vector<bool> informed(cfg.n, false);
  std::uint32_t sources = cfg.initial_informed;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    if (!w.fault_plan[i] && sources > 0) {
      informed[i] = true;
      --sources;
    }
  }

  const gossip::Mechanism mechanism = cfg.mechanism;
  const std::uint64_t rumor_bits = cfg.rumor_bits;
  w.make_agent = [mechanism, informed = std::move(informed),
                  rumor_bits](sim::AgentId label) {
    return std::make_unique<gossip::RumorAgent>(mechanism, informed[label],
                                                rumor_bits);
  };
  w.agent_complete = [](const sim::Agent& agent) {
    return static_cast<const gossip::RumorAgent&>(agent).informed();
  };
  w.digest_agent = [](Fnv1a& fnv, const sim::Agent& agent, sim::AgentId label,
                      bool faulty) {
    fnv.mix_u64(label);
    fnv.mix_bool(faulty);
    fnv.mix_bool(static_cast<const gossip::RumorAgent&>(agent).informed());
  };
  return w;
}

Workload make_protocol_workload(const core::RunConfig& cfg) {
  require_round_based(cfg.scheduler);
  require_round_budget(cfg.budget);
  if (cfg.topology != nullptr) {
    throw std::invalid_argument(
        "net: transport runs model the complete graph (topology must be "
        "null)");
  }
  if (!cfg.coalition.empty()) {
    throw std::invalid_argument(
        "net: coalition deviations share in-process blackboards and cannot "
        "run across node processes");
  }
  if (!cfg.network.inert()) {
    throw std::invalid_argument(
        "net: transport runs are adversary-free (the simulated message "
        "adversary lives in the engine; transport loss is the backend's "
        "hazard, recovered by retransmission) — network spec must be inert");
  }

  Workload w;
  w.n = cfg.n;
  w.seed = cfg.seed;
  w.scheduler = cfg.scheduler;
  w.fault_plan = fault_plan_for(cfg.seed, cfg.placement, cfg.n,
                                cfg.num_faulty);
  w.has_params = true;
  w.params = core::ProtocolParams::make(cfg.n, cfg.gamma,
                                        cfg.strict_verification);
  w.params.coherence_digest = cfg.coherence_digest;
  w.max_rounds =
      cfg.budget.events != 0
          ? cfg.budget.events
          : (w.params.total_rounds() + cfg.max_rounds_slack) *
                cfg.scheduler.steps_per_round(cfg.n);

  const std::vector<core::Color> colors =
      cfg.colors.empty() ? core::leader_election_colors(cfg.n) : cfg.colors;
  if (colors.size() != cfg.n) {
    throw std::invalid_argument("net: colors size mismatch");
  }

  w.make_agent = [params = w.params, colors](sim::AgentId label) {
    return std::make_unique<core::ProtocolAgent>(params, colors.at(label));
  };
  w.agent_complete = [](const sim::Agent& agent) { return agent.done(); };
  w.digest_agent = [params = w.params](Fnv1a& fnv, const sim::Agent& agent,
                                       sim::AgentId label, bool faulty) {
    fnv.mix_u64(label);
    fnv.mix_bool(faulty);
    const auto& p = static_cast<const core::ProtocolAgent&>(agent);
    fnv.mix_bool(p.failed());
    fnv.mix_bool(p.decided());
    fnv.mix_u64(static_cast<std::uint64_t>(p.decision()));
    fnv.mix_bool(p.has_own_certificate());
    if (p.has_own_certificate()) {
      mix_certificate(fnv, params, p.own_certificate());
    }
    fnv.mix_bool(p.has_min_certificate());
    if (p.has_min_certificate()) {
      mix_certificate(fnv, params, p.min_certificate());
    }
  };
  return w;
}

}  // namespace rfc::net
