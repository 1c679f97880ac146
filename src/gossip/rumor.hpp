// Classic epidemic rumor spreading on the complete graph (Demers et al. '87,
// Karp et al. FOCS'00), built on the sim engine.
//
// These primitives serve two purposes: they are the substrate the protocol's
// Find-Min phase is built from (a pull-based broadcast, [19] in the paper),
// and experiment E9 uses them to calibrate the Θ(log n) broadcast time that
// Lemma 3 (point 3) relies on — including the fault-resilience slack that
// motivates the γ(α) constant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/agent.hpp"
#include "sim/budget.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::gossip {

enum class Mechanism : std::uint8_t {
  kPush,      ///< Informed nodes push the rumor to a random neighbor.
  kPull,      ///< Uninformed nodes pull a random neighbor.
  kPushPull,  ///< Informed push, uninformed pull.
};

const std::vector<Mechanism>& all_mechanisms();
std::string to_string(Mechanism m);

/// Tag of the rumor payload (gossip range 0x10..0x1F; see sim/payload.hpp).
/// Shared with gossip::MinAggregationAgent, whose messages are the same
/// "one value of configurable width" wire shape.
inline constexpr sim::PayloadTag kRumorPayloadTag = 0x10;

/// A rumor value travelling the network, inline (no allocation); bit size
/// is configurable so experiments can model payloads of any width.
inline sim::Payload make_rumor_payload(std::uint64_t value,
                                       std::uint64_t bits) noexcept {
  return sim::Payload::inline_words(kRumorPayloadTag, bits, value);
}

/// The value carried by a rumor payload (word 0; callers gate on the tag).
inline std::uint64_t rumor_value_in(const sim::Payload& p) noexcept {
  return p.word(0);
}

/// One node of the rumor-spreading process.
class RumorAgent final : public sim::Agent {
 public:
  RumorAgent(Mechanism mech, bool informed, std::uint64_t rumor_bits) noexcept
      : mech_(mech), informed_(informed), rumor_bits_(rumor_bits) {}

  bool informed() const noexcept { return informed_; }

  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override;
  /// Rumor agents never self-terminate: completion ("everyone informed") is
  /// a global property the driver below observes from outside.
  bool done() const override { return false; }

  /// One-stage pipeline: informed or not.  Lets reactive adversaries
  /// (adversarial:target=min-cert) starve exactly the still-uninformed
  /// agents — the worst case for a pull spread.
  double progress() const noexcept override { return informed_ ? 1.0 : 0.0; }

 private:
  Mechanism mech_;
  bool informed_;
  std::uint64_t rumor_bits_;
};

struct SpreadConfig {
  std::uint32_t n = 0;
  Mechanism mechanism = Mechanism::kPull;
  std::uint64_t seed = 1;
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  std::uint64_t rumor_bits = 64;
  /// Activation policy; the default is the paper's synchronous model.
  /// Under `sequential`/`poisson` expect Θ(n log n) scheduling events on
  /// the complete graph (vs Θ(log n) synchronous rounds) — the cost gap
  /// experiment E12 quantifies.  `synchronous:shards=S,threads=T` runs the
  /// round sharded on a thread pool (sim/sharding.hpp), bit-identical to
  /// the serial engine — how large-n sweeps use multicore hardware.
  sim::SchedulerSpec scheduler;
  /// Message-layer adversary & churn (sim/network_spec.hpp); the default is
  /// the reliable network.  Composes with every scheduler — e.g. a lossy
  /// push-pull spread is `network:drop=0.1` under any activation policy.
  sim::NetworkSpec network;
  /// Cap on scheduling events (rounds under round-based policies, per-agent
  /// activations under sequential/adversarial/poisson).
  std::uint64_t max_rounds = 10'000;
  /// Optional run budget override: a virtual-time horizon and/or an event
  /// cap.  An unset event cap falls back to max_rounds (which then doubles
  /// as the termination backstop of horizon-only runs); the horizon is the
  /// natural axis for continuous-time (poisson) spreads.
  sim::Budget budget;
  /// How often (in scheduling events) the O(n) completion predicate is
  /// evaluated.  0 = auto: every round for round-based policies,
  /// every ~n/4 activations for activation-based ones; completion time is
  /// overstated by at most that granularity.
  std::uint64_t check_every = 0;
  std::uint32_t initial_informed = 1;  ///< Sources, placed on active labels.
  sim::TopologyPtr topology;           ///< Null = complete graph.
};

struct SpreadResult {
  bool complete = false;        ///< Every active agent informed.
  std::uint64_t rounds = 0;     ///< Scheduling events elapsed.
  double virtual_time = 0.0;    ///< Simulated time (= rounds when discrete).
  sim::Metrics metrics;
};

/// Builds the engine of a rumor-spreading run — fault plan applied, sources
/// placed on the first `initial_informed` active labels, a RumorAgent on
/// every label — without stepping it.  Split out so harnesses that need the
/// engine afterwards (e.g. the transport cross-check digesting per-agent
/// end state, net/harness.hpp) drive the exact engine the entry point runs.
std::unique_ptr<sim::Engine> build_spread_engine(const SpreadConfig& cfg);

/// Runs the spread loop on an engine built by build_spread_engine.
SpreadResult run_rumor_spreading_on(sim::Engine& engine,
                                    const SpreadConfig& cfg);

/// Runs a full rumor-spreading execution under cfg.scheduler and reports
/// its convergence time.  This is the single entry point for every
/// activation model; select the policy through the SchedulerSpec.
/// Equivalent to build_spread_engine + run_rumor_spreading_on.
SpreadResult run_rumor_spreading(const SpreadConfig& cfg);

}  // namespace rfc::gossip
