// Exploratory asynchronous Protocol P — a concrete probe at the paper's
// second open problem ("the asynchronous (i.e. sequential) GOSSIP model
// where, at every round, only one (possibly random) agent is awake").
//
// The synchronous protocol relies on globally aligned phases: a voter's
// round index identifies its vote, and everyone enters Find-Min at the same
// instant.  In the sequential model each agent can only count its *own*
// activations, which concentrate around t/n after t global steps with
// Θ(sqrt(t/n)) jitter — so naive per-agent phase schedules misalign by
// Θ(sqrt(q)) activations and late votes miss the certificate, tripping the
// (completeness) verification.
//
// Our variant makes three changes, each independently motivated:
//   1. votes carry their own voting-round index (log q extra bits), since
//      the receiver cannot infer it from a global clock;
//   2. pull replies are phase-tagged composites (intention + optional
//      current minimal certificate), since the servee cannot know which
//      phase its puller is in;
//   3. **guard bands**: each agent idles for `slack` activations between
//      phases, absorbing the Θ(sqrt(q log n)) scheduling jitter.  slack = 0
//      recovers the naive schedule (which fails often); slack of a few
//      sqrt(q) makes the full audit pipeline go through w.h.p.
//
// Experiment E12c measures failure rate and fairness vs the slack.  The
// *rational* analysis of this variant is open — we reproduce and
// characterize the obstacle, as the paper does, rather than claim the
// equilibrium result.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"
#include "core/verification.hpp"
#include "sim/agent.hpp"
#include "sim/budget.hpp"
#include "sim/fault_model.hpp"
#include "sim/metrics.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::core {

/// Local schedule of the asynchronous variant, in units of the agent's own
/// activations: q commitment pulls, slack idle, q voting pushes, slack
/// idle, q + slack find-min pulls, q coherence pushes, then verify.
///
/// The guard band after voting protects vote *completeness* (no vote may
/// land after its recipient seals the certificate).  Between Find-Min and
/// Coherence no idle band is needed — extra Find-Min pulls both absorb the
/// scheduling jitter and extend the broadcast, which is what agreement on
/// CE_min actually requires.
struct AsyncSchedule {
  std::uint32_t q = 0;
  std::uint32_t slack = 0;

  enum class LocalPhase : std::uint8_t {
    kCommitment,
    kVoting,
    kFindMin,
    kCoherence,
    kFinished,
    kGuard,  ///< Idle activation inside a guard band.
  };

  LocalPhase phase_of(std::uint64_t activation) const noexcept;
  /// Index within the current communication phase, in [0, q).
  std::uint32_t index_of(std::uint64_t activation) const noexcept;
  std::uint64_t total_activations() const noexcept {
    return 4ull * q + 3ull * slack;
  }

  /// The sim-level phase observation for activation `a` (the agent's next
  /// wake-up): guard bands report the communication phase they lead into —
  /// an agent idling before its voting pushes is "entering its voting
  /// window", which is exactly what a phase-aware adversary targets.
  sim::AgentPhase observed_phase(std::uint64_t activation) const noexcept;

  /// Numeric pipeline position for activation `a`: completed observed
  /// stages + fraction of the current one, in [0, 4], consistent with
  /// observed_phase (guard activations count toward the stage they lead
  /// into).  Exact for any activation policy, like observed_phase.
  double progress_of(std::uint64_t activation) const noexcept;
};

class AsyncProtocolAgent final : public sim::Agent {
 public:
  AsyncProtocolAgent(const ProtocolParams& params, AsyncSchedule schedule,
                     Color color);

  bool failed() const noexcept { return failed_; }
  bool decided() const noexcept { return decided_; }
  Color decision() const noexcept {
    return decided_ && !failed_ ? final_color_ : kNoColor;
  }
  Color initial_color() const noexcept { return color_; }
  /// Why verification rejected (kNone when accepted or failure came from
  /// the Coherence mismatch rule).
  VerificationFailure verification_failure() const noexcept {
    return verification_failure_;
  }
  bool failed_in_coherence() const noexcept { return failed_in_coherence_; }
  /// Wake-ups consumed so far (diagnostics).
  std::uint64_t activations() const noexcept { return activations_; }

  void on_start(const sim::Context& ctx) override;
  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override;
  bool done() const override { return decided_ || failed_; }

  /// Audit-pipeline stage for adaptive schedulers (sim::EngineView).  The
  /// local schedule counts own activations, so this is the phase of the
  /// agent's *next* wake-up — exact under any activation policy.
  sim::AgentPhase phase() const noexcept override {
    return done() ? sim::AgentPhase::kDone
                  : schedule_.observed_phase(activations_);
  }

  /// Numeric pipeline position (sim::EngineView), from the local schedule
  /// and the agent's own activation count — exact under any policy.
  double progress() const noexcept override {
    return done() ? 4.0 : schedule_.progress_of(activations_);
  }

 private:
  void finalize();

  ProtocolParams params_;
  AsyncSchedule schedule_;
  Color color_;
  std::uint64_t activations_ = 0;
  VoteIntention intention_;
  CollectedIntentions collected_;
  ReceivedVotes received_votes_;
  Certificate own_cert_;
  bool own_cert_built_ = false;
  Certificate min_cert_;   ///< Best certificate seen (incl. early pushes).
  bool has_min_cert_ = false;
  bool in_coherence_ = false;
  bool failed_ = false;
  bool failed_in_coherence_ = false;
  bool decided_ = false;
  Color final_color_ = kNoColor;
  VerificationFailure verification_failure_ = VerificationFailure::kNone;
};

struct AsyncRunConfig {
  std::uint32_t n = 0;
  double gamma = 4.0;
  /// Guard band between phases, in activations.  0 = naive schedule.
  std::uint32_t slack = 0;
  std::uint64_t seed = 1;
  std::vector<Color> colors;  ///< Empty = leader election.
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  /// Activation policy; the guard-band schedule counts *local* activations,
  /// so it is well-defined under any policy.  The default is the paper's
  /// sequential model; adversarial/poisson runs map where the guard-band
  /// completeness argument breaks (extends E12c/E12d), and
  /// `adversarial:phase=vote,budget=B` starves agents exactly in their
  /// voting window (E12f).
  sim::SchedulerSpec scheduler = sim::SchedulerSpec::sequential();
  /// Message-layer adversary & churn (sim/network_spec.hpp); the default is
  /// the reliable network.  E12h maps success probability against its
  /// drop/corrupt rates.
  sim::NetworkSpec network;
  /// Optional run budget override (events and/or a virtual-time horizon).
  /// Unset fields fall back to the activation-scaled default event cap.
  sim::Budget budget;
};

struct AsyncRunResult {
  Color winner = kNoColor;  ///< kNoColor = ⊥ (failure or disagreement).
  bool failed() const noexcept { return winner == kNoColor; }
  std::uint64_t steps = 0;           ///< Scheduling events elapsed.
  double virtual_time = 0.0;         ///< Simulated time (= steps discrete).
  sim::Metrics metrics;
  std::map<Color, std::uint32_t> active_colors;
};

AsyncRunResult run_async_protocol(const AsyncRunConfig& cfg);

}  // namespace rfc::core
