// The adaptive half of the scheduler contract: EngineView observations
// (clocks, per-agent done/faulty/phase, shard geometry), the Agent::phase()
// hook implementations, the phase-aware adversary's starvation/budget
// semantics, and the batched-delivery rotation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/async_protocol.hpp"
#include "core/protocol_agent.hpp"
#include "core/runner.hpp"
#include "gossip/rumor.hpp"
#include "sim/engine.hpp"
#include "sim/engine_view.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

/// Never-done agent with a pinned, externally controlled phase report.
class PhasedAgent final : public Agent {
 public:
  explicit PhasedAgent(AgentPhase phase = AgentPhase::kUnknown) noexcept
      : phase_(phase) {}

  std::uint64_t activations() const noexcept { return activations_; }

  Action on_round(const Context&) override {
    ++activations_;
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  bool done() const override { return false; }
  AgentPhase phase() const noexcept override { return phase_; }

 private:
  AgentPhase phase_;
  std::uint64_t activations_ = 0;
};

/// Never-done agent with a test-controlled progress report and an optional
/// pinned phase, for exercising the reactive rules against known state.
/// Per the Agent observation contract the report moves only in the agent's
/// own callbacks: it re-reads its source at start and on every push.  To
/// move an agent's progress mid-run a test changes the source and sets
/// `*notify` to the agent's label; the next agent to wake pushes to it.
class ProgressAgent final : public Agent {
 public:
  ProgressAgent(const double* source, AgentId* notify,
                AgentPhase phase = AgentPhase::kUnknown) noexcept
      : source_(source), notify_(notify), phase_(phase) {}

  std::uint64_t activations() const noexcept { return activations_; }

  void on_start(const Context&) override { progress_ = *source_; }
  Action on_round(const Context&) override {
    ++activations_;
    if (notify_ == nullptr || *notify_ == kNoAgent) return Action::idle();
    return Action::push(std::exchange(*notify_, kNoAgent), Payload{});
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  void on_push(const Context&, AgentId, const Payload&) override {
    progress_ = *source_;
  }
  bool done() const override { return false; }
  AgentPhase phase() const noexcept override { return phase_; }
  double progress() const noexcept override { return progress_; }

 private:
  const double* source_;
  AgentId* notify_;
  AgentPhase phase_;
  double progress_ = 0.0;
  std::uint64_t activations_ = 0;
};

Engine progress_engine(std::uint32_t n, std::uint64_t seed,
                       const SchedulerSpec& spec,
                       const std::vector<double>& progress,
                       const std::vector<AgentPhase>& phases = {},
                       AgentId* notify = nullptr) {
  Engine engine({n, seed, nullptr, spec.make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<ProgressAgent>(
                            &progress.at(i), notify,
                            i < phases.size() ? phases[i]
                                              : AgentPhase::kUnknown));
  }
  return engine;
}

std::vector<std::uint64_t> progress_activation_counts(const Engine& engine) {
  std::vector<std::uint64_t> counts(engine.n());
  for (AgentId i = 0; i < engine.n(); ++i) {
    counts[i] =
        static_cast<const ProgressAgent&>(engine.agent(i)).activations();
  }
  return counts;
}

Engine phased_engine(std::uint32_t n, std::uint64_t seed,
                     const SchedulerSpec& spec,
                     const std::vector<AgentPhase>& phases) {
  Engine engine({n, seed, nullptr, spec.make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<PhasedAgent>(
                            i < phases.size() ? phases[i]
                                              : AgentPhase::kUnknown));
  }
  return engine;
}

std::vector<std::uint64_t> activation_counts(const Engine& engine) {
  std::vector<std::uint64_t> counts(engine.n());
  for (AgentId i = 0; i < engine.n(); ++i) {
    counts[i] =
        static_cast<const PhasedAgent&>(engine.agent(i)).activations();
  }
  return counts;
}

// --------------------------------------------------------------------------
// AgentPhase plumbing
// --------------------------------------------------------------------------

TEST(AgentPhase, StringRoundTrip) {
  for (const AgentPhase p : {AgentPhase::kCommit, AgentPhase::kVote,
                             AgentPhase::kSpread, AgentPhase::kConfirm,
                             AgentPhase::kDone}) {
    EXPECT_EQ(parse_agent_phase(to_string(p)), p) << to_string(p);
  }
  EXPECT_THROW(parse_agent_phase("warp-drive"), std::invalid_argument);
  EXPECT_THROW(parse_agent_phase("unknown"), std::invalid_argument);
  EXPECT_THROW(parse_agent_phase(""), std::invalid_argument);
}

TEST(AgentPhase, DefaultsToUnknownForPlainAgents) {
  const gossip::RumorAgent agent(gossip::Mechanism::kPull, false, 8);
  EXPECT_EQ(agent.phase(), AgentPhase::kUnknown);
}

TEST(AgentPhase, AsyncScheduleObservesPipelineStages) {
  // Guard bands report the communication phase they lead into: an agent
  // idling before its voting pushes is already "entering its voting
  // window".
  core::AsyncSchedule s;
  s.q = 10;
  s.slack = 4;
  EXPECT_EQ(s.observed_phase(0), AgentPhase::kCommit);
  EXPECT_EQ(s.observed_phase(9), AgentPhase::kCommit);
  EXPECT_EQ(s.observed_phase(10), AgentPhase::kVote);   // Guard 1.
  EXPECT_EQ(s.observed_phase(14), AgentPhase::kVote);   // Voting proper.
  EXPECT_EQ(s.observed_phase(23), AgentPhase::kVote);
  EXPECT_EQ(s.observed_phase(24), AgentPhase::kSpread);  // Guard 2.
  EXPECT_EQ(s.observed_phase(28), AgentPhase::kSpread);  // Find-min.
  EXPECT_EQ(s.observed_phase(41), AgentPhase::kSpread);
  EXPECT_EQ(s.observed_phase(42), AgentPhase::kConfirm);  // Coherence.
  EXPECT_EQ(s.observed_phase(51), AgentPhase::kConfirm);
  EXPECT_EQ(s.observed_phase(52), AgentPhase::kDone);
}

TEST(AgentPhase, ProtocolAgentTracksAuditPipeline) {
  // The synchronous agent's phase observation follows the global schedule
  // through its own activations.
  const std::uint32_t n = 16;
  const auto params = core::ProtocolParams::make(n, 3.0);
  Engine engine({n, 7});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<core::ProtocolAgent>(
                            params, static_cast<core::Color>(i)));
  }
  const EngineView& view = engine.view();
  EXPECT_EQ(view.phase(0), AgentPhase::kCommit);  // Before any round.
  engine.run(params.voting_begin() + 1);
  EXPECT_EQ(view.phase(0), AgentPhase::kVote);
  engine.run(params.find_min_begin() + 1);
  EXPECT_EQ(view.phase(0), AgentPhase::kSpread);
  engine.run(params.coherence_begin() + 1);
  EXPECT_EQ(view.phase(0), AgentPhase::kConfirm);
  engine.run(params.total_rounds() + 4);
  EXPECT_EQ(view.phase(0), AgentPhase::kDone);
  EXPECT_TRUE(view.done(0));
}

// --------------------------------------------------------------------------
// EngineView
// --------------------------------------------------------------------------

TEST(EngineView, ExposesClocksFaultsAndGeometry) {
  const std::uint32_t n = 10;
  Engine engine({n, 3});
  engine.set_faulty(2);
  engine.set_faulty(7);
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<PhasedAgent>(AgentPhase::kCommit));
  }
  const EngineView& view = engine.view();
  EXPECT_EQ(view.n(), n);
  EXPECT_EQ(view.num_active(), 8u);
  EXPECT_EQ(view.num_faulty(), 2u);
  EXPECT_TRUE(view.faulty(2));
  EXPECT_FALSE(view.faulty(3));
  EXPECT_FALSE(view.done(0));
  EXPECT_FALSE(view.all_done());
  EXPECT_EQ(view.phase(0), AgentPhase::kCommit);
  engine.run(3);
  EXPECT_EQ(view.time(), 3u);
  EXPECT_DOUBLE_EQ(view.virtual_time(), 3.0);

  // Block geometry matches the sharded executor's partition rule, with
  // block_of the exact inverse of block_begin.
  for (const std::uint32_t blocks : {1u, 3u, 4u, 10u}) {
    EXPECT_EQ(view.block_begin(0, blocks), 0u);
    EXPECT_EQ(view.block_begin(blocks, blocks), n);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      for (std::uint32_t i = view.block_begin(b, blocks);
           i < view.block_begin(b + 1, blocks); ++i) {
        EXPECT_EQ(view.block_of(i, blocks), b)
            << "blocks=" << blocks << " label=" << i;
      }
    }
  }
  EXPECT_EQ(view.blocks(3), 3u);
  EXPECT_EQ(view.blocks(64), n);  // Clamped to the label count.
  // block_of clamps the same way, so it always indexes a blocks()-sized
  // array in bounds (requested > n degenerates to one block per label).
  for (AgentId i = 0; i < n; ++i) {
    EXPECT_EQ(view.block_of(i, 64), i) << i;
    EXPECT_LT(view.block_of(i, 64), view.blocks(64)) << i;
  }
}

// --------------------------------------------------------------------------
// PhaseAdversarialScheduler: phase targeting and the starvation budget
// --------------------------------------------------------------------------

TEST(PhaseAdversary, StarvesOnlyVictimsInTargetPhase) {
  // Victim 0 sits in its voting window, victim 1 does not: only 0 starves.
  const std::uint32_t n = 6;
  Engine engine = phased_engine(
      n, 21,
      SchedulerSpec::adversarial({.victim_ids = {0, 1},
                                  .target_phase = AgentPhase::kVote}),
      {AgentPhase::kVote, AgentPhase::kCommit});
  engine.run(120);
  const auto counts = activation_counts(engine);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);
  for (AgentId i = 2; i < n; ++i) EXPECT_GT(counts[i], 0u) << i;
  EXPECT_GT(engine.metrics().denials, 0u);
}

TEST(PhaseAdversary, BudgetCapsSpentDenialsExactly) {
  // One matching victim, budget B: after exactly B denials the victim wakes
  // like everyone else, and the metered total equals B.
  const std::uint32_t n = 5;
  const std::uint64_t kBudget = 7;
  Engine engine = phased_engine(
      n, 23,
      SchedulerSpec::adversarial({.victim_ids = {0},
                                  .target_phase = AgentPhase::kVote,
                                  .budget = kBudget}),
      {AgentPhase::kVote});
  engine.run(200);
  EXPECT_EQ(engine.metrics().denials, kBudget);
  EXPECT_GT(activation_counts(engine)[0], 0u);
}

TEST(PhaseAdversary, UnboundedBudgetKeepsMatchingVictimStarved) {
  const std::uint32_t n = 5;
  Engine engine = phased_engine(
      n, 25,
      SchedulerSpec::adversarial({.victim_ids = {0},
                                  .target_phase = AgentPhase::kVote}),
      {AgentPhase::kVote});
  engine.run(200);
  EXPECT_EQ(activation_counts(engine)[0], 0u);
  // One denial per round-robin lap over the other four agents.
  EXPECT_NEAR(static_cast<double>(engine.metrics().denials), 200.0 / 4, 2.0);
}

TEST(PhaseAdversary, AllStarvedWakesRoundRobinFreeOfCharge) {
  // When every agent matches the target phase the adversary must still
  // schedule someone: round-robin, no denials charged.
  const std::uint32_t n = 4;
  Engine engine = phased_engine(
      n, 27,
      SchedulerSpec::adversarial({.victim_fraction = 1.0,
                                  .target_phase = AgentPhase::kVote}),
      std::vector<AgentPhase>(n, AgentPhase::kVote));
  engine.run(40);
  const auto counts = activation_counts(engine);
  for (AgentId i = 0; i < n; ++i) EXPECT_EQ(counts[i], 10u) << i;
  EXPECT_EQ(engine.metrics().denials, 0u);
}

TEST(PhaseAdversary, StaticVictimsMeterDenialsIntoMetrics) {
  // The classic static adversary (no phase target) now reports its spent
  // starvation budget: one denial per victim per round-robin lap.
  const std::uint32_t n = 8;
  Engine engine = phased_engine(
      n, 29, SchedulerSpec::adversarial({.victim_ids = {3, 5}}), {});
  engine.run(60);  // 60 events over 6 favored agents = 10 laps.
  const auto counts = activation_counts(engine);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[5], 0u);
  EXPECT_NEAR(static_cast<double>(engine.metrics().denials), 20.0, 3.0);
}

TEST(PhaseAdversary, EndgameDoneRemovalsDoNotDistortDenials) {
  // Agents finishing while a victim is starved trigger swap-removals
  // mid-walk; the per-walk stamp must keep the charge at exactly one
  // denial per victim per lap through the transition (a naive walk can
  // double-charge a rotated victim or end the lap early).
  class DoneAfterAgent final : public Agent {
   public:
    Action on_round(const Context&) override {
      ++activations_;
      return Action::idle();
    }
    Payload serve_pull(const Context&, AgentId) override { return {}; }
    bool done() const override { return activations_ >= 5; }

   private:
    std::uint64_t activations_ = 0;
  };
  const std::uint32_t n = 4;
  Engine engine({n, 33, nullptr,
                 SchedulerSpec::adversarial({.victim_ids = {0}}).make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<DoneAfterAgent>());
  }
  engine.run(1'000);
  EXPECT_TRUE(engine.all_done());
  // 3 favored agents × 5 activations = 15 events ≈ 5 laps with the victim
  // waiting: one denial per lap, ±1 for the final-lap boundary (whether
  // the victim's slot precedes the last favored wake).  Once the favored
  // pool drains, the victim wakes free of charge — a distorted walk
  // (double-charges, or a lap ended early by a rotated victim) lands
  // outside this band.
  EXPECT_GE(engine.metrics().denials, 4u);
  EXPECT_LE(engine.metrics().denials, 5u);
}

TEST(PhaseAdversary, PhaseTargetDefeatsGuardBandAsyncProtocol) {
  // The acceptance scenario in miniature: at equal n and guard band, the
  // phase-aware adversary with a *bounded* budget defeats the async
  // protocol while spending strictly less starvation than the static
  // victim adversary.  A budget of (q+slack)·|victims| denials holds the
  // victims' voting window closed until every favored agent has sealed its
  // certificate, so the late votes are all dropped.
  const std::uint32_t n = 48;
  const std::uint32_t slack = 24;
  const auto params = core::ProtocolParams::make(n, 4.0);
  std::vector<AgentId> victims;
  for (AgentId i = 0; i < n / 4; ++i) victims.push_back(i);
  const std::uint64_t phase_budget =
      (params.q + slack) * static_cast<std::uint64_t>(victims.size());

  std::uint64_t static_failures = 0, phase_failures = 0;
  double static_spent = 0.0, phase_spent = 0.0;
  const int kTrials = 5;
  for (int t = 0; t < kTrials; ++t) {
    core::AsyncRunConfig cfg;
    cfg.n = n;
    cfg.slack = slack;
    cfg.seed = 1000 + t;
    cfg.scheduler = SchedulerSpec::adversarial({.victim_ids = victims});
    const auto stat = core::run_async_protocol(cfg);
    if (stat.failed()) ++static_failures;
    static_spent += static_cast<double>(stat.metrics.denials) / kTrials;

    cfg.scheduler = SchedulerSpec::adversarial(
        {.victim_ids = victims,
         .target_phase = AgentPhase::kVote,
         .budget = phase_budget});
    const auto phase = core::run_async_protocol(cfg);
    if (phase.failed()) ++phase_failures;
    phase_spent += static_cast<double>(phase.metrics.denials) / kTrials;
  }
  EXPECT_EQ(phase_failures, static_cast<std::uint64_t>(kTrials));
  EXPECT_EQ(static_failures, static_cast<std::uint64_t>(kTrials));
  EXPECT_GT(phase_spent, 0.0);
  EXPECT_LT(phase_spent, static_spent);
}

TEST(PhaseAdversary, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    gossip::SpreadConfig cfg;
    cfg.n = 64;
    cfg.mechanism = gossip::Mechanism::kPushPull;
    cfg.seed = seed;
    cfg.scheduler = SchedulerSpec::parse(
        "adversarial:victim_fraction=0.25,phase=vote,budget=100");
    cfg.max_rounds = 100'000;
    return gossip::run_rumor_spreading(cfg);
  };
  const auto a = run(31), b = run(31), c = run(32);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_EQ(a.metrics.denials, b.metrics.denials);
  EXPECT_NE(c.metrics.total_bits, a.metrics.total_bits);
}

// --------------------------------------------------------------------------
// Agent::progress(): the numeric observation next to phase()
// --------------------------------------------------------------------------

TEST(AgentProgress, DefaultsToZeroAndRumorReportsInformed) {
  const PhasedAgent plain;
  EXPECT_DOUBLE_EQ(plain.progress(), 0.0);
  const gossip::RumorAgent uninformed(gossip::Mechanism::kPull, false, 8);
  const gossip::RumorAgent informed(gossip::Mechanism::kPull, true, 8);
  EXPECT_DOUBLE_EQ(uninformed.progress(), 0.0);
  EXPECT_DOUBLE_EQ(informed.progress(), 1.0);
}

TEST(AgentProgress, AsyncScheduleStagePlusFraction) {
  core::AsyncSchedule s;
  s.q = 10;
  s.slack = 4;  // block = 14.
  EXPECT_DOUBLE_EQ(s.progress_of(0), 0.0);
  EXPECT_DOUBLE_EQ(s.progress_of(5), 0.5);
  EXPECT_DOUBLE_EQ(s.progress_of(9), 0.9);
  // Vote stage spans the guard plus the q pushes: [10, 24), length 14.
  EXPECT_DOUBLE_EQ(s.progress_of(10), 1.0);
  EXPECT_DOUBLE_EQ(s.progress_of(17), 1.0 + 7.0 / 14.0);
  EXPECT_DOUBLE_EQ(s.progress_of(23), 1.0 + 13.0 / 14.0);
  // Spread spans guard 2 plus the extended find-min: [24, 42), length 18.
  EXPECT_DOUBLE_EQ(s.progress_of(24), 2.0);
  EXPECT_DOUBLE_EQ(s.progress_of(33), 2.5);
  EXPECT_DOUBLE_EQ(s.progress_of(41), 2.0 + 17.0 / 18.0);
  // Coherence [42, 52), then the pipeline is complete.
  EXPECT_DOUBLE_EQ(s.progress_of(42), 3.0);
  EXPECT_DOUBLE_EQ(s.progress_of(51), 3.9);
  EXPECT_DOUBLE_EQ(s.progress_of(52), 4.0);
  EXPECT_DOUBLE_EQ(s.progress_of(1000), 4.0);
  // The integer part always agrees with the observed stage, and progress
  // is monotone nondecreasing activation by activation.
  double last = 0.0;
  for (std::uint64_t a = 0; a <= s.total_activations(); ++a) {
    const double p = s.progress_of(a);
    EXPECT_GE(p, last) << a;
    last = p;
    const AgentPhase expect[] = {AgentPhase::kCommit, AgentPhase::kVote,
                                 AgentPhase::kSpread, AgentPhase::kConfirm,
                                 AgentPhase::kDone};
    EXPECT_EQ(s.observed_phase(a), expect[static_cast<int>(p)]) << a;
  }
}

TEST(AgentProgress, ProtocolAgentCountsStagesThroughSchedule) {
  const std::uint32_t n = 16;
  const auto params = core::ProtocolParams::make(n, 3.0);
  Engine engine({n, 7});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<core::ProtocolAgent>(
                            params, static_cast<core::Color>(i)));
  }
  const EngineView& view = engine.view();
  EXPECT_DOUBLE_EQ(view.progress(0), 0.0);  // Before any round.
  engine.run(params.voting_begin() + 1);
  EXPECT_GE(view.progress(0), 1.0);
  EXPECT_LT(view.progress(0), 2.0);
  engine.run(params.find_min_begin() + 1);
  EXPECT_GE(view.progress(0), 2.0);
  EXPECT_LT(view.progress(0), 3.0);
  engine.run(params.coherence_begin() + 1);
  EXPECT_GE(view.progress(0), 3.0);
  EXPECT_LT(view.progress(0), 4.0);
  engine.run(params.total_rounds() + 4);
  EXPECT_DOUBLE_EQ(view.progress(0), 4.0);
}

// --------------------------------------------------------------------------
// ReactiveAdversarialScheduler: observation-driven targeting rules
// --------------------------------------------------------------------------

SchedulerSpec reactive_spec(ReactiveTarget rule, double fraction,
                            std::uint64_t budget = 0) {
  return SchedulerSpec::adversarial(
      {.victim_fraction = fraction, .target = rule, .budget = budget});
}

TEST(ReactiveAdversary, MinCertStarvesTheWeakestProgressHolder) {
  const std::uint32_t n = 6;
  std::vector<double> progress = {0.5, 0.2, 0.9, 0.4, 0.8, 0.7};
  Engine engine = progress_engine(
      n, 51, reactive_spec(ReactiveTarget::kMinCert, 1.0 / n), progress);
  engine.run(60);
  const auto counts = progress_activation_counts(engine);
  EXPECT_EQ(counts[1], 0u);  // The 0.2 holder never wakes.
  for (const AgentId i : {0u, 2u, 3u, 4u, 5u}) EXPECT_GT(counts[i], 0u) << i;
  EXPECT_GT(engine.metrics().denials, 0u);
}

TEST(ReactiveAdversary, MinCertReplansWhenTheMinimumMoves) {
  // The victim set is re-ranked every step: once the starved agent's
  // progress observation jumps ahead, the adversary switches to the new
  // minimum — no restart required.
  const std::uint32_t n = 4;
  std::vector<double> progress = {0.6, 0.1, 0.8, 0.3};
  AgentId notify = kNoAgent;
  Engine engine = progress_engine(
      n, 53, reactive_spec(ReactiveTarget::kMinCert, 1.0 / n), progress, {},
      &notify);
  engine.run(30);
  const auto first = progress_activation_counts(engine);
  EXPECT_EQ(first[1], 0u);
  EXPECT_GT(first[3], 0u);
  // The starved agent leaps ahead: a peer's push makes it re-read its
  // progress source.
  progress[1] = 2.0;
  notify = 1;
  for (int k = 0; k < 100 && engine.view().progress(1) != 2.0; ++k) {
    engine.step();
  }
  ASSERT_EQ(engine.view().progress(1), 2.0);
  const auto moved = progress_activation_counts(engine);
  engine.run(engine.round() + 30);  // 30 further events (the cap is total).
  const auto second = progress_activation_counts(engine);
  EXPECT_GT(second[1], 0u);          // Former victim wakes again...
  EXPECT_EQ(second[3], moved[3]);    // ...the 0.3 holder starves instead.
}

TEST(ReactiveAdversary, LaggardSelfReinforcesMaximalClockSkew) {
  // All wake clocks start equal; the rule starves the least-recently-woken
  // agent, which by construction stays least recent — one agent's local
  // clock is pinned while everyone else's advances.
  const std::uint32_t n = 5;
  std::vector<double> progress(n, 1.0);  // Equal progress: rule ≠ min-cert.
  Engine engine = progress_engine(
      n, 55, reactive_spec(ReactiveTarget::kLaggard, 1.0 / n), progress);
  engine.run(80);
  const auto counts = progress_activation_counts(engine);
  EXPECT_EQ(counts[0], 0u);  // Label tie-break pins agent 0, forever.
  for (AgentId i = 1; i < n; ++i) EXPECT_EQ(counts[i], 20u) << i;
  // One denial per lap over the other four agents.
  EXPECT_NEAR(static_cast<double>(engine.metrics().denials), 20.0, 2.0);
}

TEST(ReactiveAdversary, QuorumEdgeStarvesTheLargestStageFraction) {
  // Fractional progress ranks the rule: 1.95 is 95% through its stage and
  // starves ahead of 2.5 (50%) and 0.3 (30%), regardless of the integer
  // stage count.
  const std::uint32_t n = 4;
  std::vector<double> progress = {0.1, 1.95, 2.5, 0.3};
  Engine engine = progress_engine(
      n, 57, reactive_spec(ReactiveTarget::kQuorumEdge, 1.0 / n), progress);
  engine.run(40);
  const auto counts = progress_activation_counts(engine);
  EXPECT_EQ(counts[1], 0u);
  for (const AgentId i : {0u, 2u, 3u}) EXPECT_GT(counts[i], 0u) << i;
}

TEST(ReactiveAdversary, BudgetCapsSpentDenialsExactly) {
  const std::uint32_t n = 5;
  const std::uint64_t kCap = 9;
  std::vector<double> progress = {0.0, 1.0, 1.0, 1.0, 1.0};
  Engine engine = progress_engine(
      n, 59, reactive_spec(ReactiveTarget::kMinCert, 1.0 / n, kCap),
      progress);
  engine.run(200);
  EXPECT_EQ(engine.metrics().denials, kCap);
  EXPECT_GT(progress_activation_counts(engine)[0], 0u);
}

TEST(ReactiveAdversary, SelectionMatchesFullSortTopKWithLabelTiebreak) {
  // Pins the O(n) nth_element victim selection to the full-sort reference:
  // the (key, label) order is strict and total, so the starved *set* is
  // unique even under key ties, and a partial selection must reproduce it
  // exactly.  Keys here tie four agents at 0.5 while k = 3, so a selection
  // bug that resolves ties by heap order instead of label would starve the
  // wrong subset.
  const std::uint32_t n = 8;
  const std::vector<double> progress = {1.0, 0.5, 0.5, 0.5,
                                        2.0, 0.5, 3.0, 4.0};
  // Full-sort reference: sort (progress, label) ascending, take the first
  // k = ceil(3/8 * 8) = 3 → labels {1, 2, 3}; the fourth 0.5 holder
  // (label 5) loses every tie and stays wakeable.
  std::vector<AgentId> reference(n);
  for (AgentId i = 0; i < n; ++i) reference[i] = i;
  std::sort(reference.begin(), reference.end(),
            [&](AgentId a, AgentId b) {
              if (progress[a] != progress[b]) {
                return progress[a] < progress[b];
              }
              return a < b;
            });
  Engine engine = progress_engine(
      n, 61, reactive_spec(ReactiveTarget::kMinCert, 3.0 / n), progress);
  engine.run(160);
  const auto counts = progress_activation_counts(engine);
  for (AgentId i = 0; i < n; ++i) {
    const bool starved =
        std::find(reference.begin(), reference.begin() + 3, i) !=
        reference.begin() + 3;
    if (starved) {
      EXPECT_EQ(counts[i], 0u) << "victim " << i << " woke";
    } else {
      EXPECT_GT(counts[i], 0u) << "non-victim " << i << " starved";
    }
  }
  EXPECT_GT(engine.metrics().denials, 0u);
}

TEST(ReactiveAdversary, ComposesWithThePhaseGate) {
  // target= picks *who* is starvable, phase= still gates *when*: the
  // minimal-progress agent only starves while it observes the target
  // phase.
  const std::uint32_t n = 4;
  std::vector<double> progress = {0.0, 1.0, 1.0, 1.0};
  Engine in_phase = progress_engine(
      n, 61,
      SchedulerSpec::adversarial({.victim_fraction = 1.0 / n,
                                  .target = ReactiveTarget::kMinCert,
                                  .target_phase = AgentPhase::kVote}),
      progress, {AgentPhase::kVote});
  in_phase.run(40);
  EXPECT_EQ(progress_activation_counts(in_phase)[0], 0u);
  EXPECT_GT(in_phase.metrics().denials, 0u);

  Engine out_of_phase = progress_engine(
      n, 61,
      SchedulerSpec::adversarial({.victim_fraction = 1.0 / n,
                                  .target = ReactiveTarget::kMinCert,
                                  .target_phase = AgentPhase::kVote}),
      progress, {AgentPhase::kCommit});
  out_of_phase.run(40);
  EXPECT_GT(progress_activation_counts(out_of_phase)[0], 0u);
  EXPECT_EQ(out_of_phase.metrics().denials, 0u);
}

TEST(ReactiveAdversary, SpecRoundTripAndValidation) {
  const auto spec = reactive_spec(ReactiveTarget::kLaggard, 0.1, 25);
  EXPECT_EQ(spec.to_string(),
            "adversarial:budget=25,target=laggard,victim_fraction=0.1");
  EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec);
  EXPECT_NE(spec.make(), nullptr);
  EXPECT_STREQ(spec.make()->name(), "reactive-adversarial");
  // Plain adversarial specs still build the base policy.
  EXPECT_STREQ(SchedulerSpec::parse("adversarial").make()->name(),
               "adversarial");

  // Malformed rule names and contradictory parameters throw.
  EXPECT_THROW(SchedulerSpec::parse("adversarial:target=warp-drive").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:target=").make(),
               std::invalid_argument);
  EXPECT_THROW(
      SchedulerSpec::parse("adversarial:target=min-cert,victims=0+1").make(),
      std::invalid_argument);
  EXPECT_THROW(make_adversarial_scheduler(
                   {.victim_ids = {0}, .target = ReactiveTarget::kMinCert}),
               std::invalid_argument);
  EXPECT_THROW(ReactiveAdversarialScheduler(AdversarialConfig{}),
               std::invalid_argument);
  // String round-trip of the rule names themselves.
  for (const ReactiveTarget t :
       {ReactiveTarget::kMinCert, ReactiveTarget::kLaggard,
        ReactiveTarget::kQuorumEdge}) {
    EXPECT_EQ(parse_reactive_target(to_string(t)), t);
  }
  EXPECT_THROW(parse_reactive_target(""), std::invalid_argument);
  EXPECT_THROW(parse_reactive_target("none"), std::invalid_argument);
}

TEST(ReactiveAdversary, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    gossip::SpreadConfig cfg;
    cfg.n = 64;
    cfg.mechanism = gossip::Mechanism::kPushPull;
    cfg.seed = seed;
    cfg.scheduler = SchedulerSpec::parse(
        "adversarial:target=min-cert,victim_fraction=0.1,budget=120");
    cfg.max_rounds = 100'000;
    return gossip::run_rumor_spreading(cfg);
  };
  const auto a = run(63), b = run(63), c = run(64);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_EQ(a.metrics.denials, b.metrics.denials);
  EXPECT_NE(c.metrics.total_bits, a.metrics.total_bits);
}

TEST(ReactiveAdversary, MinCertStallsRumorSpreadUnlikeStaticVictims) {
  // On a pull spread the min-cert rule is the natural worst case: it
  // starves exactly the still-uninformed agents (progress 0), so the last
  // coupon never gets to draw.  A static victim set of the same size picks
  // its victims blindly and mostly starves agents that are already
  // informed.  Same budget, very different damage.
  const auto run = [](const SchedulerSpec& spec) {
    gossip::SpreadConfig cfg;
    cfg.n = 64;
    cfg.mechanism = gossip::Mechanism::kPull;  // Pulls only: wake = chance.
    cfg.seed = 71;
    cfg.scheduler = spec;
    cfg.max_rounds = 40'000;
    return gossip::run_rumor_spreading(cfg);
  };
  const std::uint64_t budget = 512;
  const auto reactive = run(SchedulerSpec::adversarial(
      {.victim_fraction = 0.05,
       .target = ReactiveTarget::kMinCert,
       .budget = budget}));
  const auto pinned = run(SchedulerSpec::adversarial(
      {.victim_fraction = 0.05, .budget = budget}));
  ASSERT_TRUE(reactive.complete);
  ASSERT_TRUE(pinned.complete);
  EXPECT_GT(reactive.rounds, pinned.rounds);
}

TEST(ReactiveAdversary, MinCertDefeatsGuardBandCheaperThanPhaseAdversary) {
  // The acceptance scenario in miniature (see E12g in exp_async): at equal
  // n, slack, and *equal denial budget* of one agent's schedule length,
  // the reactive min-cert rule holds one victim-of-the-moment behind every
  // sealed certificate and breaks the protocol's w.h.p. success, while the
  // phase-static adversary spread over its pinned victim set is fully
  // absorbed by the guard band — its defeat threshold is (q+slack)·|V|,
  // an order of magnitude more.
  const std::uint32_t n = 48;
  const std::uint32_t slack = 24;
  const auto params = core::ProtocolParams::make(n, 4.0);
  const std::uint64_t sched = 4ull * params.q + 3ull * slack;
  std::vector<AgentId> victims;
  for (AgentId i = 0; i < n / 4; ++i) victims.push_back(i);

  std::uint64_t phase_failures = 0, reactive_failures = 0;
  const int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    core::AsyncRunConfig cfg;
    cfg.n = n;
    cfg.slack = slack;
    cfg.seed = 2000 + t;
    cfg.scheduler = SchedulerSpec::adversarial(
        {.victim_ids = victims,
         .target_phase = AgentPhase::kVote,
         .budget = sched});
    const auto phase = core::run_async_protocol(cfg);
    if (phase.failed()) ++phase_failures;
    EXPECT_LE(phase.metrics.denials, sched);

    cfg.scheduler = SchedulerSpec::adversarial(
        {.victim_fraction = 1.0 / n,
         .target = ReactiveTarget::kMinCert,
         .budget = sched});
    const auto reactive = core::run_async_protocol(cfg);
    if (reactive.failed()) ++reactive_failures;
    EXPECT_LE(reactive.metrics.denials, sched);
  }
  // Equal budgets: the pinned set absorbs every denial, the reactive rule
  // converts them into failures.
  EXPECT_EQ(phase_failures, 0u);
  EXPECT_GT(reactive_failures, 0u);
}

// --------------------------------------------------------------------------
// BatchedDeliveryScheduler
// --------------------------------------------------------------------------

TEST(BatchedDelivery, RotationActivatesEveryBlockOncePerSweep) {
  const std::uint32_t n = 10;
  Engine engine = phased_engine(n, 41, SchedulerSpec::batched(3), {});
  engine.run(3);  // One full rotation of 3 sub-steps.
  const auto counts = activation_counts(engine);
  for (AgentId i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1u) << i;
  EXPECT_NEAR(engine.virtual_time(), 1.0, 1e-9);
  engine.run(9);
  for (const auto c : activation_counts(engine)) EXPECT_EQ(c, 3u);
}

TEST(BatchedDelivery, SubStepWakesExactlyOneContiguousBlock) {
  const std::uint32_t n = 10;
  Engine engine = phased_engine(n, 43, SchedulerSpec::batched(3), {});
  engine.step();  // Block 0 = [0, block_begin(1)).
  const EngineView& view = engine.view();
  const auto counts = activation_counts(engine);
  for (AgentId i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i], view.block_of(i, 3) == 0 ? 1u : 0u) << i;
  }
}

TEST(BatchedDelivery, SpreadsRumorToCompletion) {
  gossip::SpreadConfig cfg;
  cfg.n = 128;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 47;
  cfg.scheduler = SchedulerSpec::batched(8);
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);
  // Virtual time is measured in full rotations: the broadcast still costs
  // Θ(log n) rounds on that axis.
  EXPECT_LT(r.virtual_time, 12.0 * std::log(128.0));
  EXPECT_EQ(r.rounds, static_cast<std::uint64_t>(
                          std::llround(r.virtual_time * 8)));
}

TEST(BatchedDelivery, RejectsZeroBlocks) {
  EXPECT_THROW(make_batched_delivery_scheduler({.blocks = 0}),
               std::invalid_argument);
}

TEST(BatchedDelivery, VirtualTimeHitsRoundBoundariesExactly) {
  // Non-power-of-two block counts must not drift: the accumulated clock is
  // pinned to exactly k/B at sub-step k, so a horizon of 2.0 rounds runs
  // exactly 2·B sub-steps (a naive 1/3+1/3+... accumulation lands at
  // 1.9999999999999998 after two block=3 rotations and would run a 7th).
  for (const std::uint32_t blocks : {3u, 5u, 7u}) {
    Engine engine = phased_engine(14, 49, SchedulerSpec::batched(blocks), {});
    EXPECT_EQ(engine.run_until(2.0), 2ull * blocks) << blocks;
    EXPECT_DOUBLE_EQ(engine.virtual_time(), 2.0) << blocks;
  }
}

}  // namespace
}  // namespace rfc::sim
