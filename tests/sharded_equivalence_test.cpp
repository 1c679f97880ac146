// Byte-identical equivalence of the sharded synchronous round with the
// serial engine, for every tested (shards, threads) combination.
//
// The sharded EngineCore path (sim/sharding.hpp) promises bit-identical
// metrics and agent state for ANY shard count and ANY thread count —
// including shards that do not divide n, shards exceeding n, and more
// threads than cores.  These tests pin that promise over the two workloads
// the acceptance bar names: epidemic rumor spreading and Protocol P, each
// compared field-by-field against the unsharded engine (S ∈ {1, 2, 7, 64}
// × threads ∈ {1, 4}), plus the masked round of PartialAsyncScheduler and
// Protocol P under every coalition deviation strategy.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "end_state_digest.hpp"
#include "gossip/rumor.hpp"
#include "rational/strategies.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

struct ShardCase {
  std::uint32_t shards;
  std::uint32_t threads;
};

const std::vector<ShardCase>& shard_cases() {
  // 2 divides the test sizes, 7 does not, 64 equals/exceeds some of them;
  // 4 threads oversubscribe a small CI box on purpose — scheduling order
  // must not matter.
  static const std::vector<ShardCase> kCases = {
      {1, 1}, {1, 4}, {2, 1}, {2, 4}, {7, 1}, {7, 4}, {64, 1}, {64, 4}};
  return kCases;
}

std::string case_name(const ShardCase& c) {
  return "shards=" + std::to_string(c.shards) +
         ",threads=" + std::to_string(c.threads);
}

SchedulerSpec sharded_spec(const ShardCase& c) {
  return SchedulerSpec::parse("synchronous:" + case_name(c));
}

void expect_metrics_identical(const Metrics& a, const Metrics& b,
                              const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.virtual_time, b.virtual_time) << label;
  EXPECT_EQ(a.pushes, b.pushes) << label;
  EXPECT_EQ(a.pull_requests, b.pull_requests) << label;
  EXPECT_EQ(a.pull_replies, b.pull_replies) << label;
  EXPECT_EQ(a.total_bits, b.total_bits) << label;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << label;
  EXPECT_EQ(a.active_links, b.active_links) << label;
  EXPECT_EQ(a.denials, b.denials) << label;
}

// --------------------------------------------------------------------------
// Rumor spreading: full run via the public entry point, plus a
// direct engine drive comparing per-agent final state.
// --------------------------------------------------------------------------

gossip::SpreadResult run_spread(const SchedulerSpec& spec) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 20260726;
  cfg.num_faulty = 24;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return gossip::run_rumor_spreading(cfg);
}

TEST(ShardedEquivalence, RumorSpreadingIdenticalAcrossShardsAndThreads) {
  const gossip::SpreadResult base = run_spread(SchedulerSpec::synchronous());
  ASSERT_TRUE(base.complete);
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded = run_spread(sharded_spec(c));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    EXPECT_EQ(base.virtual_time, sharded.virtual_time) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

TEST(ShardedEquivalence, RumorAgentStateIdenticalMidRun) {
  // Drive engines a fixed number of rounds (mid-spread, where per-round
  // deliveries are dense) and compare every agent's informed flag plus the
  // metric trace after every round.
  const std::uint32_t n = 96;
  const std::uint64_t kRounds = 8;
  const auto build = [n](SchedulerPtr scheduler) {
    auto engine =
        std::make_unique<Engine>(EngineConfig{n, 77, nullptr,
                                              std::move(scheduler)});
    for (std::uint32_t i = 0; i < n; ++i) {
      engine->set_agent(i, std::make_unique<gossip::RumorAgent>(
                               gossip::Mechanism::kPushPull, i == 0, 64));
    }
    return engine;
  };
  const auto base = build(make_synchronous_scheduler());
  for (const ShardCase& c : shard_cases()) {
    const auto sharded = build(sharded_spec(c).make());
    for (std::uint64_t r = 0; r < kRounds; ++r) sharded->step();
    while (base->round() < sharded->round()) base->step();
    expect_metrics_identical(base->metrics(), sharded->metrics(),
                             case_name(c));
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(
          static_cast<const gossip::RumorAgent&>(base->agent(i)).informed(),
          static_cast<const gossip::RumorAgent&>(sharded->agent(i))
              .informed())
          << case_name(c) << " agent " << i;
    }
  }
}

// --------------------------------------------------------------------------
// Protocol P: full consensus runs through core::run_protocol, comparing the
// outcome, the good-execution events, and per-agent decisions.
// --------------------------------------------------------------------------

core::RunResult run_p(const SchedulerSpec& spec, std::uint32_t num_faulty) {
  core::RunConfig cfg;
  cfg.n = 48;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = num_faulty;
  cfg.placement =
      num_faulty > 0 ? FaultPlacement::kRandom : FaultPlacement::kNone;
  cfg.scheduler = spec;
  return core::run_protocol(cfg);
}

void expect_run_identical(const core::RunResult& a, const core::RunResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.winner_agent, b.winner_agent) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.num_active, b.num_active) << label;
  EXPECT_EQ(a.honest_failures, b.honest_failures) << label;
  EXPECT_EQ(a.max_local_memory_bits, b.max_local_memory_bits) << label;
  expect_metrics_identical(a.metrics, b.metrics, label);
  EXPECT_EQ(a.events.min_votes, b.events.min_votes) << label;
  EXPECT_EQ(a.events.max_votes, b.events.max_votes) << label;
  EXPECT_EQ(a.events.k_values_distinct, b.events.k_values_distinct) << label;
  EXPECT_EQ(a.events.find_min_agreement, b.events.find_min_agreement)
      << label;
  EXPECT_EQ(a.events.every_agent_audited, b.events.every_agent_audited)
      << label;
  EXPECT_EQ(a.events.every_agent_cleanly_voted,
            b.events.every_agent_cleanly_voted)
      << label;
  EXPECT_EQ(a.active_colors, b.active_colors) << label;
}

TEST(ShardedEquivalence, ProtocolPIdenticalAcrossShardsAndThreads) {
  const core::RunResult base = run_p(SchedulerSpec::synchronous(), 0);
  EXPECT_NE(base.winner, core::kNoColor);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(base, run_p(sharded_spec(c), 0), case_name(c));
  }
}

TEST(ShardedEquivalence, ProtocolPWithFaultsIdentical) {
  const core::RunResult base = run_p(SchedulerSpec::synchronous(), 12);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(base, run_p(sharded_spec(c), 12), case_name(c));
  }
}

// --------------------------------------------------------------------------
// The masked round (PartialAsyncScheduler) shards identically too.
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, PartialAsyncMaskedRoundIdentical) {
  const auto run = [](const std::string& spec_text) {
    gossip::SpreadConfig cfg;
    cfg.n = 80;
    cfg.mechanism = gossip::Mechanism::kPushPull;
    cfg.seed = 4242;
    cfg.scheduler = SchedulerSpec::parse(spec_text);
    return gossip::run_rumor_spreading(cfg);
  };
  const gossip::SpreadResult base = run("partial-async:p=0.4");
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded =
        run("partial-async:p=0.4," + case_name(c));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

// --------------------------------------------------------------------------
// Batched delivery: the masked sub-round must shard identically too, so
// batched:block=B traces are pinned for every (shards, threads).
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, BatchedDeliveryIdenticalAcrossShardsAndThreads) {
  const gossip::SpreadResult base =
      run_spread(SchedulerSpec::parse("batched:block=3"));
  ASSERT_TRUE(base.complete);
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded =
        run_spread(SchedulerSpec::parse("batched:block=3," + case_name(c)));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    EXPECT_EQ(base.virtual_time, sharded.virtual_time) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

TEST(ShardedEquivalence, ProtocolPBatchedIdenticalAcrossShardsAndThreads) {
  // Protocol P under batched delivery usually fails (its phase schedule
  // reads the global clock, which now ticks B× per agent wake) — the
  // equivalence claim is about traces, not protocol success.
  const core::RunResult base =
      run_p(SchedulerSpec::parse("batched:block=3"), 0);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(
        base, run_p(SchedulerSpec::parse("batched:block=3," + case_name(c)), 0),
        case_name(c));
  }
}

TEST(ShardedEquivalence, BatchedRotationMatchesSynchronousAtOneBlock) {
  // block=1 wakes everyone each sub-step: exactly the synchronous engine.
  const gossip::SpreadResult sync = run_spread(SchedulerSpec::synchronous());
  const gossip::SpreadResult one =
      run_spread(SchedulerSpec::parse("batched:block=1"));
  EXPECT_EQ(sync.rounds, one.rounds);
  expect_metrics_identical(sync.metrics, one.metrics, "batched:block=1");
}

// --------------------------------------------------------------------------
// Coalitions: every deviation strategy shares the rational::Coalition
// blackboard across labels, which the round keeps race-free by phase
// discipline (writes and reads in different phases, see
// rational/coalition.hpp).  Each strategy's digest is pinned from the serial
// engine of the tree that still refused to shard coalitions, and every shard
// case must reproduce it.
// --------------------------------------------------------------------------

core::RunConfig coalition_config(rational::DeviationStrategy strategy,
                                 const SchedulerSpec& spec) {
  core::RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 3.0;
  cfg.seed = 20261017;
  cfg.num_faulty = 8;
  cfg.placement = FaultPlacement::kSuffix;  // Keeps all of C non-faulty.
  cfg.scheduler = spec;
  const auto coalition = rational::make_prefix_coalition(4);  // Fresh board.
  cfg.coalition = coalition->members();
  cfg.factory = rational::make_deviating_factory(strategy, coalition);
  return cfg;
}

// skip-verification finds no mismatch to ignore on this run, so its digest
// is the honest control's.
std::uint64_t pinned_coalition_digest(rational::DeviationStrategy s) {
  using rational::DeviationStrategy;
  switch (s) {
    case DeviationStrategy::kHonest: return 3208952107230925364ull;
    case DeviationStrategy::kSelfishVoting: return 10472014569586754381ull;
    case DeviationStrategy::kForgedEmptyCert: return 16443496022118618687ull;
    case DeviationStrategy::kForgedCoalitionCert:
      return 2238515145471537061ull;
    case DeviationStrategy::kVoteDrop: return 1655839621795929647ull;
    case DeviationStrategy::kEquivocate: return 428350084595253550ull;
    case DeviationStrategy::kPlayDead: return 13769781585689816276ull;
    case DeviationStrategy::kFindMinSuppress: return 1568084712464751166ull;
    case DeviationStrategy::kStubbornCert: return 8362335844198755228ull;
    case DeviationStrategy::kAdaptiveVote: return 15554929591646756034ull;
    case DeviationStrategy::kSkipVerification: return 3208952107230925364ull;
  }
  return 0;
}

TEST(ShardedEquivalence, CoalitionRunsIdenticalAcrossShards) {
  for (const rational::DeviationStrategy s :
       rational::all_deviation_strategies()) {
    const std::string name = rational::to_string(s);
    const std::uint64_t expected = pinned_coalition_digest(s);
    EXPECT_EQ(expected,
              rfc::testing::protocol_end_state_digest(
                  coalition_config(s, SchedulerSpec::synchronous())))
        << name << " serial";
    for (const ShardCase& c : shard_cases()) {
      EXPECT_EQ(expected, rfc::testing::protocol_end_state_digest(
                              coalition_config(s, sharded_spec(c))))
          << name << " " << case_name(c);
    }
  }
}

// --------------------------------------------------------------------------
// Pinned pre-refactor digests: the constants below were captured from the
// engine BEFORE the SoA/arena/blocked-delivery refactor (PR 7 tree).  They
// freeze the full observable trace — outcome, every Metrics field, and the
// per-agent end state — at n ∈ {64, 4096}, serial AND sharded.  If any of
// these change, the engine is no longer bit-identical to the pre-refactor
// one: fix the engine, never the constants.
// --------------------------------------------------------------------------

gossip::SpreadConfig pinned_spread_config(std::uint32_t n,
                                          const SchedulerSpec& spec) {
  gossip::SpreadConfig cfg;
  cfg.n = n;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 20260726;
  cfg.num_faulty = n / 4;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return cfg;
}

core::RunConfig pinned_protocol_config(std::uint32_t n,
                                       const SchedulerSpec& spec) {
  core::RunConfig cfg;
  cfg.n = n;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = n / 8;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return cfg;
}

constexpr std::uint64_t kPinnedRumorDigest64 = 2641881396828198800ull;
constexpr std::uint64_t kPinnedRumorDigest4096 = 16758659222488018666ull;
constexpr std::uint64_t kPinnedProtocolDigest64 = 4567136017251614761ull;
constexpr std::uint64_t kPinnedProtocolDigest4096 = 6452961838860156847ull;

TEST(ShardedEquivalence, PinnedRumorDigests) {
  for (std::uint32_t n : {64u, 4096u}) {
    const std::uint64_t expected =
        n == 64 ? kPinnedRumorDigest64 : kPinnedRumorDigest4096;
    EXPECT_EQ(expected, rfc::testing::rumor_end_state_digest(
                            pinned_spread_config(n, SchedulerSpec::synchronous())))
        << "serial n=" << n;
    for (const ShardCase& c : shard_cases()) {
      EXPECT_EQ(expected, rfc::testing::rumor_end_state_digest(
                              pinned_spread_config(n, sharded_spec(c))))
          << "n=" << n << " " << case_name(c);
    }
  }
}

TEST(ShardedEquivalence, PinnedProtocolDigests) {
  EXPECT_EQ(kPinnedProtocolDigest64,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(64, SchedulerSpec::synchronous())))
      << "serial n=64";
  for (const ShardCase& c : shard_cases()) {
    EXPECT_EQ(kPinnedProtocolDigest64,
              rfc::testing::protocol_end_state_digest(
                  pinned_protocol_config(64, sharded_spec(c))))
        << "n=64 " << case_name(c);
  }
  // n=4096 runs in ~0.6 s apiece: serial plus one non-dividing sharded case.
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, SchedulerSpec::synchronous())))
      << "serial n=4096";
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, sharded_spec({7, 4}))))
      << "n=4096 shards=7,threads=4";
}

TEST(ShardedEquivalence, PinnedDigestsUnderForcedBlockedDelivery) {
  // The phased-round kernel routes deliveries through one destination
  // block per shard below n = 2^19 (2^16-label blocks from there on), so
  // sharded specs on one thread reach multi-block routing at tiny n: n=64
  // over 8 shards is 8-label blocks, over 64 shards 1-label blocks (the
  // degenerate extreme), and n=4096 over 8 shards is 512-label blocks.
  // Every combination must reproduce the serial constants exactly.
  for (const std::uint32_t shards : {8u, 64u}) {
    const SchedulerSpec spec = sharded_spec({shards, 1});
    EXPECT_EQ(kPinnedRumorDigest64, rfc::testing::rumor_end_state_digest(
                                        pinned_spread_config(64, spec)))
        << "rumor blocked n=64 shards=" << shards;
    EXPECT_EQ(kPinnedProtocolDigest64,
              rfc::testing::protocol_end_state_digest(
                  pinned_protocol_config(64, spec)))
        << "protocol blocked n=64 shards=" << shards;
  }
  const SchedulerSpec spec = sharded_spec({8, 1});
  EXPECT_EQ(kPinnedRumorDigest4096, rfc::testing::rumor_end_state_digest(
                                        pinned_spread_config(4096, spec)))
      << "rumor blocked n=4096 shards=8";
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, spec)))
      << "protocol blocked n=4096 shards=8";
}

// --------------------------------------------------------------------------
// Spec plumbing: round-trip and validation of the sharding parameters.
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, SpecRoundTripAndValidation) {
  const SchedulerSpec spec =
      SchedulerSpec::synchronous(ShardingConfig{8, 4});
  EXPECT_EQ(spec.to_string(), "synchronous:shards=8,threads=4");
  EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec);
  // shards=1 collapses to the canonical plain spec.
  EXPECT_EQ(SchedulerSpec::synchronous(ShardingConfig{1, 4}).to_string(),
            "synchronous");
  EXPECT_THROW(SchedulerSpec::parse("synchronous:shards=0").make(),
               std::invalid_argument);
  // Activation-based policies have no sharded round.
  EXPECT_THROW(SchedulerSpec::parse("sequential:shards=4").make(),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfc::sim
