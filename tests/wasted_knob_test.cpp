// The wasted= activation knob on the sampling schedulers.
//
// wasted=keep (the default) is a pinned trace contract: sequential draws
// over the *initial* active pool forever — a drawn finished agent consumes
// the step as a wasted activation (the coupon-collector tail the analysis
// notebooks integrate over) — and the adversarial walk removes done agents
// only lazily when the cursor lands on them.  wasted=skip prunes finished
// agents from the wakeable pool eagerly (sequential: swap-remove on draw,
// like the Poisson sampler; adversarial: eviction driven by the engine's
// done log), so every step wakes a live agent.
//
// The tests pin both sides: keep must be bit-identical to the
// unparameterized spec (the default is a no-op), and skip's wake traces /
// end-state digests are pinned so the pruned path is itself a frozen
// contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "end_state_digest.hpp"
#include "gossip/rumor.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

// --------------------------------------------------------------------------
// A finite agent: done after a fixed number of activations.
// --------------------------------------------------------------------------
class DoneAfterAgent final : public Agent {
 public:
  DoneAfterAgent(std::uint64_t limit, std::vector<AgentId>* trace) noexcept
      : limit_(limit), trace_(trace) {}

  Action on_round(const Context& ctx) override {
    ++activations_;
    if (trace_ != nullptr) trace_->push_back(ctx.self);
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  bool done() const override { return activations_ >= limit_; }

 private:
  std::uint64_t limit_;
  std::vector<AgentId>* trace_;
  std::uint64_t activations_ = 0;
};

struct TraceRun {
  std::vector<AgentId> trace;  ///< Wake order (live activations only).
  std::uint64_t steps = 0;     ///< Scheduler steps to completion.
};

/// Runs n DoneAfterAgent(limit=2) agents to completion under `spec_text`.
TraceRun trace_run(const std::string& spec_text, std::uint32_t n = 8,
                   std::uint64_t seed = 42) {
  TraceRun out;
  Engine engine({n, seed, nullptr, SchedulerSpec::parse(spec_text).make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<DoneAfterAgent>(2, &out.trace));
  }
  while (!engine.all_done() && out.steps < 100'000) {
    engine.step();
    ++out.steps;
  }
  EXPECT_TRUE(engine.all_done()) << spec_text;
  return out;
}

// --------------------------------------------------------------------------
// Sequential: pinned traces for both knob values.
// --------------------------------------------------------------------------

// Captured from this tree; freeze the contract.  Every agent is woken
// exactly twice (16 live activations); keep pays extra wasted steps on
// already-done draws, skip completes in exactly 16.
const std::vector<AgentId> kSequentialKeepTrace = {
    1, 4, 5, 5, 6, 1, 2, 3, 3, 7, 2, 6, 7, 4, 0, 0};
constexpr std::uint64_t kSequentialKeepSteps = 29;
const std::vector<AgentId> kSequentialSkipTrace = {
    1, 4, 5, 5, 6, 0, 7, 2, 3, 7, 3, 6, 2, 1, 0, 4};

TEST(WastedKnob, SequentialKeepIsTheDefault) {
  const TraceRun plain = trace_run("sequential");
  const TraceRun keep = trace_run("sequential:wasted=keep");
  EXPECT_EQ(plain.trace, keep.trace);
  EXPECT_EQ(plain.steps, keep.steps);
  EXPECT_EQ(keep.trace, kSequentialKeepTrace);
  EXPECT_EQ(keep.steps, kSequentialKeepSteps);
  EXPECT_GT(keep.steps, keep.trace.size());  // Wasted draws cost steps.
}

TEST(WastedKnob, SequentialSkipWastesNoSteps) {
  const TraceRun skip = trace_run("sequential:wasted=skip");
  EXPECT_EQ(skip.trace, kSequentialSkipTrace);
  EXPECT_EQ(skip.steps, skip.trace.size());  // Every step wakes a live agent.
  EXPECT_EQ(skip.trace.size(), 16u);         // 8 agents x 2 activations.
}

// --------------------------------------------------------------------------
// Adversarial: pinned traces for both knob values.
// --------------------------------------------------------------------------

// The walk never wastes a *step* (lazy removal consumes no walk slot), so
// keep also finishes in 16; the knob shows up as a different wake order —
// eager eviction reorders the pool at prune time, lazy at encounter time.
const std::vector<AgentId> kAdversarialKeepTrace = {
    0, 5, 1, 4, 6, 7, 0, 5, 1, 4, 6, 7, 3, 2, 3, 2};
constexpr std::uint64_t kAdversarialKeepSteps = 16;
const std::vector<AgentId> kAdversarialSkipTrace = {
    0, 5, 1, 4, 6, 7, 0, 7, 6, 4, 1, 5, 3, 2, 3, 2};
constexpr std::uint64_t kAdversarialSkipSteps = 16;

constexpr char kAdvKeep[] = "adversarial:budget=8,victim_fraction=0.25";
constexpr char kAdvSkip[] =
    "adversarial:budget=8,victim_fraction=0.25,wasted=skip";

TEST(WastedKnob, AdversarialKeepIsTheDefault) {
  const TraceRun plain = trace_run(kAdvKeep);
  EXPECT_EQ(plain.trace, kAdversarialKeepTrace);
  EXPECT_EQ(plain.steps, kAdversarialKeepSteps);
}

TEST(WastedKnob, AdversarialSkipPrunesOffTheDoneLog) {
  const TraceRun skip = trace_run(kAdvSkip);
  EXPECT_EQ(skip.trace, kAdversarialSkipTrace);
  EXPECT_EQ(skip.steps, kAdversarialSkipSteps);
  EXPECT_EQ(skip.trace.size(), 16u);  // 8 agents x 2 activations.
  EXPECT_EQ(skip.steps, skip.trace.size());  // No wasted walk outcomes.
}

// --------------------------------------------------------------------------
// Protocol P end-state digests: the knob pinned on a real protocol, where
// agents finish at scattered times, and cross-checked against the sharded
// synchronous round (S in {1, 4}) on the same population — the sparse
// live-list path must stay shard-invariant.
// --------------------------------------------------------------------------

core::RunConfig knob_protocol_config(const std::string& spec_text) {
  core::RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = 8;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = SchedulerSpec::parse(spec_text);
  return cfg;
}

constexpr std::uint64_t kSequentialKeepProtocolDigest =
    13349877110825083527ull;
constexpr std::uint64_t kSequentialSkipProtocolDigest =
    7906545989172036869ull;
// On this workload the adversarial walk's wake *order* differs between the
// knob values (the trace pins above) but every agent still wakes the same
// number of times before finishing, so end state + metrics coincide — the
// two digests are legitimately equal.
constexpr std::uint64_t kAdversarialKeepProtocolDigest =
    11668558595272729605ull;
constexpr std::uint64_t kAdversarialSkipProtocolDigest =
    11668558595272729605ull;

TEST(WastedKnob, PinnedProtocolDigests) {
  EXPECT_EQ(kSequentialKeepProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config("sequential")));
  EXPECT_EQ(kSequentialKeepProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config("sequential:wasted=keep")));
  EXPECT_EQ(kSequentialSkipProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config("sequential:wasted=skip")));
  EXPECT_EQ(kAdversarialKeepProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config(kAdvKeep)));
  EXPECT_EQ(kAdversarialSkipProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config(kAdvSkip)));
}

TEST(WastedKnob, SynchronousDigestShardInvariantOnKnobPopulation) {
  const std::uint64_t serial = rfc::testing::protocol_end_state_digest(
      knob_protocol_config("synchronous"));
  EXPECT_EQ(serial, rfc::testing::protocol_end_state_digest(
                        knob_protocol_config("synchronous:shards=4")));
}

}  // namespace
}  // namespace rfc::sim
