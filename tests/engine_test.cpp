// Tests of the synchronous GOSSIP engine: round phases, snapshot semantics,
// fault silence, message accounting, determinism, and the Agent observation
// contract.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

constexpr PayloadTag kNumberTag = 0xF0;

Payload number_payload(std::uint64_t v, std::uint64_t bits = 32) {
  return Payload::inline_words(kNumberTag, bits, v);
}

/// Scripted agent: performs a fixed list of actions, records every event.
class ScriptedAgent final : public Agent {
 public:
  std::vector<Action> script;
  std::uint64_t counter_value = 0;  ///< Served to pulls; bumped on replies.
  std::vector<std::pair<AgentId, std::uint64_t>> pushes_seen;
  std::vector<std::pair<AgentId, bool>> pull_replies_seen;
  std::vector<AgentId> pull_requesters_seen;
  bool is_done = false;

  Action on_round(const Context& ctx) override {
    if (ctx.round < script.size()) return script[ctx.round];
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId requester) override {
    pull_requesters_seen.push_back(requester);
    return number_payload(counter_value);
  }
  void on_pull_reply(const Context&, AgentId target,
                     const Payload& reply) override {
    pull_replies_seen.emplace_back(target, !reply.empty());
    if (!reply.empty()) counter_value = reply.word(0) + 100;
  }
  void on_push(const Context&, AgentId sender,
               const Payload& payload) override {
    pushes_seen.emplace_back(sender, payload.word(0));
  }
  bool done() const override { return is_done; }
};

ScriptedAgent* install(Engine& engine, AgentId id) {
  auto agent = std::make_unique<ScriptedAgent>();
  ScriptedAgent* ptr = agent.get();
  engine.set_agent(id, std::move(agent));
  return ptr;
}

TEST(Engine, RejectsZeroAgents) {
  EXPECT_THROW(Engine({0, 1}), std::invalid_argument);
}

TEST(Engine, PushIsDeliveredSameRound) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  a->script = {Action::push(1, number_payload(7))};
  engine.step();
  ASSERT_EQ(b->pushes_seen.size(), 1u);
  EXPECT_EQ(b->pushes_seen[0], (std::pair<AgentId, std::uint64_t>{0, 7}));
  EXPECT_EQ(engine.metrics().pushes, 1u);
}

TEST(Engine, PullGetsReplyAndRequesterIsAuthentic) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  b->counter_value = 55;
  a->script = {Action::pull(1)};
  engine.step();
  ASSERT_EQ(a->pull_replies_seen.size(), 1u);
  EXPECT_EQ(a->pull_replies_seen[0].first, 1u);
  EXPECT_TRUE(a->pull_replies_seen[0].second);
  EXPECT_EQ(a->counter_value, 155u);  // 55 + 100.
  ASSERT_EQ(b->pull_requesters_seen.size(), 1u);
  EXPECT_EQ(b->pull_requesters_seen[0], 0u);
}

TEST(Engine, PullServesRoundStartState) {
  // a pulls b while b pulls c: b's reply to a must reflect b's value
  // *before* b's own pull reply mutates it.
  Engine engine({3, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  auto* c = install(engine, 2);
  b->counter_value = 10;
  c->counter_value = 20;
  a->script = {Action::pull(1)};
  b->script = {Action::pull(2)};
  engine.step();
  EXPECT_EQ(a->counter_value, 110u);  // Saw b's round-start 10.
  EXPECT_EQ(b->counter_value, 120u);  // Saw c's 20.
}

TEST(Engine, FaultyAgentsAreSilentAndReceiveNothing) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  engine.set_faulty(1);
  a->script = {Action::pull(1), Action::push(1, number_payload(3))};
  engine.step();
  ASSERT_EQ(a->pull_replies_seen.size(), 1u);
  EXPECT_FALSE(a->pull_replies_seen[0].second);  // Silence.
  engine.step();
  EXPECT_TRUE(b->pushes_seen.empty());
  EXPECT_TRUE(b->pull_requesters_seen.empty());
  // The faulty node performed no active operation either.
  EXPECT_EQ(engine.metrics().active_links, 2u);  // Only a's two actions.
}

TEST(Engine, FaultPlanLockedAfterStart) {
  Engine engine({2, 1});
  install(engine, 0);
  install(engine, 1);
  engine.step();
  EXPECT_THROW(engine.set_faulty(0), std::logic_error);
}

TEST(Engine, FaultPlanSizeChecked) {
  Engine engine({2, 1});
  EXPECT_THROW(engine.apply_fault_plan({true}), std::invalid_argument);
}

TEST(Engine, NumActiveTracksFaults) {
  Engine engine({5, 1});
  for (AgentId i = 0; i < 5; ++i) install(engine, i);
  engine.apply_fault_plan({true, false, true, false, false});
  EXPECT_EQ(engine.num_faulty(), 2u);
  EXPECT_EQ(engine.num_active(), 3u);
}

TEST(Engine, MessageAccountingExact) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  install(engine, 1);
  a->script = {Action::push(1, number_payload(1, 128)), Action::pull(1)};
  engine.step();
  EXPECT_EQ(engine.metrics().pushes, 1u);
  EXPECT_EQ(engine.metrics().total_bits, 128u);
  EXPECT_EQ(engine.metrics().max_message_bits, 128u);
  engine.step();
  // Pull: request header (1 bit for n=2) + 32-bit reply.
  EXPECT_EQ(engine.metrics().pull_requests, 1u);
  EXPECT_EQ(engine.metrics().pull_replies, 1u);
  EXPECT_EQ(engine.metrics().total_bits, 128u + engine.pull_request_bits() + 32u);
  EXPECT_EQ(engine.metrics().messages(), 3u);
}

TEST(Engine, RunStopsWhenAllActiveDone) {
  Engine engine({3, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  auto* c = install(engine, 2);
  engine.set_faulty(2);
  c->is_done = false;  // Faulty: ignored by the done-check.
  a->is_done = true;
  b->is_done = true;
  EXPECT_EQ(engine.run(100), 0u);
  EXPECT_TRUE(engine.all_done());
}

TEST(Engine, RunRespectsMaxRounds) {
  Engine engine({1, 1});
  install(engine, 0);  // Never done.
  EXPECT_EQ(engine.run(17), 17u);
  EXPECT_EQ(engine.metrics().rounds, 17u);
}

TEST(Engine, SelfPullWorks) {
  Engine engine({1, 1});
  auto* a = install(engine, 0);
  a->counter_value = 5;
  a->script = {Action::pull(0)};
  engine.step();
  EXPECT_EQ(a->counter_value, 105u);
}

TEST(Engine, RoundObserverInvokedEachRound) {
  Engine engine({1, 1});
  install(engine, 0);
  int calls = 0;
  engine.set_round_observer([&calls](const Engine&) { ++calls; });
  engine.run(5);
  EXPECT_EQ(calls, 5);
}

TEST(Engine, MissingAgentThrows) {
  Engine engine({2, 1});
  install(engine, 0);
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, PerAgentRngStreamsDiffer) {
  Engine engine({2, 99});
  // Two agents pulling "random" peers must not mirror each other; check by
  // comparing the raw streams the engine would hand them.
  rfc::support::Xoshiro256 r0(rfc::support::derive_seed(99, 0));
  rfc::support::Xoshiro256 r1(rfc::support::derive_seed(99, 1));
  EXPECT_NE(r0.next(), r1.next());
}

/// Done after its first activation, un-done by any push — a breach of
/// "done() is final".  Label 1 pushes to label 0 in round 0.
class RevertingAgent final : public Agent {
 public:
  Action on_round(const Context& ctx) override {
    done_ = true;
    return ctx.self == 1 ? Action::push(0, Payload{}) : Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  void on_push(const Context&, AgentId, const Payload&) override {
    done_ = false;
  }
  bool done() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Engine, DoneRevertingToFalseThrowsNamingAgentAndRound) {
  // Phase A drops a done label from the live list for good, so an agent
  // un-done afterwards would never wake again and the run would spin to its
  // budget; the engine reports the breach instead.
  for (const char* spec : {"synchronous", "synchronous:shards=2,threads=2"}) {
    Engine engine({2, 1, nullptr, SchedulerSpec::parse(spec).make()});
    for (AgentId i = 0; i < 2; ++i) {
      engine.set_agent(i, std::make_unique<RevertingAgent>());
    }
    try {
      engine.run(100);
      ADD_FAILURE() << spec << ": no error after " << engine.round()
                    << " rounds";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("agent 0 "), std::string::npos) << what;
      EXPECT_NE(what.find("round 0"), std::string::npos) << what;
    }
  }
}

/// done() reads a flag that label 1's on_round raises, so label 0's
/// observation moves outside label 0's own callbacks.
class SharedFlagAgent final : public Agent {
 public:
  explicit SharedFlagAgent(bool* flag) noexcept : flag_(flag) {}
  Action on_round(const Context& ctx) override {
    if (ctx.self == 1) *flag_ = true;
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  bool done() const override { return *flag_; }

 private:
  bool* flag_;
};

TEST(EngineDeathTest, CheckerCatchesDoneFlippedOutsideItsCallbacks) {
#ifdef NDEBUG
  GTEST_SKIP() << "the observation checker is compiled into Debug builds";
#else
  EXPECT_DEATH(
      {
        bool flag = false;
        Engine engine({2, 1});
        for (AgentId i = 0; i < 2; ++i) {
          engine.set_agent(i, std::make_unique<SharedFlagAgent>(&flag));
        }
        engine.step();
      },
      "observation contract broken at agent 0, round 0: done\\(\\)");
#endif
}

}  // namespace
}  // namespace rfc::sim
