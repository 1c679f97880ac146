// White-box tests of the honest ProtocolAgent driven through a real engine.
#include "core/protocol_agent.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/payloads.hpp"
#include "sim/engine.hpp"
#include "support/arena.hpp"

namespace rfc::core {
namespace {

struct World {
  explicit World(std::uint32_t n, double gamma = 2.0, std::uint64_t seed = 1)
      : params(ProtocolParams::make(n, gamma)), engine({n, seed}) {
    for (std::uint32_t i = 0; i < n; ++i) {
      auto agent = std::make_unique<ProtocolAgent>(
          params, static_cast<Color>(i % 3));
      agents.push_back(agent.get());
      engine.set_agent(i, std::move(agent));
    }
  }
  void run_all() { engine.run(params.total_rounds() + 4); }

  ProtocolParams params;
  sim::Engine engine;
  std::vector<ProtocolAgent*> agents;
};

/// Drives one agent's hooks by hand, outside an engine: `ctx` is a
/// Commitment-round context for agent 0.
struct SoloAgent {
  explicit SoloAgent(std::uint32_t n)
      : params(ProtocolParams::make(n, 2.0)), agent(params, 0), rng(11) {
    ctx.self = 0;
    ctx.n = n;
    ctx.round = 0;
    ctx.rng = &rng;
  }

  /// A well-formed intention whose entries are all derived from `salt`.
  VoteIntention intention(std::uint64_t salt) const {
    VoteIntention h(params.q);
    for (std::uint32_t j = 0; j < params.q; ++j) {
      h[j] = {(salt + j) % params.m,
              static_cast<sim::AgentId>((salt * 7 + j) % params.n)};
    }
    return h;
  }

  void reply(sim::AgentId from, const sim::Payload& payload) {
    agent.on_pull_reply(ctx, from, payload);
  }

  const CommitmentRecord* record(sim::AgentId peer) const {
    return agent.collected_intentions().find(peer);
  }

  ProtocolParams params;
  ProtocolAgent agent;
  rfc::support::Xoshiro256 rng;
  sim::Context ctx;
};

TEST(ProtocolAgent, HonestReplyIsRetainedWithoutACopy) {
  World w(64);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  // Each sender's cached reply box, read back through a Commitment pull.
  sim::Context ctx;
  ctx.n = 64;
  ctx.round = 0;
  std::vector<sim::Payload> boxes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ctx.self = i;
    boxes.push_back(w.agents[i]->serve_pull(ctx, 0));
    ASSERT_NE(intention_in(boxes.back()), nullptr);
  }
  std::size_t records = 0;
  for (const auto* agent : w.agents) {
    for (const CommitmentRecord& record : agent->collected_intentions()) {
      EXPECT_EQ(record.intention.get(), intention_in(boxes[record.peer]))
          << "peer " << record.peer;
      ++records;
    }
  }
  EXPECT_GT(records, 64u);
}

TEST(ProtocolAgent, ArenaBoxedReplySurvivesTheArenaReset) {
  SoloAgent b(64);
  const VoteIntention lie = b.intention(5);
  rfc::support::Arena arena;
  b.reply(9, make_intention_payload_in(&arena, lie, b.params));
  arena.reset();
  // The next round bump-allocates over the same bytes.
  const sim::Payload other =
      make_intention_payload_in(&arena, b.intention(6), b.params);
  const CommitmentRecord* record = b.record(9);
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->marked_faulty);
  ASSERT_NE(record->intention, nullptr);
  EXPECT_NE(record->intention.get(), intention_in(other));
  EXPECT_EQ(*record->intention, lie);
}

TEST(ProtocolAgent, SecondReplyFromTheSameTargetLeavesTheFirstRecord) {
  SoloAgent b(64);
  const sim::Payload first = make_intention_payload(b.intention(1), b.params);
  b.reply(4, first);
  b.reply(4, make_intention_payload(b.intention(2), b.params));
  b.reply(4, {});  // Not even silence overrides the first declaration.
  ASSERT_EQ(b.agent.collected_intentions().size(), 1u);
  const CommitmentRecord* record = b.record(4);
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->marked_faulty);
  EXPECT_EQ(record->intention.get(), intention_in(first));
  EXPECT_EQ(*record->intention, b.intention(1));
}

TEST(ProtocolAgent, MalformedRepliesMarkFaultyAndKeepNoBox) {
  SoloAgent b(64);
  VoteIntention short_h = b.intention(1);
  short_h.pop_back();
  VoteIntention bad_value = b.intention(2);
  bad_value[3].value = b.params.m;
  VoteIntention bad_target = b.intention(3);
  bad_target.back().target = b.params.n;
  b.reply(1, make_intention_payload(short_h, b.params));
  b.reply(2, make_intention_payload(bad_value, b.params));
  b.reply(3, make_intention_payload(bad_target, b.params));
  b.reply(5, {});  // Silence.
  b.reply(6, make_vote_payload(1, b.params));  // Wrong message kind.
  ASSERT_EQ(b.agent.collected_intentions().size(), 5u);
  for (const CommitmentRecord& record : b.agent.collected_intentions()) {
    EXPECT_TRUE(record.marked_faulty) << "peer " << record.peer;
    EXPECT_EQ(record.intention, nullptr) << "peer " << record.peer;
  }
}

TEST(ProtocolAgent, CollectedIntentionsAreLabelSorted) {
  SoloAgent b(64);
  for (const sim::AgentId peer : {40u, 3u, 17u, 63u, 0u}) {
    b.reply(peer, make_intention_payload(b.intention(peer), b.params));
  }
  std::vector<sim::AgentId> order;
  for (const CommitmentRecord& record : b.agent.collected_intentions()) {
    order.push_back(record.peer);
  }
  EXPECT_EQ(order, (std::vector<sim::AgentId>{0, 3, 17, 40, 63}));
  EXPECT_EQ(b.record(5), nullptr);
  EXPECT_EQ(*b.record(17)->intention, b.intention(17));
}

TEST(ProtocolAgent, LocalMemoryBitsFollowThePaperModel) {
  SoloAgent b(64);
  b.agent.on_start(b.ctx);  // H_u: q entries.
  b.reply(7, make_intention_payload(b.intention(7), b.params));
  const sim::Payload shared = make_intention_payload(b.intention(8), b.params);
  b.reply(8, shared);
  b.reply(9, {});  // A faulty record: label and flag, no entries.
  const std::uint64_t entry = b.params.value_bits() + b.params.label_bits();
  const std::uint64_t record_header = b.params.label_bits() + 1;
  const std::uint64_t expected = b.params.q * entry          // H_u.
                                 + 3 * record_header         // L_u records.
                                 + 2 * b.params.q * entry;   // Two boxes.
  EXPECT_EQ(b.agent.local_memory_bits(), expected);
  // A box shared with another auditor is still charged in full.
  ProtocolAgent other(b.params, 1);
  other.on_pull_reply(b.ctx, 8, shared);
  EXPECT_EQ(other.local_memory_bits(), record_header + b.params.q * entry);
}

TEST(ProtocolAgent, IntentionHasCorrectShape) {
  World w(64);
  w.engine.step();  // on_start runs before round 0.
  for (const auto* agent : w.agents) {
    const VoteIntention& h = agent->intention();
    ASSERT_EQ(h.size(), w.params.q);
    for (const VoteEntry& e : h) {
      EXPECT_LT(e.value, w.params.m);
      EXPECT_LT(e.target, w.params.n);
    }
  }
}

TEST(ProtocolAgent, IntentionsVaryAcrossAgents) {
  World w(32);
  w.engine.step();
  std::set<std::uint64_t> first_values;
  for (const auto* agent : w.agents) {
    first_values.insert(agent->intention().front().value);
  }
  EXPECT_GT(first_values.size(), 30u);  // Collisions vanishingly unlikely.
}

TEST(ProtocolAgent, CommitmentCollectsOnePullPerRound) {
  World w(64);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    // Up to q records (self-pulls and repeats dedupe).
    EXPECT_GE(agent->collected_intentions().size(), 1u);
    EXPECT_LE(agent->collected_intentions().size(), w.params.q);
    for (const CommitmentRecord& record : agent->collected_intentions()) {
      EXPECT_LT(record.peer, w.params.n);
      EXPECT_FALSE(record.marked_faulty);  // Everyone honest & active.
      ASSERT_NE(record.intention, nullptr);
      EXPECT_EQ(record.intention->size(), w.params.q);
    }
  }
}

TEST(ProtocolAgent, FaultyPeersAreMarkedFaulty) {
  World w(32);
  // Make half the network faulty before starting.
  for (std::uint32_t i = 16; i < 32; ++i) w.engine.set_faulty(i);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  bool saw_faulty_mark = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    for (const CommitmentRecord& record :
         w.agents[i]->collected_intentions()) {
      if (record.peer >= 16) {
        EXPECT_TRUE(record.marked_faulty);
        saw_faulty_mark = true;
      } else {
        EXPECT_FALSE(record.marked_faulty);
      }
    }
  }
  EXPECT_TRUE(saw_faulty_mark);  // With q pulls over 32 labels, certain.
}

TEST(ProtocolAgent, VotesMatchDeclaredIntentions) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  // Cross-check: every received vote (v, j, h) equals H_v[j] and targets
  // the receiver.
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (const ReceivedVote& vote : w.agents[i]->received_votes()) {
      const VoteIntention& hv = w.agents[vote.voter]->intention();
      EXPECT_EQ(hv.at(vote.round_index).value, vote.value);
      EXPECT_EQ(hv.at(vote.round_index).target, i);
    }
  }
}

TEST(ProtocolAgent, TotalVotesEqualsActiveTimesQ) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  std::size_t total = 0;
  for (const auto* agent : w.agents) total += agent->received_votes().size();
  EXPECT_EQ(total, 64ull * w.params.q);
}

TEST(ProtocolAgent, CertificateBuiltAtFindMinStart) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    EXPECT_FALSE(agent->has_own_certificate());
  }
  w.engine.step();
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->has_own_certificate());
    const Certificate& ce = agent->own_certificate();
    EXPECT_EQ(ce.k, ce.vote_sum(w.params));
    EXPECT_EQ(ce.votes.size(), agent->received_votes().size());
  }
}

TEST(ProtocolAgent, FindMinReachesGlobalMinimum) {
  World w(128, 4.0);
  for (std::uint32_t r = 0; r < 3 * w.params.q; ++r) w.engine.step();
  Certificate global_min = w.agents[0]->own_certificate();
  for (const auto* agent : w.agents) {
    if (agent->own_certificate().less_than(global_min)) {
      global_min = agent->own_certificate();
    }
  }
  for (const auto* agent : w.agents) {
    EXPECT_EQ(agent->min_certificate(), global_min);
  }
}

TEST(ProtocolAgent, FullRunDecidesUnanimously) {
  World w(128, 4.0);
  w.run_all();
  ASSERT_TRUE(w.agents[0]->decided());
  const Color winner = w.agents[0]->decision();
  EXPECT_NE(winner, kNoColor);
  for (const auto* agent : w.agents) {
    EXPECT_TRUE(agent->decided());
    EXPECT_FALSE(agent->failed());
    EXPECT_EQ(agent->decision(), winner);
    EXPECT_EQ(agent->verification_failure(), VerificationFailure::kNone);
  }
}

TEST(ProtocolAgent, WinnerColorBelongsToMinCertOwner) {
  World w(64, 3.0);
  w.run_all();
  const Certificate& min_cert = w.agents[0]->min_certificate();
  EXPECT_EQ(w.agents[0]->decision(),
            w.agents[min_cert.owner]->initial_color());
}

TEST(ProtocolAgent, AgentsHoldingTheGlobalMinimumShareItsOwnersBox) {
  World w(128, 4.0);
  w.run_all();
  const ProtocolAgent* owner = w.agents[0];
  for (const auto* agent : w.agents) {
    if (agent->own_certificate().less_than(owner->own_certificate())) {
      owner = agent;
    }
  }
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->has_min_certificate());
    EXPECT_EQ(&agent->min_certificate(), &owner->own_certificate());
  }
}

TEST(ProtocolAgent, WuMovesIntoTheOwnCertificate) {
  World w(64);
  for (std::uint32_t r = 0; r <= 2 * w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->has_own_certificate());
    EXPECT_EQ(&agent->received_votes(), &agent->own_certificate().votes);
  }
}

/// A SoloAgent that received one vote of `value` and built CE_u (k = value)
/// in the first Find-Min round, the round `ctx` is left at.
struct CertifiedAgent : SoloAgent {
  explicit CertifiedAgent(std::uint64_t value) : SoloAgent(64) {
    agent.on_start(ctx);
    ctx.round = params.voting_begin();
    agent.on_push(ctx, 10, make_vote_payload(value, params));
    ctx.round = params.find_min_begin();
    agent.on_round(ctx);
  }

  Certificate certificate(std::uint64_t k, sim::AgentId owner) const {
    Certificate c;
    c.k = k;
    c.owner = owner;
    return c;
  }

  void push(const sim::Payload& payload) {
    sim::Context at = ctx;
    at.round = params.coherence_begin();
    agent.on_push(at, 20, payload);
  }
};

TEST(ProtocolAgent, HeapBoxedFindMinReplyIsAdoptedByHandle) {
  CertifiedAgent b(500);
  ASSERT_EQ(b.agent.min_certificate().k, 500u);
  const sim::Payload reply =
      make_certificate_payload(b.certificate(3, 9), b.params);
  b.reply(9, reply);
  EXPECT_EQ(&b.agent.min_certificate(), certificate_in(reply));
  // Serving CE_min hands out the same box.
  EXPECT_EQ(certificate_in(b.agent.serve_pull(b.ctx, 30)),
            certificate_in(reply));
}

TEST(ProtocolAgent, ArenaBoxedFindMinReplyIsCopiedOutOfTheArena) {
  CertifiedAgent b(500);
  rfc::support::Arena arena;
  b.reply(9, make_certificate_payload_in(&arena, b.certificate(3, 9),
                                         b.params));
  arena.reset();
  // The next round bump-allocates over the same bytes.
  const sim::Payload other =
      make_certificate_payload_in(&arena, b.certificate(4, 11), b.params);
  EXPECT_NE(&b.agent.min_certificate(), certificate_in(other));
  EXPECT_EQ(b.agent.min_certificate(), b.certificate(3, 9));
  EXPECT_EQ(b.agent.serve_pull(b.ctx, 30).bit_size(),
            b.certificate(3, 9).bit_size(b.params));
}

TEST(ProtocolAgent, CoherenceComparesTheBoxThenTheValue) {
  CertifiedAgent b(500);
  b.push(b.agent.serve_pull(b.ctx, 30));  // Our own CE_min box.
  EXPECT_FALSE(b.agent.failed());
  // An equal certificate in a distinct box.
  b.push(make_certificate_payload(b.agent.min_certificate(), b.params));
  EXPECT_FALSE(b.agent.failed());
  Certificate unequal = b.agent.min_certificate();
  unequal.votes.back().value += 1;
  b.push(make_certificate_payload(unequal, b.params));
  EXPECT_TRUE(b.agent.failed());
}

TEST(ProtocolAgent, CertificatesBeforeCeUMeetTheDefaultCertificate) {
  // An agent a partial-async schedule skipped at find_min_begin: it never
  // builds CE_u, so replies and pushes meet the default-constructed value.
  SoloAgent b(64);
  b.agent.on_start(b.ctx);
  b.ctx.round = b.params.find_min_begin() + 1;
  Certificate larger;
  larger.k = 5;
  larger.owner = 3;
  b.reply(3, make_certificate_payload(larger, b.params));
  EXPECT_EQ(b.agent.min_certificate(), Certificate{});
  Certificate smaller;
  smaller.owner = 3;  // k = 0 and a label below kNoAgent.
  b.reply(3, make_certificate_payload(smaller, b.params));
  EXPECT_EQ(b.agent.min_certificate(), smaller);
  EXPECT_FALSE(b.agent.has_min_certificate());
  EXPECT_FALSE(b.agent.has_own_certificate());
  EXPECT_EQ(b.agent.own_certificate(), Certificate{});
  EXPECT_TRUE(b.agent.serve_pull(b.ctx, 30).empty());

  SoloAgent c(64);
  c.agent.on_start(c.ctx);
  c.ctx.round = c.params.coherence_begin();
  c.agent.on_push(c.ctx, 20, make_certificate_payload(Certificate{}, c.params));
  EXPECT_FALSE(c.agent.failed());
  c.agent.on_push(c.ctx, 20, make_certificate_payload(smaller, c.params));
  EXPECT_TRUE(c.agent.failed());
}

TEST(ProtocolAgent, CommitmentPullersAreRecorded) {
  World w(32);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  std::size_t total_pulls = 0;
  for (const auto* agent : w.agents) {
    total_pulls += agent->commitment_pullers().size();
  }
  EXPECT_EQ(total_pulls, 32ull * w.params.q);
}

TEST(ProtocolAgent, ServesNothingOutsideProtocolPhases) {
  World w(16);
  // Drive to the Voting phase, where the protocol defines no pulls.
  for (std::uint32_t r = 0; r < w.params.q + 1; ++r) w.engine.step();
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 16;
  ctx.round = w.params.q + 1;  // Voting.
  rfc::support::Xoshiro256 rng(1);
  ctx.rng = &rng;
  EXPECT_TRUE(w.agents[0]->serve_pull(ctx, 5).empty());
}

TEST(ProtocolAgent, DoneAgentIsQuiescent) {
  World w(16);
  w.run_all();
  ASSERT_TRUE(w.agents[0]->done());
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 16;
  ctx.round = 0;  // Even a Commitment-phase pull gets silence now.
  rfc::support::Xoshiro256 rng(1);
  ctx.rng = &rng;
  EXPECT_TRUE(w.agents[0]->serve_pull(ctx, 3).empty());
  EXPECT_EQ(w.agents[0]->on_round(ctx).kind, sim::ActionKind::kIdle);
}

TEST(ProtocolAgent, TerminatesWithinScheduledRounds) {
  World w(64);
  const std::uint64_t rounds = w.engine.run(w.params.total_rounds() + 100);
  EXPECT_EQ(rounds, w.params.total_rounds());
}

}  // namespace
}  // namespace rfc::core
