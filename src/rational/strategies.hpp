// The deviation strategy library used by the equilibrium experiments (E7).
//
// Theorem 7 quantifies over *all* restricted protocols P'_C; an experiment
// can only sample that space, so we implement the canonical
// profitable-looking attacks the proof machinery (Claims 1-4) rules out,
// each isolating one lever a coalition controls:
//
//   kSelfishVoting      declare & cast all votes (value 0) at the
//                       beneficiary — tests Claim 2: honest votes keep the
//                       beneficiary's key uniform, so no gain.
//   kForgedEmptyCert    beneficiary enters Find-Min with k = 0 and an empty
//                       W — caught by strict verification (completeness).
//   kForgedCoalitionCert beneficiary fabricates W from coalition members'
//                       *declared* votes only, k = 0 — value-consistent with
//                       every audit, caught only by the completeness check;
//                       the ablation showing that check is load-bearing
//                       (it is exactly the inconsistency used in the proof
//                       of Claim 1).
//   kVoteDrop           beneficiary drops a chosen subset of received votes
//                       to minimize k — caught by completeness.
//   kEquivocate         members answer each Commitment pull with a fresh
//                       random intention — any vote landing in W_min is
//                       inconsistent with some first declaration.
//   kPlayDead           members stay silent in Commitment (pretend faulty),
//                       then vote anyway — auditors hold h* = 0 for them, so
//                       their votes in W_min trigger failure (the
//                       "pretend to be faulty" deviation the paper calls out).
//   kFindMinSuppress    members never forward the true minimum — only slows
//                       the pull broadcast; honest agents still converge.
//   kStubbornCert       members refuse to adopt smaller certificates and
//                       push their own in Coherence — forces ⊥, utility -χ.
//   kAdaptiveVote       members vote values different from declarations,
//                       adaptively steering the beneficiary's key toward 0 —
//                       caught by the declared-vs-actual audit (Def. 5(1)).
//   kSkipVerification   members skip Coherence/Verification checks — a
//                       free-rider deviation with no influence on the
//                       outcome.
#pragma once

#include <string>
#include <vector>

#include "core/protocol_agent.hpp"
#include "core/runner.hpp"
#include "rational/coalition.hpp"

namespace rfc::rational {

enum class DeviationStrategy : std::uint8_t {
  kHonest,  ///< Control: coalition labels follow P (baseline win rate).
  kSelfishVoting,
  kForgedEmptyCert,
  kForgedCoalitionCert,
  kVoteDrop,
  kEquivocate,
  kPlayDead,
  kFindMinSuppress,
  kStubbornCert,
  kAdaptiveVote,
  kSkipVerification,
};

const std::vector<DeviationStrategy>& all_deviation_strategies();
std::string to_string(DeviationStrategy s);

/// Builds the agent factory installing strategy `s` on every coalition
/// label.  Pass the result (and `coalition->members()`) into
/// core::RunConfig.
core::AgentFactory make_deviating_factory(DeviationStrategy s,
                                          CoalitionPtr coalition);

// ---------------------------------------------------------------------------
// Individual strategy agents (exposed for unit tests).
// ---------------------------------------------------------------------------

/// Common base: holds the coalition pointer and publishes declared
/// intentions to the blackboard.
class CoalitionAgent : public core::ProtocolAgent {
 public:
  CoalitionAgent(const core::ProtocolParams& params, core::Color color,
                 CoalitionPtr coalition);

 protected:
  core::VoteIntention choose_intention(const sim::Context& ctx) override;
  bool is_beneficiary(const sim::Context& ctx) const noexcept {
    return ctx.self == coalition_->beneficiary();
  }
  CoalitionPtr coalition_;
};

/// kSelfishVoting: every vote (declared and cast) is (0, beneficiary).
class SelfishVotingAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::VoteIntention choose_intention(const sim::Context& ctx) override;
};

/// kForgedEmptyCert: the beneficiary certifies k = 0 with an empty W.
class ForgedEmptyCertAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::Certificate build_own_certificate(const sim::Context& ctx) override;
};

/// kForgedCoalitionCert: members declare & cast (0, beneficiary) votes; the
/// beneficiary certifies exactly those declared votes (k = 0), discarding
/// all honest votes it received.
class ForgedCoalitionCertAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::VoteIntention choose_intention(const sim::Context& ctx) override;
  core::Certificate build_own_certificate(const sim::Context& ctx) override;
};

/// kVoteDrop: beneficiary drops up to two received votes, choosing the
/// subset minimizing k.
class VoteDropAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::Certificate build_own_certificate(const sim::Context& ctx) override;
};

/// kEquivocate: each Commitment pull is answered with a fresh random
/// intention; votes follow the (private) real intention.
class EquivocatingAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  sim::Payload commitment_reply(const sim::Context& ctx,
                                sim::AgentId requester) override;
};

/// kPlayDead: silent during Commitment, votes (0, beneficiary) anyway.
class PlayDeadAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::VoteIntention choose_intention(const sim::Context& ctx) override;
  sim::Payload commitment_reply(const sim::Context& ctx,
                                sim::AgentId requester) override;
};

/// kFindMinSuppress: serves its *own* certificate to every Find-Min pull
/// instead of the current minimum.
class FindMinSuppressAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  sim::Payload find_min_reply(const sim::Context& ctx,
                              sim::AgentId requester) override;
};

/// kStubbornCert: only adopts coalition-owned certificates and pushes its
/// own in Coherence, knowingly forcing mismatches.
class StubbornCertAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  void consider_certificate(const sim::Payload& reply) override;
  void on_coherence_certificate(const core::Certificate& certificate) override;
  void on_coherence_digest(std::uint64_t digest) override;
};

/// kAdaptiveVote: declares a random intention but casts votes at the
/// beneficiary; the designated fixer casts, in the last voting round, the
/// value that steers the beneficiary's key to 0 given everything the
/// coalition has seen.
class AdaptiveVoteAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  core::VoteEntry vote_for_round(const sim::Context& ctx,
                                 std::uint32_t i) override;
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override;
};

/// kSkipVerification: never fails in Coherence and adopts CE_min's color
/// without auditing it.
class SkipVerificationAgent final : public CoalitionAgent {
 public:
  using CoalitionAgent::CoalitionAgent;

 protected:
  void on_coherence_certificate(const core::Certificate& certificate) override;
  void on_coherence_digest(std::uint64_t digest) override;
  void finalize(const sim::Context& ctx) override;
};

}  // namespace rfc::rational
