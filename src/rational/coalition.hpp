// Coalition coordination state shared by deviating agents.
//
// The model (Def. 1) lets a coalition C pick an arbitrary joint strategy
// P'_C: members may share unbounded information out of band.  We model that
// with a blackboard object every coalition agent holds a shared_ptr to;
// anything a member publishes is available to the others from the next
// phase of the round on.  This gives deviations *more* power than any
// realizable distributed strategy — a conservative way to test the
// equilibrium claim.
//
// The blackboard is shared across labels, so it keeps the phase discipline
// of the Agent contract (sim/agent.hpp) that lets a sharded round run
// coalitions: every write happens in a different phase from every read.
// Intentions are published in on_start, which the engine runs serially
// before round 0.  The beneficiary's vote sum is written only in its own
// on_push (phase D) and read only in the fixer's on_round (phase A).  A new
// blackboard entry must keep that discipline.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"
#include "sim/agent.hpp"

namespace rfc::rational {

class Coalition {
 public:
  Coalition(std::vector<sim::AgentId> members, sim::AgentId beneficiary);

  const std::vector<sim::AgentId>& members() const noexcept {
    return members_;
  }
  sim::AgentId beneficiary() const noexcept { return beneficiary_; }
  bool contains(sim::AgentId id) const noexcept {
    return member_set_.contains(id);
  }
  std::size_t size() const noexcept { return members_.size(); }

  // ---- Blackboard -------------------------------------------------------
  /// Members publish the intention they actually declared, so the
  /// beneficiary can fabricate certificates consistent with declarations.
  void publish_intention(sim::AgentId member, const core::VoteIntention& h) {
    declared_[member] = h;
  }
  const std::unordered_map<sim::AgentId, core::VoteIntention>&
  declared_intentions() const noexcept {
    return declared_;
  }

  /// The beneficiary publishes the running sum (mod m) of votes it has
  /// received, for adaptive-voting members.
  void publish_beneficiary_vote_sum(std::uint64_t sum) noexcept {
    beneficiary_vote_sum_ = sum;
  }
  std::uint64_t beneficiary_vote_sum() const noexcept {
    return beneficiary_vote_sum_;
  }

  /// Chooses the coalition member with the smallest label as the designated
  /// "fixer" for strategies that need exactly one member to act.
  sim::AgentId fixer() const noexcept { return fixer_; }

 private:
  std::vector<sim::AgentId> members_;
  std::unordered_set<sim::AgentId> member_set_;
  sim::AgentId beneficiary_;
  sim::AgentId fixer_;
  std::unordered_map<sim::AgentId, core::VoteIntention> declared_;
  std::uint64_t beneficiary_vote_sum_ = 0;
};

using CoalitionPtr = std::shared_ptr<Coalition>;

/// Builds a coalition of the first `size` labels (label 0 is the
/// beneficiary).  Protocol P is label-symmetric, so which labels deviate is
/// irrelevant; fault plans used in equilibrium experiments avoid these
/// labels so that |C| is exact.
CoalitionPtr make_prefix_coalition(std::uint32_t size);

}  // namespace rfc::rational
