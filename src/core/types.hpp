// Shared vocabulary types of Protocol P (Algorithm 1 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/agent.hpp"

namespace rfc::core {

/// A color from the finite color space Σ.  Colors are small non-negative
/// integers; in the fair-leader-election special case each agent's initial
/// color is his own label.
using Color = std::int64_t;

/// The "protocol failed / no consensus" outcome ⊥.
inline constexpr Color kNoColor = -1;

/// One entry (h_{u,i}, z_{u,i}) of a vote-intention list H_u: in round i of
/// the Voting phase, push the value `value` (u.a.r. in [m]) to agent
/// `target` (u.a.r. in [n]).
struct VoteEntry {
  std::uint64_t value = 0;
  sim::AgentId target = sim::kNoAgent;

  friend bool operator==(const VoteEntry&, const VoteEntry&) = default;
};

/// H_u: exactly q entries, one per Voting-phase round.
using VoteIntention = std::vector<VoteEntry>;

/// A vote as received in the Voting phase: agent `voter` pushed `value`
/// during voting round `round_index`.  The triple identifies the vote
/// uniquely (each agent pushes exactly one vote per round), which is what
/// lets the Verification phase cross-check W_min against collected
/// intentions.
struct ReceivedVote {
  sim::AgentId voter = sim::kNoAgent;
  std::uint32_t round_index = 0;
  std::uint64_t value = 0;

  friend bool operator==(const ReceivedVote&, const ReceivedVote&) = default;
};

/// W_u: all votes received by u during the Voting phase.
using ReceivedVotes = std::vector<ReceivedVote>;

/// One record of L_u: the vote intention `peer` declared to us in the
/// Commitment phase, or the "marked faulty" state if it did not reply or
/// replied in an unexpected way (footnote 4 of the paper: a faulty peer's
/// votes all count as zero).  The intention is held by shared handle, not
/// copied: an honest reply is the sender's one cached box, so every auditor
/// of that sender points at the same q entries.
struct CommitmentRecord {
  sim::AgentId peer = sim::kNoAgent;
  bool marked_faulty = false;
  /// The declared H_peer (exactly q well-formed entries); null iff
  /// marked_faulty.  Immutable and heap-owned: it outlives the round the
  /// reply arrived in.
  std::shared_ptr<const VoteIntention> intention;
};

/// L_u: the records of the peers we audited, as a label-sorted flat array
/// of at most q entries (one pull per Commitment round), so a lookup is a
/// binary search and iteration runs in label order.  Insertion is
/// first-declaration-wins, which implements the h* values of Theorem 7's
/// proof: an equivocating peer is pinned to whatever it told us first.
class CollectedIntentions {
 public:
  using const_iterator = std::vector<CommitmentRecord>::const_iterator;

  /// The record of `peer`, or null if we never audited it.
  const CommitmentRecord* find(sim::AgentId peer) const noexcept {
    const auto it = lower_bound(peer);
    return it != records_.end() && it->peer == peer ? &*it : nullptr;
  }
  bool contains(sim::AgentId peer) const noexcept {
    return find(peer) != nullptr;
  }

  /// Adds `record` unless its peer already has one: the first declaration
  /// stands.
  void insert(CommitmentRecord record) {
    const auto it = lower_bound(record.peer);
    if (it != records_.end() && it->peer == record.peer) return;
    records_.insert(it, std::move(record));
  }

  std::size_t size() const noexcept { return records_.size(); }
  const_iterator begin() const noexcept { return records_.begin(); }
  const_iterator end() const noexcept { return records_.end(); }

 private:
  const_iterator lower_bound(sim::AgentId peer) const noexcept {
    return std::partition_point(
        records_.begin(), records_.end(),
        [peer](const CommitmentRecord& r) { return r.peer < peer; });
  }

  std::vector<CommitmentRecord> records_;  ///< Sorted by peer, unique.
};

}  // namespace rfc::core
