#include "core/verification.hpp"

#include <algorithm>
#include <vector>

namespace rfc::core {
namespace {

/// A vote's (voter, round) pair as one sortable word.
std::uint64_t vote_key(sim::AgentId voter, std::uint32_t round) noexcept {
  return (static_cast<std::uint64_t>(voter) << 32) | round;
}

}  // namespace

std::string to_string(VerificationFailure f) {
  switch (f) {
    case VerificationFailure::kNone: return "none";
    case VerificationFailure::kMalformedVote: return "malformed-vote";
    case VerificationFailure::kDuplicateVote: return "duplicate-vote";
    case VerificationFailure::kBadKeySum: return "bad-key-sum";
    case VerificationFailure::kVoteFromFaulty: return "vote-from-faulty";
    case VerificationFailure::kIntentionMismatch: return "intention-mismatch";
    case VerificationFailure::kMissingVote: return "missing-vote";
  }
  return "unknown";
}

bool is_well_formed_intention(const ProtocolParams& params,
                              const VoteIntention& intention) noexcept {
  if (intention.size() != params.q) return false;
  for (const VoteEntry& e : intention) {
    if (e.value >= params.m || e.target >= params.n) return false;
  }
  return true;
}

VerificationResult verify_certificate(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected) {
  // (a) Well-formedness and uniqueness of (voter, round) pairs.  The
  // failure reported is the one met first in vote order: a malformed vote
  // wins iff no (voter, round) pair repeats before it.
  const std::vector<ReceivedVote>& votes = certificate.votes;
  const auto malformed =
      std::find_if(votes.begin(), votes.end(), [&](const ReceivedVote& v) {
        return v.value >= params.m || v.round_index >= params.q ||
               v.voter >= params.n;
      });
  std::vector<std::uint64_t> seen;  // Keys of the well-formed prefix.
  seen.reserve(static_cast<std::size_t>(malformed - votes.begin()));
  for (auto it = votes.begin(); it != malformed; ++it) {
    seen.push_back(vote_key(it->voter, it->round_index));
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return {VerificationFailure::kDuplicateVote};
  }
  if (malformed != votes.end()) {
    return {VerificationFailure::kMalformedVote};
  }

  // (b) The claimed key must equal the vote sum.
  if (certificate.k != certificate.vote_sum(params)) {
    return {VerificationFailure::kBadKeySum};
  }

  // (c) Consistency against first-declared intentions.
  for (const ReceivedVote& v : certificate.votes) {
    const CommitmentRecord* record = collected.find(v.voter);
    if (record == nullptr) continue;  // We never audited this voter.
    if (record->marked_faulty) {
      return {VerificationFailure::kVoteFromFaulty};
    }
    const VoteEntry& declared = record->intention->at(v.round_index);
    if (declared.target != certificate.owner ||
        declared.value != v.value) {
      return {VerificationFailure::kIntentionMismatch};
    }
  }

  // (d) Completeness: every audited peer's declared vote for the winner
  // must be present.  This closes the vote-dropping loophole.
  if (params.strict_verification) {
    for (const CommitmentRecord& record : collected) {
      if (record.marked_faulty) continue;
      const VoteIntention& declared = *record.intention;
      for (std::uint32_t j = 0; j < declared.size(); ++j) {
        if (declared[j].target != certificate.owner) continue;
        if (!std::binary_search(seen.begin(), seen.end(),
                                vote_key(record.peer, j))) {
          return {VerificationFailure::kMissingVote};
        }
      }
    }
  }

  return {VerificationFailure::kNone};
}

}  // namespace rfc::core
