#include "core/payloads.hpp"

#include <utility>

#include "sim/network.hpp"

namespace rfc::core {
namespace {

// --- Network-adversary hooks (sim/network.hpp) ----------------------------
// Boxed payloads are opaque to the engine's generic bit-flip, so the core
// registers per-tag ops: `corrupt` flips one semantic bit (the tampering the
// verifier must catch), `clone` re-boxes a heap-shared copy so a delayed
// push survives the round-arena reset.

sim::Payload corrupt_certificate(const sim::Payload& p, std::uint64_t salt) {
  const Certificate* cert = certificate_in(p);
  if (cert == nullptr) return {};
  Certificate tampered = *cert;
  // Any flip in k breaks k == Σ votes mod m, so verification reports
  // kBadKeySum no matter which bit the salt picks.
  tampered.k ^= std::uint64_t{1} << (salt % 64u);
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag,
                                               p.bit_size(),
                                               std::move(tampered));
}

sim::Payload clone_certificate(const sim::Payload& p) {
  const Certificate* cert = certificate_in(p);
  if (cert == nullptr) return {};
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag,
                                               p.bit_size(),
                                               Certificate{*cert});
}

sim::Payload corrupt_intention(const sim::Payload& p, std::uint64_t salt) {
  const VoteIntention* intent = intention_in(p);
  if (intent == nullptr || intent->empty()) return {};
  VoteIntention tampered = *intent;
  // Flip one bit of one vote value: the commitment H no longer matches the
  // votes actually pushed, which is exactly Verification's check (iii).
  tampered[(salt >> 6u) % tampered.size()].value ^=
      std::uint64_t{1} << (salt % 64u);
  return sim::Payload::make_boxed<VoteIntention>(kIntentionPayloadTag,
                                                 p.bit_size(),
                                                 std::move(tampered));
}

sim::Payload clone_intention(const sim::Payload& p) {
  const VoteIntention* intent = intention_in(p);
  if (intent == nullptr) return {};
  return sim::Payload::make_boxed<VoteIntention>(kIntentionPayloadTag,
                                                 p.bit_size(),
                                                 VoteIntention{*intent});
}

[[maybe_unused]] const bool kOpsRegistered = [] {
  sim::register_payload_ops(kCertificatePayloadTag,
                            {&corrupt_certificate, &clone_certificate});
  sim::register_payload_ops(kIntentionPayloadTag,
                            {&corrupt_intention, &clone_intention});
  return true;
}();

}  // namespace

sim::Payload make_intention_payload(VoteIntention intention,
                                    const ProtocolParams& params) {
  const std::uint64_t bits =
      intention.size() * (static_cast<std::uint64_t>(params.value_bits()) +
                          params.label_bits());
  return sim::Payload::make_boxed<VoteIntention>(kIntentionPayloadTag, bits,
                                                 std::move(intention));
}

sim::Payload make_intention_payload_in(rfc::support::Arena* arena,
                                       VoteIntention intention,
                                       const ProtocolParams& params) {
  const std::uint64_t bits =
      intention.size() * (static_cast<std::uint64_t>(params.value_bits()) +
                          params.label_bits());
  return sim::Payload::make_boxed_in<VoteIntention>(
      arena, kIntentionPayloadTag, bits, std::move(intention));
}

std::shared_ptr<const VoteIntention> retained_intention_in(
    const sim::Payload& p) {
  if (auto shared = p.shared_as<VoteIntention>(kIntentionPayloadTag)) {
    return shared;
  }
  const VoteIntention* h = intention_in(p);
  return h != nullptr ? std::make_shared<const VoteIntention>(*h) : nullptr;
}

sim::Payload make_vote_payload(std::uint64_t value,
                               const ProtocolParams& params) {
  return sim::Payload::inline_words(kVotePayloadTag, params.value_bits(),
                                    value);
}

sim::Payload make_certificate_payload(Certificate certificate,
                                      const ProtocolParams& params) {
  const std::uint64_t bits = certificate.bit_size(params);
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag, bits,
                                               std::move(certificate));
}

sim::Payload make_certificate_payload_in(rfc::support::Arena* arena,
                                         Certificate certificate,
                                         const ProtocolParams& params) {
  const std::uint64_t bits = certificate.bit_size(params);
  return sim::Payload::make_boxed_in<Certificate>(
      arena, kCertificatePayloadTag, bits, std::move(certificate));
}

std::shared_ptr<const Certificate> retained_certificate_in(
    const sim::Payload& p) {
  if (auto shared = p.shared_as<Certificate>(kCertificatePayloadTag)) {
    return shared;
  }
  const Certificate* cert = certificate_in(p);
  return cert != nullptr ? std::make_shared<const Certificate>(*cert)
                         : nullptr;
}

sim::Payload make_digest_payload(std::uint64_t digest) noexcept {
  return sim::Payload::inline_words(kDigestPayloadTag, 64, digest);
}

}  // namespace rfc::core
