#include "wire_probe.hpp"

#include <vector>

#include "core/payloads.hpp"
#include "core/protocol_agent.hpp"
#include "core/wire.hpp"
#include "measure.hpp"
#include "net/wire_frame.hpp"

namespace perfbench {
namespace {

using rfc::core::BitReader;
using rfc::core::BitWriter;
using rfc::core::Certificate;
using rfc::core::VoteIntention;

struct Encoded {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;
};

Encoded take(const BitWriter& w) { return {w.bytes(), w.bit_count()}; }

}  // namespace

WireProbe probe_wire(const rfc::sim::Engine& engine,
                     const rfc::core::ProtocolParams& params) {
  std::vector<const VoteIntention*> intentions;
  std::vector<const Certificate*> certificates;
  for (std::uint32_t i = 0; i < engine.n(); ++i) {
    if (engine.is_faulty(i)) continue;
    const auto& agent =
        static_cast<const rfc::core::ProtocolAgent&>(engine.agent(i));
    intentions.push_back(&agent.intention());
    if (agent.has_own_certificate()) {
      certificates.push_back(&agent.own_certificate());
    }
  }

  WireProbe probe;
  std::vector<Encoded> enc_intentions(intentions.size());
  std::vector<Encoded> enc_certificates(certificates.size());
  const Clock::time_point e0 = Clock::now();
  for (std::size_t i = 0; i < intentions.size(); ++i) {
    BitWriter w;
    rfc::core::encode_intention(w, params, *intentions[i]);
    enc_intentions[i] = take(w);
  }
  for (std::size_t i = 0; i < certificates.size(); ++i) {
    BitWriter w;
    rfc::core::encode_certificate(w, params, *certificates[i]);
    enc_certificates[i] = take(w);
  }
  const double encode_s = seconds_since(e0);

  std::vector<rfc::core::WireResult<VoteIntention>> dec_intentions;
  std::vector<rfc::core::WireResult<Certificate>> dec_certificates;
  dec_intentions.reserve(intentions.size());
  dec_certificates.reserve(certificates.size());
  const Clock::time_point d0 = Clock::now();
  for (const Encoded& e : enc_intentions) {
    BitReader r(e.bytes, e.bits);
    dec_intentions.push_back(rfc::core::decode_intention_checked(r, params));
  }
  for (const Encoded& e : enc_certificates) {
    BitReader r(e.bytes, e.bits);
    dec_certificates.push_back(
        rfc::core::decode_certificate_checked(r, params));
  }
  const double decode_s = seconds_since(d0);

  for (std::size_t i = 0; i < intentions.size() && probe.error.empty(); ++i) {
    probe.bits += enc_intentions[i].bits;
    const std::uint64_t model =
        rfc::core::make_intention_payload(*intentions[i], params).bit_size();
    if (enc_intentions[i].bits != model) {
      probe.error = "intention encodes to a size other than its bit_size";
    } else if (!dec_intentions[i].ok() ||
               *dec_intentions[i].value != *intentions[i]) {
      probe.error = "intention does not survive the core/wire round trip";
    }
  }
  for (std::size_t i = 0; i < certificates.size() && probe.error.empty();
       ++i) {
    probe.bits += enc_certificates[i].bits;
    const std::uint64_t model = certificates[i]->bit_size(params) +
                                rfc::core::certificate_count_bits(params);
    if (enc_certificates[i].bits != model) {
      probe.error = "certificate encodes to a size other than its bit_size";
    } else if (!dec_certificates[i].ok() ||
               *dec_certificates[i].value != *certificates[i]) {
      probe.error = "certificate does not survive the core/wire round trip";
    }
  }

  // The transport's frames carry the same values as boxed payloads.
  const rfc::net::FrameCodec codec{engine.n(), &params};
  for (std::size_t i = 0; i < certificates.size() && probe.error.empty();
       ++i) {
    rfc::net::Frame frame;
    frame.kind = rfc::net::FrameKind::kPush;
    frame.agent = certificates[i]->owner;
    frame.target = 0;
    frame.payload =
        rfc::core::make_certificate_payload(*certificates[i], params);
    const std::vector<std::uint8_t> bytes = codec.encode(frame);
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    const Certificate* back =
        decoded.ok() ? rfc::core::certificate_in(decoded.value->payload)
                     : nullptr;
    if (back == nullptr || *back != *certificates[i]) {
      probe.error = "certificate does not survive the FrameCodec round trip";
    }
  }
  for (std::size_t i = 0; i < intentions.size() && probe.error.empty(); ++i) {
    rfc::net::Frame frame;
    frame.kind = rfc::net::FrameKind::kPullReply;
    frame.agent = 0;
    frame.target = 0;
    frame.payload = rfc::core::make_intention_payload(*intentions[i], params);
    const std::vector<std::uint8_t> bytes = codec.encode(frame);
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    const VoteIntention* back =
        decoded.ok() ? rfc::core::intention_in(decoded.value->payload)
                     : nullptr;
    if (back == nullptr || *back != *intentions[i]) {
      probe.error = "intention does not survive the FrameCodec round trip";
    }
  }

  if (probe.bits > 0) {
    probe.encode_ns_per_bit = encode_s * 1e9 / double(probe.bits);
    probe.decode_ns_per_bit = decode_s * 1e9 / double(probe.bits);
  }
  return probe;
}

}  // namespace perfbench
