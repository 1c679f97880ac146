// Bit-exact wire encoding of Protocol P's payloads.
//
// The complexity claims of the paper are stated in *bits*; the simulator
// accounts them via Payload::bit_size().  This module closes the loop: every
// payload can actually be serialized into exactly that many bits (a
// certificate: plus its vote-count prefix, below) and parsed back, so the
// accounting model is honest — no other framing, no padding.
//
// Encoding model (Section 3): a vote value costs ceil(log2 m) bits, a label
// ceil(log2 n), a voting-round index ceil(log2 q), a color ceil(log2 n).
// Counts that both sides already know (q entries of an intention) are not
// transmitted; the certificate's variable-length W is prefixed by a vote
// count of ceil(log2 (n q)) bits, which is *not* included in bit_size():
// encoded_certificate_bits adds certificate_count_bits on top, so the wire
// carries that prefix beyond what the accounting charges.
//
// Parse errors.  Decoders come in two flavors: the original optional-based
// ones (nullopt on any failure — what the in-memory simulator ever needed)
// and _checked variants returning a WireResult with a structured WireError.
// The checked variants exist because the transport layer (src/net) feeds
// these decoders bytes from the network: a truncated stream, an overlong
// vote count (a 2^30 reserve bomb), or an out-of-range label must each be
// rejected with a diagnosable reason instead of a crash, an assert, or an
// unbounded allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"

namespace rfc::core {

/// Structured reason a wire decode was rejected.
enum class WireError : std::uint8_t {
  kNone = 0,        ///< Decode succeeded.
  kTruncated,       ///< The stream ended before the value was complete.
  kCountOverflow,   ///< A count prefix exceeds its domain bound (n*q for a
                    ///< certificate's vote multiset) — an overlong buffer
                    ///< that would otherwise drive an unbounded reserve.
  kRangeViolation,  ///< A decoded field lies outside its domain (a label
                    ///< >= n, a voting round >= q).
  kBadFrame,        ///< Malformed transport frame (net/wire_frame).
  kUnsupportedTag,  ///< A payload tag the wire codec has no encoding for.
};

/// Stable diagnostic names ("truncated", "count-overflow", ...).
const char* to_string(WireError error) noexcept;

/// Outcome of a checked decode: a value, or a structured error.  `value`
/// is engaged iff `error == WireError::kNone`.
template <typename T>
struct WireResult {
  std::optional<T> value;
  WireError error = WireError::kNone;

  bool ok() const noexcept { return error == WireError::kNone; }
  static WireResult failure(WireError e) noexcept { return {std::nullopt, e}; }
  static WireResult success(T v) { return {std::move(v), WireError::kNone}; }
};

/// Append-only bit stream writer (MSB-first within each value).
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value`.
  void write(std::uint64_t value, std::uint32_t bits);

  std::uint64_t bit_count() const noexcept { return bit_count_; }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bit_count_ = 0;
};

/// Sequential reader over a BitWriter's output.
class BitReader {
 public:
  BitReader(const std::vector<std::uint8_t>& bytes,
            std::uint64_t bit_count) noexcept
      : bytes_(&bytes), bit_count_(bit_count) {}

  /// Reads `bits` bits; returns nullopt past the end.
  std::optional<std::uint64_t> read(std::uint32_t bits);

  std::uint64_t remaining() const noexcept { return bit_count_ - cursor_; }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::uint64_t bit_count_;
  std::uint64_t cursor_ = 0;
};

// --- Encoders: each writes exactly the size the accounting model charges --

/// Vote intention H_u: q * (value_bits + label_bits) bits.
void encode_intention(BitWriter& w, const ProtocolParams& params,
                      const VoteIntention& intention);
std::optional<VoteIntention> decode_intention(BitReader& r,
                                              const ProtocolParams& params);
/// Checked variant: kTruncated on a short stream, kRangeViolation on a
/// vote target >= n (labels must name real agents).
WireResult<VoteIntention> decode_intention_checked(
    BitReader& r, const ProtocolParams& params);

/// Single vote: value_bits bits.
void encode_vote(BitWriter& w, const ProtocolParams& params,
                 std::uint64_t value);
std::optional<std::uint64_t> decode_vote(BitReader& r,
                                         const ProtocolParams& params);

/// Certificate (k, W, c, owner) with a |W| count prefix.
void encode_certificate(BitWriter& w, const ProtocolParams& params,
                        const Certificate& certificate);
std::optional<Certificate> decode_certificate(BitReader& r,
                                              const ProtocolParams& params);
/// Checked variant: kTruncated on a short stream, kCountOverflow when the
/// vote-count prefix exceeds n*q (the domain bound — guards the reserve),
/// kRangeViolation on a voter/owner label >= n or a voting round >= q.
WireResult<Certificate> decode_certificate_checked(
    BitReader& r, const ProtocolParams& params);

/// Bits the count prefix of a certificate costs: the vote multiset has at
/// most n*q elements.
std::uint32_t certificate_count_bits(const ProtocolParams& params) noexcept;

/// Exact encoded size of a certificate (bit_size() + count prefix).
std::uint64_t encoded_certificate_bits(const ProtocolParams& params,
                                       const Certificate& c) noexcept;

}  // namespace rfc::core
