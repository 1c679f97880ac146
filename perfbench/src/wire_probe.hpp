// Wire-codec probe: round-trips a Protocol P end state through the core/wire
// codec and net::FrameCodec, timing the core codec per bit.
#pragma once

#include <string>

#include "core/params.hpp"
#include "sim/engine.hpp"

namespace perfbench {

struct WireProbe {
  double encode_ns_per_bit = 0.0;
  double decode_ns_per_bit = 0.0;
  std::uint64_t bits = 0;  ///< Bits encoded in one pass.
  std::string error;       ///< Empty when every check held.
};

/// Encodes and decodes every active agent's vote intention and own
/// certificate on `engine` (a finished Protocol P run).  Checks that each
/// value comes back equal, through both codecs, and that its encoded size
/// is the accounting model's: an intention's payload bit_size, and a
/// certificate's bit_size plus its vote-count prefix.
WireProbe probe_wire(const rfc::sim::Engine& engine,
                     const rfc::core::ProtocolParams& params);

}  // namespace perfbench
