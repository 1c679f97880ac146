// Workload — what a node cluster runs, decoupled from how it runs.
//
// A Workload is the transport layer's view of one experiment: how to build
// the agent for each label, the full fault plan, the (round-based)
// scheduler, the round budget, a per-agent completion predicate, and a
// per-agent state digest.  Factories adapt the two shipped entry points —
// gossip::run_rumor_spreading and core::run_protocol — reproducing their
// exact seeding (fault stream 0x0fa, per-label agent streams, source
// placement, colors) so a NodeDriver cluster and the in-memory engine
// compute the *same execution* from the same config.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "gossip/rumor.hpp"
#include "net/state_digest.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::net {

struct Workload {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  /// Round-based policy: `synchronous` or `partial-async:p=...` (the two
  /// a node steps the engine's phased-round kernel with; activation-based
  /// policies are rejected by the factories).
  sim::SchedulerSpec scheduler;
  std::vector<bool> fault_plan;
  /// Event budget in rounds (already scaled by steps_per_round).
  std::uint64_t max_rounds = 0;
  /// True for Protocol P: `params` is meaningful and the frame codec can
  /// move boxed intention/certificate payloads.
  bool has_params = false;
  core::ProtocolParams params{};

  /// Builds the agent installed at `label` (same construction the in-memory
  /// runner performs).
  std::function<std::unique_ptr<sim::Agent>(sim::AgentId label)> make_agent;
  /// Per-agent completion predicate: informed for rumor, done() for the
  /// protocol.  A run stops when every non-faulty agent satisfies it.
  std::function<bool(const sim::Agent&)> agent_complete;
  /// Folds one agent's end state into a block digest.
  std::function<void(Fnv1a&, const sim::Agent&, sim::AgentId label,
                     bool faulty)> digest_agent;
};

/// Adapts a rumor-spreading config.  Throws std::invalid_argument on a
/// non-round-based scheduler, a topology (the driver runs the complete
/// graph), or a virtual-time budget (rounds only).
Workload make_rumor_workload(const gossip::SpreadConfig& cfg);

/// Adapts a Protocol P config.  Additionally rejects coalitions (deviating
/// agents share in-process blackboards that cannot cross a transport).
Workload make_protocol_workload(const core::RunConfig& cfg);

}  // namespace rfc::net
