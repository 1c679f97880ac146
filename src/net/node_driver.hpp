// NodeDriver — one node process of a distributed GOSSIP run.
//
// Each node owns a contiguous label block (the partition rule shared with
// the sharded executor: block b is [contiguous_block_begin(n, K, b),
// contiguous_block_begin(n, K, b+1))) and builds agents for that block
// only.  It runs the in-memory engine's own phased-round kernel: an
// EngineCore wired as node b of K through the round-exchange seam
// (sim/engine_core.hpp), stepped by the workload's scheduler (so the
// partial-async wake mask is PartialAsyncScheduler's stream).  The kernel
// runs the local block's phases and hands its cross-node queues to this
// driver, the RoundExchange, which moves them as wire frames over a
// CommClient.  The adaptation into asynchronous rounds with explicit sync
// points follows ACP's ac_protocol: a round advances through three
// barriers, each a mark frame that also *counts* the data frames preceding
// it so the barrier is exact even over a reordering transport:
//
//   1. round-status  — exchanged by the driver at round *start*, carrying
//      each block's completion flag (computed from post-previous-round
//      state, matching the engine's check-before-step loop).  All blocks
//      complete, or the round budget spent → the run ends here.
//   2. actions-done  — the kernel's A→B barrier: pull requests and pushes
//      for remote labels sent, remote ones taken in, in sender-label order
//      whatever order they arrived in.
//   3. replies-done  — the kernel's B→C barrier: the replies served for
//      remote pullers (empty ones included) sent, the local pullers'
//      replies taken in.
//
// Charging, delivery order, silence for faulty labels and out-of-range
// diagnostics are the kernel's, so per-node Metrics sum to the engine's and
// the run is the engine's execution bit for bit.  Incoming frames are
// validated here: a request or reply for labels the sender or receiver
// does not own is "misrouted", a reply to no outstanding pull is
// "unsolicited", and either throws.
//
// Loss recovery: on a lossy transport (UDP) any of those frames can simply
// vanish, and before the resend protocol a single lost barrier frame hung
// the whole cluster until the sync timeout.  Now every sent frame is kept
// (encoded) in a two-round send buffer; a driver whose sync point stays
// unsatisfied past resend_interval_ms sends kResendRequest marks to the
// outstanding peers, which replay their buffered frames.  Re-deliveries
// are made idempotent by per-round dedup (an agent acts at most once per
// round, so its label keys its data frame) and frames for finished rounds
// are dropped silently — so retransmission changes nothing about the
// execution.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/comm_client.hpp"
#include "net/wire_frame.hpp"
#include "net/workload.hpp"
#include "sim/engine_core.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace rfc::net {

struct NodeOptions {
  NodeId node_id = 0;
  std::uint32_t num_nodes = 1;
  /// How long a sync-point wait may stall before the driver gives up and
  /// throws (a peer crash would otherwise hang the cluster forever).
  int sync_timeout_ms = 30000;
  /// While a sync point stays unsatisfied, a resend request is sent to each
  /// outstanding peer every `resend_interval_ms` — the recovery path for
  /// lossy transports (UDP), where a dropped barrier frame used to hang the
  /// run until sync_timeout_ms.  Reliable transports never get that far, so
  /// the requests only ever travel when something was actually lost.
  int resend_interval_ms = 150;
  /// After finishing, keep polling this long to answer slower peers' resend
  /// requests: the *final* status broadcast may be dropped, and a node that
  /// exits immediately can no longer retransmit it.  0 (the default) keeps
  /// the exit prompt — right for reliable transports; UDP runs should set a
  /// few resend intervals' worth.
  int linger_ms = 0;
};

struct NodeReport {
  NodeId node_id = 0;
  std::uint32_t first_label = 0;  ///< Local block [first_label, end_label).
  std::uint32_t end_label = 0;
  bool complete = false;          ///< Every block completed (global flag).
  std::uint64_t rounds = 0;       ///< Rounds executed (identical on all nodes).
  /// Locally charged message counters; rounds/virtual_time left zero so the
  /// harness can merge node metrics by plain summation.
  sim::Metrics metrics;
  std::uint64_t state_digest = 0;  ///< FNV-1a over the local block's agents.
};

class NodeDriver final : public CommClientCallback, sim::RoundExchange {
 public:
  /// `workload` and `client` must outlive the driver.
  NodeDriver(const Workload& workload, const NodeOptions& options,
             CommClient& client);

  /// Brings the transport up, runs the workload to completion (or budget),
  /// tears the transport down, and reports the local block's outcome.
  /// Throws std::runtime_error on transport failure, a malformed or
  /// misrouted frame, or a sync-point timeout, and std::out_of_range when
  /// a local agent aims outside [0, n).
  NodeReport run(const std::vector<PeerEndpoint>& peers);

  // CommClientCallback (invoked from inside client.poll()):
  void on_message(NodeId from, const std::uint8_t* data,
                  std::size_t size) override;
  void on_peer_state(NodeId peer, bool connected) override;

 private:
  /// Per-round frame buffers: peers may run up to one stage-cycle ahead, so
  /// everything is bucketed by round and consumed when the local round
  /// catches up.
  struct RoundInbox {
    std::map<NodeId, bool> status;              ///< round-status flags.
    std::map<NodeId, std::uint32_t> actions_announced;
    std::map<NodeId, std::uint32_t> replies_announced;
    std::map<NodeId, std::uint32_t> data_received;     ///< requests + pushes.
    std::map<NodeId, std::uint32_t> replies_received;
    std::vector<Frame> requests;                ///< Pull requests + pushes.
    std::vector<Frame> pull_replies;
    /// Duplicate suppression for retransmitted data frames.  Every agent
    /// performs at most one active operation per round, so its label keys
    /// its request-or-push (and the single reply it is owed) uniquely; mark
    /// frames are idempotent map writes and need no set.
    std::set<sim::AgentId> seen_data;     ///< requests + pushes, by sender.
    std::set<sim::AgentId> seen_replies;  ///< replies, by requester.
  };

  // sim::RoundExchange (invoked from inside the kernel's round):
  void exchange_requests(sim::EngineCore::RoundMail& mail) override;
  void exchange_replies(sim::EngineCore::RoundMail& mail) override;

  /// The round being executed (or, between rounds, about to be).
  std::uint64_t round() const noexcept { return core_.time(); }
  bool block_complete() const;
  std::uint64_t local_digest() const;

  void broadcast(Frame frame);
  void send_frame(NodeId to, const Frame& frame);
  /// Sends `to` the mark frame `kind` for this round; sync marks count the
  /// `count` data frames sent to `to` before it.
  void send_mark(NodeId to, FrameKind kind, std::uint32_t count);
  /// Replays everything already sent to `to` for `round` from the send
  /// buffer (a no-op for pruned or not-yet-reached rounds).
  void answer_resend(NodeId to, std::uint64_t round);
  /// Drops send-buffer rounds below `keep_from` (peers lag at most one
  /// stage cycle, so current-1 is the oldest round anyone can still ask
  /// for — the buffer stays bounded at two rounds of traffic).
  void prune_sent(std::uint64_t keep_from);
  /// Polls until `satisfied(p)` holds for every peer p; throws after
  /// options_.sync_timeout_ms.  A disconnected peer is fatal only while
  /// this barrier still needs something from it: a node that finishes the
  /// run closes its connections while slower peers are still collecting
  /// *other* peers' final frames, and (TCP/loopback being ordered) its own
  /// contribution is guaranteed to have been delivered before its EOF.
  template <typename Satisfied>
  void wait_for(const char* what, Satisfied satisfied);
  /// Waits until every peer's `announced` mark arrived with as many
  /// `received` data frames as it counts.
  void wait_for_counted(
      const char* what,
      std::map<NodeId, std::uint32_t> RoundInbox::*announced,
      std::map<NodeId, std::uint32_t> RoundInbox::*received);

  /// Runs the status barrier; true when every block reports complete.
  bool exchange_status(bool local_complete);

  const Workload* workload_;
  NodeOptions options_;
  CommClient* client_;
  FrameCodec codec_;

  std::uint32_t first_ = 0;               ///< Local block begin.
  std::uint32_t end_ = 0;                 ///< Local block end.
  sim::EngineCore core_;                  ///< Agents of the local block only.
  sim::SchedulerPtr scheduler_;

  std::map<std::uint64_t, RoundInbox> inbox_;
  std::vector<bool> peer_down_;           ///< tcp disconnects, fail-fast.
  /// Encoded frames already sent, by round then destination — the resend
  /// buffer answering kResendRequest.  Pruned to the last two rounds.
  std::map<std::uint64_t, std::map<NodeId, std::vector<std::vector<std::uint8_t>>>>
      sent_frames_;
};

}  // namespace rfc::net
