#include "net/node_driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/engine_view.hpp"
#include "sim/sharding.hpp"

namespace rfc::net {

namespace {

[[noreturn]] void protocol_violation(const char* what, NodeId from,
                                     const Frame& frame) {
  throw std::runtime_error(
      std::string("NodeDriver: ") + what + " (peer " + std::to_string(from) +
      ", " + to_string(frame.kind) + " frame, round " +
      std::to_string(frame.round) + ", agent " + std::to_string(frame.agent) +
      ", target " + std::to_string(frame.target) + ")");
}

}  // namespace

NodeDriver::NodeDriver(const Workload& workload, const NodeOptions& options,
                       CommClient& client)
    : workload_(&workload),
      options_(options),
      client_(&client),
      core_(workload.n, workload.seed, nullptr) {
  const std::uint32_t n = workload_->n;
  if (options_.num_nodes == 0 || options_.node_id >= options_.num_nodes) {
    throw std::invalid_argument("NodeDriver: node_id/num_nodes out of range");
  }
  if (options_.num_nodes > n) {
    throw std::invalid_argument("NodeDriver: more nodes than agents");
  }
  if (!workload_->make_agent || !workload_->agent_complete ||
      !workload_->digest_agent) {
    throw std::invalid_argument("NodeDriver: workload hooks not set");
  }
  const std::string& policy = workload_->scheduler.policy();
  if (policy != "synchronous" && policy != "partial-async") {
    throw std::invalid_argument("NodeDriver: scheduler '" + policy +
                                "' is not round-based");
  }

  codec_.n = n;
  codec_.params = workload_->has_params ? &workload_->params : nullptr;

  first_ = sim::contiguous_block_begin(n, options_.num_nodes,
                                       options_.node_id);
  end_ = sim::contiguous_block_begin(n, options_.num_nodes,
                                     options_.node_id + 1);
  core_.apply_fault_plan(workload_->fault_plan);
  core_.set_round_exchange(this, options_.num_nodes, options_.node_id);
  // Faulty labels get an agent too: they take no callbacks, but their
  // (initial) state is part of the block digest, as in the engine.
  for (std::uint32_t l = first_; l < end_; ++l) {
    std::unique_ptr<sim::Agent> agent = workload_->make_agent(l);
    if (agent == nullptr) {
      throw std::invalid_argument("NodeDriver: make_agent returned null");
    }
    core_.set_agent(l, std::move(agent));
  }
  scheduler_ = workload_->scheduler.make();
  scheduler_->attach(core_);
  peer_down_.assign(options_.num_nodes, false);
}

bool NodeDriver::block_complete() const {
  for (std::uint32_t l = first_; l < end_; ++l) {
    if (!workload_->fault_plan[l] &&
        !workload_->agent_complete(core_.agent(l))) {
      return false;
    }
  }
  return true;
}

std::uint64_t NodeDriver::local_digest() const {
  Fnv1a fnv;
  for (std::uint32_t l = first_; l < end_; ++l) {
    workload_->digest_agent(fnv, core_.agent(l), l, workload_->fault_plan[l]);
  }
  return fnv.value();
}

void NodeDriver::send_frame(NodeId to, const Frame& frame) {
  std::vector<std::uint8_t> bytes = codec_.encode(frame);
  client_->send(to, bytes.data(), bytes.size());
  // Everything except the resend requests themselves is kept for replay;
  // the buffer holds at most two rounds of traffic (see prune_sent).
  if (frame.kind != FrameKind::kResendRequest) {
    sent_frames_[frame.round][to].push_back(std::move(bytes));
  }
}

void NodeDriver::answer_resend(NodeId to, std::uint64_t round) {
  const auto rit = sent_frames_.find(round);
  if (rit == sent_frames_.end()) return;
  const auto pit = rit->second.find(to);
  if (pit == rit->second.end()) return;
  for (const std::vector<std::uint8_t>& bytes : pit->second) {
    client_->send(to, bytes.data(), bytes.size());
  }
}

void NodeDriver::prune_sent(std::uint64_t keep_from) {
  sent_frames_.erase(sent_frames_.begin(),
                     sent_frames_.lower_bound(keep_from));
}

void NodeDriver::send_mark(NodeId to, FrameKind kind, std::uint32_t count) {
  Frame f;
  f.kind = kind;
  f.round = round();
  f.count = count;
  send_frame(to, f);
}

void NodeDriver::broadcast(Frame frame) {
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p != options_.node_id) send_frame(p, frame);
  }
}

void NodeDriver::on_peer_state(NodeId peer, bool connected) {
  if (peer < peer_down_.size() && !connected) peer_down_[peer] = true;
}

void NodeDriver::on_message(NodeId from, const std::uint8_t* data,
                            std::size_t size) {
  if (from >= options_.num_nodes || from == options_.node_id) {
    throw std::runtime_error("NodeDriver: frame from invalid peer " +
                             std::to_string(from));
  }
  auto decoded = codec_.decode(data, size);
  if (!decoded.ok()) {
    throw std::runtime_error(std::string("NodeDriver: bad frame from peer ") +
                             std::to_string(from) + ": " +
                             core::to_string(decoded.error));
  }
  Frame frame = std::move(*decoded.value);
  // Resend requests are answered regardless of round skew: the requester
  // may lag (waiting for frames we already sent) or lead (waiting at the
  // next status barrier for a broadcast we lost).
  if (frame.kind == FrameKind::kResendRequest) {
    answer_resend(from, frame.round);
    return;
  }
  // A frame for an already-finished round is a legitimate duplicate: a
  // retransmission can land after the barrier it was needed for released.
  // Drop it silently (before the inbox lookup — finished rounds are erased
  // and must not be resurrected).
  if (frame.round < round()) return;

  RoundInbox& inbox = inbox_[frame.round];
  switch (frame.kind) {
    case FrameKind::kRoundStatus:
      inbox.status[from] = frame.complete;
      break;
    case FrameKind::kActionsDone:
      inbox.actions_announced[from] = frame.count;
      break;
    case FrameKind::kRepliesDone:
      inbox.replies_announced[from] = frame.count;
      break;
    case FrameKind::kPullRequest:
    case FrameKind::kPush:
      // Messages to faulty labels are charged at the source and never sent.
      if (core_.node_of(frame.agent) != from ||
          core_.node_of(frame.target) != options_.node_id ||
          workload_->fault_plan[frame.target]) {
        protocol_violation(frame.kind == FrameKind::kPush
                               ? "misrouted push"
                               : "misrouted pull request",
                           from, frame);
      }
      if (!inbox.seen_data.insert(frame.agent).second) break;  // Duplicate.
      ++inbox.data_received[from];
      inbox.requests.push_back(std::move(frame));
      break;
    case FrameKind::kPullReply:
      if (core_.node_of(frame.agent) != options_.node_id ||
          core_.node_of(frame.target) != from) {
        protocol_violation("misrouted pull reply", from, frame);
      }
      if (!inbox.seen_replies.insert(frame.agent).second) break;  // Dup.
      ++inbox.replies_received[from];
      inbox.pull_replies.push_back(std::move(frame));
      break;
    case FrameKind::kResendRequest:
      break;  // Handled above; unreachable.
  }
}

template <typename Satisfied>
void NodeDriver::wait_for(const char* what, Satisfied satisfied) {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(
      options_.resend_interval_ms > 0 ? options_.resend_interval_ms : 150);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.sync_timeout_ms);
  // The first resend request waits one full interval: on reliable
  // transports every barrier clears well before that, so the recovery path
  // stays cold unless something was actually lost.
  auto next_resend = Clock::now() + interval;
  const NodeId self = options_.node_id;
  for (;;) {
    bool ready = true;
    bool resend_due = Clock::now() >= next_resend;
    for (NodeId p = 0; p < options_.num_nodes; ++p) {
      if (p == self || satisfied(p)) continue;
      ready = false;
      // Fatal only while p's contribution is outstanding: a peer that
      // finished the run closes its connections, but everything it owed
      // this barrier was delivered before its EOF (ordered transport).
      if (peer_down_[p]) {
        throw std::runtime_error(std::string("NodeDriver: peer ") +
                                 std::to_string(p) +
                                 " disconnected while waiting for " + what +
                                 " (round " + std::to_string(round()) + ")");
      }
      if (resend_due) {
        // Bounded retransmission: ask p to replay this round's frames.  The
        // request itself may be lost too — it repeats every interval until
        // the barrier clears or the sync timeout trips.
        send_mark(p, FrameKind::kResendRequest, 0);
      }
    }
    if (ready) return;
    if (resend_due) next_resend = Clock::now() + interval;
    if (Clock::now() >= deadline) {
      throw std::runtime_error(std::string("NodeDriver: timed out waiting "
                                           "for ") +
                               what + " (round " + std::to_string(round()) +
                               ")");
    }
    client_->poll(50);
  }
}

void NodeDriver::wait_for_counted(
    const char* what, std::map<NodeId, std::uint32_t> RoundInbox::*announced,
    std::map<NodeId, std::uint32_t> RoundInbox::*received) {
  wait_for(what, [&](NodeId p) {
    RoundInbox& inbox = inbox_[round()];
    const auto it = (inbox.*announced).find(p);
    return it != (inbox.*announced).end() &&
           (inbox.*received)[p] >= it->second;
  });
}

bool NodeDriver::exchange_status(bool local_complete) {
  Frame status;
  status.kind = FrameKind::kRoundStatus;
  status.round = round();
  status.complete = local_complete;
  broadcast(status);
  wait_for("round-status", [&](NodeId p) {
    return inbox_[round()].status.count(p) != 0;
  });
  bool complete = local_complete;
  for (const auto& [peer, flag] : inbox_[round()].status) complete &= flag;
  return complete;
}

void NodeDriver::exchange_requests(sim::EngineCore::RoundMail& mail) {
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == options_.node_id) continue;
    Frame f;
    f.round = round();
    f.kind = FrameKind::kPullRequest;
    for (const sim::EngineCore::PullEntry& e : mail.pulls_to(p)) {
      f.agent = e.from;
      f.target = e.to;
      send_frame(p, f);
    }
    f.kind = FrameKind::kPush;
    for (const sim::EngineCore::PushEntry& e : mail.pushes_to(p)) {
      f.agent = e.from;
      f.target = e.to;
      f.payload = e.payload;
      send_frame(p, f);
    }
    send_mark(p, FrameKind::kActionsDone,
              static_cast<std::uint32_t>(mail.pulls_to(p).size() +
                                         mail.pushes_to(p).size()));
  }
  wait_for_counted("actions-done", &RoundInbox::actions_announced,
                   &RoundInbox::data_received);

  // Blocks are contiguous, so sender-label order is also source-node order
  // — the order the kernel drains its queues in.
  std::vector<Frame>& requests = inbox_[round()].requests;
  std::sort(requests.begin(), requests.end(),
            [](const Frame& a, const Frame& b) { return a.agent < b.agent; });
  for (Frame& f : requests) {
    if (f.kind == FrameKind::kPush) {
      mail.add_push(f.agent, f.target, std::move(f.payload));
    } else {
      mail.add_pull(f.agent, f.target);
    }
  }
}

void NodeDriver::exchange_replies(sim::EngineCore::RoundMail& mail) {
  std::size_t outstanding = 0;
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == options_.node_id) continue;
    outstanding += mail.pulls_to(p).size();
    const auto served = mail.pulls_from(p);
    Frame f;
    f.kind = FrameKind::kPullReply;
    f.round = round();
    for (std::size_t k = 0; k < served.size(); ++k) {
      f.agent = served[k].from;
      f.target = served[k].to;
      f.payload = mail.take_reply(p, k);
      send_frame(p, f);
    }
    send_mark(p, FrameKind::kRepliesDone,
              static_cast<std::uint32_t>(served.size()));
  }
  wait_for_counted("replies-done", &RoundInbox::replies_announced,
                   &RoundInbox::replies_received);

  std::vector<Frame>& replies = inbox_[round()].pull_replies;
  for (Frame& f : replies) {
    if (!mail.post_reply(f.agent, f.target, std::move(f.payload))) {
      protocol_violation("unsolicited pull reply", core_.node_of(f.target),
                         f);
    }
  }
  if (replies.size() != outstanding) {
    throw std::runtime_error(
        "NodeDriver: " + std::to_string(outstanding - replies.size()) +
        " pull replies missing in round " + std::to_string(round()));
  }
  inbox_.erase(round());
}

NodeReport NodeDriver::run(const std::vector<PeerEndpoint>& peers) {
  if (peers.size() != options_.num_nodes) {
    throw std::invalid_argument("NodeDriver: peer table size mismatch");
  }
  client_->start(options_.node_id, peers, *this);

  bool global_complete = false;
  try {
    core_.ensure_started();
    // The engine's check-before-step loop: completion is evaluated (here:
    // agreed on, via the status barrier) before a round may execute, and
    // the round budget caps executed rounds.
    for (;;) {
      global_complete = exchange_status(block_complete());
      if (global_complete) break;
      if (workload_->max_rounds != 0 && round() >= workload_->max_rounds) {
        break;
      }
      scheduler_->step(core_, sim::EngineView(core_));
      // Peers lag at most one stage cycle, so nothing older than the
      // previous round can still be resend-requested.
      prune_sent(round() - 1);
    }
    // Lossy transports: the final status broadcast may have been dropped,
    // and once this node stops it can no longer answer the slower peers'
    // resend requests — so linger briefly, still polling (on_message keeps
    // replaying from the send buffer).
    if (options_.linger_ms > 0) {
      using Clock = std::chrono::steady_clock;
      const auto linger_deadline =
          Clock::now() + std::chrono::milliseconds(options_.linger_ms);
      while (Clock::now() < linger_deadline) client_->poll(20);
    }
  } catch (...) {
    client_->stop();
    throw;
  }
  client_->stop();

  NodeReport report;
  report.node_id = options_.node_id;
  report.first_label = first_;
  report.end_label = end_;
  report.complete = global_complete;
  report.rounds = round();
  // Message counters only: the harness sums node metrics.
  report.metrics = core_.metrics();
  report.metrics.rounds = 0;
  report.state_digest = local_digest();
  return report;
}

}  // namespace rfc::net
