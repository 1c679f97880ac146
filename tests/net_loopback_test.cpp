// Loopback transport: the distributed node protocol must be *bit-identical*
// to the in-memory engine.  The loopback backend has no network
// nondeterminism, so any divergence here is a protocol bug in the
// NodeDriver, not a flaky socket — which is what makes these the tier-1
// guards of the transport layer.
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/harness.hpp"
#include "net/loopback.hpp"
#include "net/lossy_client.hpp"
#include "net/node_driver.hpp"
#include "net/wire_frame.hpp"
#include "net/workload.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace rfc::net {
namespace {

ClusterSpec rumor_spec(std::uint32_t num_nodes, std::uint32_t num_faulty,
                       const char* scheduler = "synchronous") {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kRumor;
  spec.num_nodes = num_nodes;
  spec.rumor.n = 48;
  spec.rumor.seed = 1234;
  spec.rumor.mechanism = gossip::Mechanism::kPushPull;
  spec.rumor.num_faulty = num_faulty;
  spec.rumor.placement = num_faulty == 0 ? sim::FaultPlacement::kNone
                                         : sim::FaultPlacement::kRandom;
  spec.rumor.scheduler = sim::SchedulerSpec::parse(scheduler);
  return spec;
}

ClusterSpec protocol_spec(std::uint32_t num_nodes, std::uint32_t num_faulty,
                          const char* scheduler = "synchronous") {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kProtocol;
  spec.num_nodes = num_nodes;
  spec.protocol.n = 48;
  spec.protocol.seed = 99;
  spec.protocol.num_faulty = num_faulty;
  spec.protocol.placement = num_faulty == 0 ? sim::FaultPlacement::kNone
                                            : sim::FaultPlacement::kRandom;
  spec.protocol.scheduler = sim::SchedulerSpec::parse(scheduler);
  return spec;
}

TEST(LoopbackHub, DeliversFifoPerSenderAndValidatesDestinations) {
  LoopbackHub hub(3);
  const std::uint8_t a = 1, b = 2;
  hub.post(0, 2, &a, 1);
  hub.post(1, 2, &b, 1);
  hub.post(0, 2, &b, 1);
  const auto drained = hub.drain(2, 0);
  ASSERT_EQ(drained.size(), 3u);
  // FIFO within each (sender, receiver) pair.
  std::vector<std::uint8_t> from0;
  for (const auto& [from, bytes] : drained) {
    if (from == 0) from0.push_back(bytes.at(0));
  }
  ASSERT_EQ(from0.size(), 2u);
  EXPECT_EQ(from0[0], a);
  EXPECT_EQ(from0[1], b);
  EXPECT_TRUE(hub.drain(2, 0).empty());
  EXPECT_THROW(hub.post(0, 3, &a, 1), std::invalid_argument);
}

TEST(ClusterWorkload, RejectsActivationBasedSchedulers) {
  // The node protocol reproduces the engine's *round-based* phases; an
  // activation-based policy has no distributed counterpart and must be
  // rejected up front rather than silently diverging.
  ClusterSpec spec = rumor_spec(2, 0, "sequential");
  EXPECT_THROW(make_cluster_workload(spec), std::invalid_argument);
}

TEST(LoopbackCluster, RumorMatchesEngineAcrossNodeCounts) {
  for (const std::uint32_t nodes : {1u, 2u, 3u, 5u}) {
    EXPECT_EQ(cross_check_local(rumor_spec(nodes, 0), TransportKind::kLoopback),
              "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, RumorWithFaultsMatchesEngine) {
  for (const std::uint32_t nodes : {2u, 4u}) {
    EXPECT_EQ(
        cross_check_local(rumor_spec(nodes, 6), TransportKind::kLoopback), "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, ProtocolMatchesEngineAcrossNodeCounts) {
  for (const std::uint32_t nodes : {1u, 3u}) {
    EXPECT_EQ(
        cross_check_local(protocol_spec(nodes, 0), TransportKind::kLoopback),
        "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, ProtocolWithFaultsMatchesEngine) {
  EXPECT_EQ(cross_check_local(protocol_spec(4, 4), TransportKind::kLoopback),
            "");
}

TEST(LoopbackCluster, PartialAsyncSchedulerMatchesEngine) {
  // The shared Bernoulli awake-mask stream must stay aligned across blocks:
  // every node draws the full n-label mask per round.
  EXPECT_EQ(cross_check_local(rumor_spec(3, 4, "partial-async:p=0.5"),
                              TransportKind::kLoopback),
            "");
  EXPECT_EQ(cross_check_local(protocol_spec(3, 0, "partial-async:p=0.75"),
                              TransportKind::kLoopback),
            "");
}

TEST(LoopbackCluster, RunsAreBitReproducible) {
  // Same spec, two runs: identical digests and metrics — the loopback
  // transport adds no nondeterminism on top of the seeded workload.
  const ClusterSpec spec = rumor_spec(3, 6);
  const Workload wl = make_cluster_workload(spec);
  const ClusterResult a =
      merge_reports(wl, run_local_cluster(spec, TransportKind::kLoopback));
  const ClusterResult b =
      merge_reports(wl, run_local_cluster(spec, TransportKind::kLoopback));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.block_digests, b.block_digests);
  EXPECT_EQ(cross_check(a, b), "");
}

// --------------------------------------------------------------------------
// Loss regression: before the resend protocol, ONE lost sync frame hung the
// cluster until the sync timeout (the bug src/net/socket_client.hpp used to
// document).  These tests inject loss deterministically through the lossy
// decorator and require the run to terminate promptly AND stay
// bit-identical to the engine — retransmission must recover the execution,
// not merely unblock it.
// --------------------------------------------------------------------------

namespace {

/// Runs `spec` on a loopback hub where node 0's outgoing frames go through
/// `drop`; all nodes resend aggressively so a recovered run still finishes
/// fast.  Returns the cross_check mismatch ("" = clean).
std::string run_lossy_cluster(ClusterSpec spec,
                              const LossyCommClient::DropFn& drop,
                              int linger_ms = 0) {
  spec.sync_timeout_ms = 20000;  // The hang guard, not the recovery path.
  spec.resend_interval_ms = 25;
  spec.linger_ms = linger_ms;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    CommClientPtr inner = make_comm_client(TransportKind::kLoopback, &hub);
    if (id != 0) return inner;
    return CommClientPtr(std::make_unique<LossyCommClient>(
        std::move(inner), drop));
  });
  return cross_check(merge_reports(wl, reports), reference_result(spec));
}

/// Drops the first outgoing frame of the given kind, once.
LossyCommClient::DropFn drop_first(FrameKind kind) {
  auto dropped = std::make_shared<std::atomic<bool>>(false);
  return [kind, dropped](NodeId, const std::uint8_t* data, std::size_t size) {
    if (size < 2 || data[0] != 0xC5) return false;
    if (data[1] != static_cast<std::uint8_t>(kind)) return false;
    return !dropped->exchange(true);
  };
}

}  // namespace

TEST(LossyCluster, DroppedSyncFrameNoLongerHangsTheBarrier) {
  // Each sync kind in turn: the round-start status, the actions-done mark,
  // and the replies-done mark.  Any of these lost used to deadlock the
  // wait_for loop; the resend request must now recover it within a couple
  // of 25 ms resend intervals, far inside the test timeout.
  for (const FrameKind kind :
       {FrameKind::kRoundStatus, FrameKind::kActionsDone,
        FrameKind::kRepliesDone}) {
    EXPECT_EQ(run_lossy_cluster(rumor_spec(3, 0), drop_first(kind)), "")
        << to_string(kind);
  }
}

TEST(LossyCluster, DroppedDataFrameRecoveredExactly) {
  // Data frames (pull request / reply / push) carry the execution itself;
  // a lost one must be replayed from the send buffer and the run stay
  // bit-identical — the count-carrying sync marks make the wait exact.
  for (const FrameKind kind : {FrameKind::kPullRequest, FrameKind::kPullReply,
                               FrameKind::kPush}) {
    EXPECT_EQ(run_lossy_cluster(protocol_spec(3, 0), drop_first(kind)), "")
        << to_string(kind);
  }
}

TEST(LossyCluster, SeededRandomLossStaysBitIdentical) {
  // 10% independent loss on every node's outgoing frames (each node seeded
  // separately).  Lingering covers the final status broadcast — the one
  // frame whose loss only the sender-side linger can answer for.
  ClusterSpec spec = rumor_spec(3, 6);
  spec.sync_timeout_ms = 20000;
  spec.resend_interval_ms = 25;
  spec.linger_ms = 500;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    return make_lossy_client(
        make_comm_client(TransportKind::kLoopback, &hub), 0.10,
        rfc::support::derive_seed(4242, id));
  });
  EXPECT_EQ(cross_check(merge_reports(wl, reports), reference_result(spec)),
            "");
}

TEST(ClusterWorkload, RejectsNonInertNetworkSpecs) {
  // The simulated message adversary lives in the engine; transport runs
  // must refuse it rather than silently running two different experiments
  // on the two sides of the cross-check.
  ClusterSpec spec = rumor_spec(2, 0);
  spec.rumor.network = sim::NetworkSpec::parse("network:drop=0.25");
  EXPECT_THROW(make_cluster_workload(spec), std::invalid_argument);
  // The inert spec (the default) stays accepted.
  spec.rumor.network = sim::NetworkSpec::none();
  EXPECT_EQ(cross_check_local(spec, TransportKind::kLoopback), "");
}

TEST(MergeReports, RejectsInconsistentReportSets) {
  const ClusterSpec spec = rumor_spec(2, 0);
  const Workload wl = make_cluster_workload(spec);
  std::vector<NodeReport> reports =
      run_local_cluster(spec, TransportKind::kLoopback);
  ASSERT_EQ(reports.size(), 2u);

  std::vector<NodeReport> duplicated = reports;
  duplicated[1] = duplicated[0];
  EXPECT_THROW(merge_reports(wl, duplicated), std::runtime_error);

  std::vector<NodeReport> disagreeing = reports;
  disagreeing[1].rounds += 1;
  EXPECT_THROW(merge_reports(wl, disagreeing), std::runtime_error);

  std::vector<NodeReport> missing(reports.begin(), reports.begin() + 1);
  EXPECT_THROW(merge_reports(wl, missing), std::runtime_error);
}

// --------------------------------------------------------------------------
// Safety paths: a node's round fails loudly — with the failing node's own
// diagnostic — instead of hanging or returning a wrong total.  Peers of the
// failing node only time out, so every run here uses a short sync timeout
// and the harness rethrows the first failure in time.
// --------------------------------------------------------------------------

namespace {

constexpr int kFailFastTimeoutMs = 1000;

/// Idle, except that agent `stray` pulls label n in round 2.
class StrayAgent final : public sim::Agent {
 public:
  explicit StrayAgent(bool stray) noexcept : stray_(stray) {}
  sim::Action on_round(const sim::Context& ctx) override {
    if (!stray_ || ctx.round != 2) return sim::Action::idle();
    return sim::Action::pull(ctx.n);
  }
  sim::Payload serve_pull(const sim::Context&, sim::AgentId) override {
    return {};
  }
  bool done() const override { return false; }

 private:
  bool stray_;
};

/// A CommClient decorator that hands every outgoing frame to `rewrite`,
/// which returns the frames to put on the wire instead (decoded, so a test
/// can re-target or inject frames of any kind).
class RewritingClient final : public CommClient {
 public:
  using RewriteFn = std::function<std::vector<Frame>(NodeId to, Frame frame)>;

  RewritingClient(CommClientPtr inner, FrameCodec codec, RewriteFn rewrite)
      : inner_(std::move(inner)), codec_(codec), rewrite_(std::move(rewrite)) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    auto decoded = codec_.decode(data, size);
    ASSERT_TRUE(decoded.ok());
    for (const Frame& frame : rewrite_(to, std::move(*decoded.value))) {
      const std::vector<std::uint8_t> bytes = codec_.encode(frame);
      inner_->send(to, bytes.data(), bytes.size());
    }
  }
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

 private:
  CommClientPtr inner_;
  FrameCodec codec_;
  RewriteFn rewrite_;
};

/// Runs `spec` on a loopback hub with node `victim`'s outgoing frames
/// passed through `rewrite`.
void run_rewritten_cluster(ClusterSpec spec, NodeId victim,
                           RewritingClient::RewriteFn rewrite) {
  spec.sync_timeout_ms = kFailFastTimeoutMs;
  FrameCodec codec;
  codec.n = spec.rumor.n;
  LoopbackHub hub(spec.num_nodes);
  run_local_cluster(spec, [&](NodeId id) {
    CommClientPtr inner = make_comm_client(TransportKind::kLoopback, &hub);
    if (id != victim) return inner;
    return CommClientPtr(
        std::make_unique<RewritingClient>(std::move(inner), codec, rewrite));
  });
}

/// The message of the std::runtime_error `run` throws ("" if none).
std::string runtime_error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ClusterSafety, OutOfRangeTargetNamesAgentRoundAndPhase) {
  // Agent 20 (node 1 of 3) aims its round-2 pull at label n.  The node runs
  // the engine's kernel, so it throws the engine's std::out_of_range; its
  // peers merely time out waiting for it.
  const std::uint32_t num_nodes = 3;
  Workload wl = make_cluster_workload(rumor_spec(num_nodes, 0));
  wl.max_rounds = 10;
  wl.make_agent = [](sim::AgentId label) {
    return std::make_unique<StrayAgent>(label == 20);
  };
  wl.agent_complete = [](const sim::Agent&) { return false; };
  wl.digest_agent = [](Fnv1a&, const sim::Agent&, sim::AgentId, bool) {};

  LoopbackHub hub(num_nodes);
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  for (NodeId id = 0; id < num_nodes; ++id) {
    threads.emplace_back([&, id] {
      try {
        const CommClientPtr client =
            make_comm_client(TransportKind::kLoopback, &hub);
        NodeOptions options;
        options.node_id = id;
        options.num_nodes = num_nodes;
        options.sync_timeout_ms = kFailFastTimeoutMs;
        NodeDriver(wl, options, *client)
            .run(std::vector<PeerEndpoint>(num_nodes));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(first_error, nullptr);
  try {
    std::rethrow_exception(first_error);
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("agent 20 "), std::string::npos) << what;
    EXPECT_NE(what.find("label 48 "), std::string::npos) << what;
    EXPECT_NE(what.find("round 2"), std::string::npos) << what;
    EXPECT_NE(what.find("phase A"), std::string::npos) << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected std::out_of_range, got: " << e.what();
  }
}

TEST(ClusterSafety, MisroutedRequestIsRejected) {
  // Node 0 re-targets its first cross-node pull request (then, its first
  // push) at label 0 — its own label, which the receiving node does not
  // own.  The receiver must refuse the frame.
  for (const FrameKind kind : {FrameKind::kPullRequest, FrameKind::kPush}) {
    auto done = std::make_shared<bool>(false);
    const std::string what = runtime_error_of([&] {
      run_rewritten_cluster(rumor_spec(3, 0), 0,
                            [kind, done](NodeId, Frame frame) {
                              if (frame.kind == kind && !*done) {
                                frame.target = 0;
                                *done = true;
                              }
                              return std::vector<Frame>{std::move(frame)};
                            });
    });
    EXPECT_NE(what.find("misrouted"), std::string::npos)
        << to_string(kind) << ": " << what;
  }
}

TEST(ClusterSafety, UnsolicitedReplyIsRejected) {
  // The owner of a faulty label injects a pull reply from it to another
  // node's first label, ahead of its first actions-done mark to that node.
  // No pull is ever routed to a faulty label, so nobody asked for it.
  const ClusterSpec spec = rumor_spec(3, 6);
  const Workload wl = make_cluster_workload(spec);
  sim::AgentId faulty = 0;
  while (!wl.fault_plan.at(faulty)) ++faulty;
  const NodeId owner = faulty * spec.num_nodes / wl.n;
  const NodeId to = (owner + 1) % spec.num_nodes;
  const sim::AgentId requester = to * wl.n / spec.num_nodes;
  auto done = std::make_shared<bool>(false);
  const std::string what = runtime_error_of([&] {
    run_rewritten_cluster(
        spec, owner, [=](NodeId dest, Frame frame) {
          std::vector<Frame> out;
          if (dest == to && frame.kind == FrameKind::kActionsDone && !*done) {
            Frame reply;
            reply.kind = FrameKind::kPullReply;
            reply.round = frame.round;
            reply.agent = requester;
            reply.target = faulty;
            out.push_back(reply);
            *done = true;
          }
          out.push_back(std::move(frame));
          return out;
        });
  });
  EXPECT_NE(what.find("unsolicited"), std::string::npos) << what;
}

}  // namespace
}  // namespace rfc::net
