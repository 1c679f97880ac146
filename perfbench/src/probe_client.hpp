// A measuring CommClient decorator, in the shape of net::LossyCommClient:
// it wraps any backend, passes every call through unchanged, and records
// the transport-layer numbers of one node into a NodeStats the benchmark
// owns.  Installed through net::run_local_cluster's ClientFactory hook.
//
// Counts (frames, bytes, resend requests) are kept on every run; the
// timers around send(), poll() and the callback's on_message() only when
// `traced`.  Each node's client lives on that node's driver thread, so a
// NodeStats has one writer; the benchmark reads it after the threads join.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "net/comm_client.hpp"
#include "net/wire_frame.hpp"

namespace perfbench {

struct NodeStats {
  Clock::time_point started{};  ///< When start() returned.
  Clock::time_point stopped{};  ///< When stop() was first called.
  std::uint64_t frames = 0;     ///< Frames sent.
  std::uint64_t bytes = 0;      ///< Bytes sent.
  std::uint64_t resend_requests = 0;
  // Traced runs only.
  double send_s = 0.0;    ///< Inside the backend's send().
  double poll_s = 0.0;    ///< Inside the backend's poll(), handling included.
  double handle_s = 0.0;  ///< Inside the driver's on_message().
  /// (round, time) of the first round-status frame sent for each round:
  /// the round boundaries as this node sees them.
  std::vector<std::pair<std::uint64_t, Clock::time_point>> round_starts;
};

class ProbeClient final : public rfc::net::CommClient,
                          private rfc::net::CommClientCallback {
 public:
  ProbeClient(rfc::net::CommClientPtr inner, NodeStats& stats, bool traced,
              const rfc::net::FrameCodec& codec)
      : inner_(std::move(inner)), stats_(&stats), traced_(traced),
        codec_(&codec) {}

  ProbeClient(const ProbeClient&) = delete;
  ProbeClient& operator=(const ProbeClient&) = delete;

  const char* name() const noexcept override { return inner_->name(); }

  void start(rfc::net::NodeId self,
             const std::vector<rfc::net::PeerEndpoint>& peers,
             rfc::net::CommClientCallback& callback) override {
    callback_ = &callback;
    inner_->start(self, peers, traced_ ? *this : callback);
    stats_->started = Clock::now();
  }

  void stop() override {
    if (stats_->stopped == Clock::time_point{}) stats_->stopped = Clock::now();
    inner_->stop();
  }

  void send(rfc::net::NodeId to, const std::uint8_t* data,
            std::size_t size) override {
    ++stats_->frames;
    stats_->bytes += size;
    const auto kind = size > 1 ? data[1] : std::uint8_t{0};
    if (kind == static_cast<std::uint8_t>(
                    rfc::net::FrameKind::kResendRequest)) {
      ++stats_->resend_requests;
    }
    if (!traced_) {
      inner_->send(to, data, size);
      return;
    }
    if (kind == static_cast<std::uint8_t>(rfc::net::FrameKind::kRoundStatus)) {
      note_round_status(data, size);
    }
    const Clock::time_point t0 = Clock::now();
    inner_->send(to, data, size);
    stats_->send_s += seconds_since(t0);
  }

  std::size_t poll(int timeout_ms) override {
    if (!traced_) return inner_->poll(timeout_ms);
    const Clock::time_point t0 = Clock::now();
    const std::size_t delivered = inner_->poll(timeout_ms);
    stats_->poll_s += seconds_since(t0);
    return delivered;
  }

 private:
  void on_message(rfc::net::NodeId from, const std::uint8_t* data,
                  std::size_t size) override {
    const Clock::time_point t0 = Clock::now();
    callback_->on_message(from, data, size);
    stats_->handle_s += seconds_since(t0);
  }

  void on_peer_state(rfc::net::NodeId peer, bool connected) override {
    callback_->on_peer_state(peer, connected);
  }

  void note_round_status(const std::uint8_t* data, std::size_t size) {
    const auto frame = codec_->decode(data, size);
    if (!frame.ok()) return;  // The receiving driver reports bad frames.
    const std::uint64_t round = frame.value->round;
    if (stats_->round_starts.empty() ||
        stats_->round_starts.back().first < round) {
      stats_->round_starts.emplace_back(round, Clock::now());
    }
  }

  rfc::net::CommClientPtr inner_;
  NodeStats* stats_;
  bool traced_;
  const rfc::net::FrameCodec* codec_;
  rfc::net::CommClientCallback* callback_ = nullptr;
};

}  // namespace perfbench
