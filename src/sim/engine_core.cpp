#include "sim/engine_core.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/sharding.hpp"
#include "support/math_util.hpp"
#include "support/thread_pool.hpp"

namespace rfc::sim {

EngineCore::EngineCore(std::uint32_t n, std::uint64_t seed,
                       TopologyPtr topology)
    : n_(n),
      pull_request_bits_(rfc::support::bit_width_for_domain(n)),
      seed_(seed),
      topology_(std::move(topology)) {
  if (n_ == 0) throw std::invalid_argument("Engine: n must be positive");
  agents_.resize(n_);
  faulty_.assign(n_, 0);
}

void EngineCore::allocate_rngs() {
  rngs_.assign(n_, rfc::support::Xoshiro256(
                       rfc::support::Xoshiro256::Unseeded{}));
}

void EngineCore::seed_rng_block(std::uint32_t lo, std::uint32_t hi) noexcept {
  for (std::uint32_t i = lo; i < hi; ++i) {
    rngs_[i].seed(rfc::support::derive_seed(seed_, i));
  }
}

void EngineCore::set_agent(AgentId id, std::unique_ptr<Agent> agent) {
  agents_.at(id) = std::move(agent);
}

void EngineCore::set_faulty(AgentId id, bool faulty) {
  if (started_) {
    throw std::logic_error("Engine: fault plan is permanent; set before run");
  }
  if ((faulty_.at(id) != 0) != faulty) {
    faulty_[id] = faulty ? 1 : 0;
    num_faulty_ += faulty ? 1u : -1u;
  }
}

void EngineCore::apply_fault_plan(const std::vector<bool>& plan) {
  if (plan.size() != n_) {
    throw std::invalid_argument("Engine: fault plan size mismatch");
  }
  for (std::uint32_t i = 0; i < n_; ++i) set_faulty(i, plan[i]);
}

void EngineCore::set_round_exchange(RoundExchange* exchange,
                                    std::uint32_t nodes, std::uint32_t local) {
  if (started_) {
    throw std::logic_error(
        "Engine: the round exchange is part of the run setup; set before run");
  }
  if (nodes == 0 || nodes > n_ || local >= nodes) {
    throw std::invalid_argument("Engine: node partition out of range");
  }
  exchange_ = exchange;
  local_node_ = local;
  node_begin_.resize(nodes + 1);
  for (std::uint32_t b = 0; b <= nodes; ++b) {
    node_begin_[b] = contiguous_block_begin(n_, nodes, b);
  }
  node_of_.resize(n_);
  for (std::uint32_t b = 0; b < nodes; ++b) {
    for (std::uint32_t i = node_begin_[b]; i < node_begin_[b + 1]; ++i) {
      node_of_[i] = b;
    }
  }
}

void EngineCore::set_network(NetworkModelPtr network) {
  if (started_) {
    throw std::logic_error(
        "Engine: the network model is part of the run setup; set before run");
  }
  network_ = std::move(network);
  net_msgs_ = network_ != nullptr && network_->message_faults();
  net_churn_ = network_ != nullptr && network_->has_churn();
  if (net_churn_) down_until_.assign(n_, 0);
}

void EngineCore::advance_churn(std::uint64_t epoch) {
  if (!net_churn_) return;
  net_epoch_ = epoch;
  // Sweep every epoch exactly once even if the caller's clock jumps (the
  // sequential path advances the epoch every n steps), so crash verdicts
  // are a function of the epoch alone, not of how it was reached.
  while (churn_unswept_ <= epoch) {
    const std::uint64_t e = churn_unswept_++;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (faulty_[i] != 0 || down_until_[i] > e) continue;
      if (network_->crashes(e, i)) {
        const std::uint64_t rejoin = network_->rates().rejoin;
        down_until_[i] = rejoin == 0
                             ? std::numeric_limits<std::uint64_t>::max()
                             : e + rejoin;
        ++metrics_.churn_crashes;
      }
    }
  }
}

inline void EngineCore::deliver_push(AgentId sender, AgentId target,
                                     const Payload& payload, Context& ctx) {
  if (faulty_[target] != 0 || is_down(target)) return;
  agents_[target]->on_push(aim(ctx, target), sender, payload);
}

void EngineCore::net_push(AgentId sender, AgentId target,
                          const Payload& payload, Metrics& metrics,
                          Context& ctx, NetSinks sinks) {
  const NetworkModel& net = *network_;
  const std::uint64_t now = time_;
  if (net.drop(NetMessage::kPush, now, sender, target)) {
    ++metrics.net_drops;  // Charged at send, lost in transit.
    return;
  }
  const Payload* body = &payload;
  Payload tampered;
  if (net.corrupt(NetMessage::kPush, now, sender, target)) {
    tampered = corrupt_payload(payload, net.corrupt_salt(now, sender, target));
    if (!tampered.empty()) {
      ++metrics.net_corruptions;  // Only metered when bits actually flipped.
      body = &tampered;
    }
  }
  if (sinks.delayed != nullptr) {
    const std::uint64_t d = net.delay_of(now, sender, target);
    if (d > 0) {
      Payload kept = clone_payload(*body);
      if (!kept.empty() || body->empty()) {
        ++metrics.net_delays;
        sinks.delayed->push_back(
            DelayedPush{now + d, now, sender, target, std::move(kept)});
        return;
      }
      // Unclonable across rounds (an arena-boxed tag with no registered
      // clone hook): fall through and deliver this round instead.
    }
  }
  if (sinks.deferred != nullptr && net.reorder(now, sender, target)) {
    // Same-round payloads survive until the next barrier reset, so no
    // clone is needed here.
    ++metrics.net_delays;
    sinks.deferred->push_back(DelayedPush{now, now, sender, target, *body});
    return;
  }
  const bool dup = net.duplicate(now, sender, target);
  if (dup) ++metrics.net_dups;
  deliver_push(sender, target, *body, ctx);
  if (dup) deliver_push(sender, target, *body, ctx);
}

void EngineCore::deliver_due_delayed(Context& ctx) {
  if (net_delayed_.empty()) return;
  std::vector<DelayedPush> due;
  std::size_t w = 0;
  for (DelayedPush& e : net_delayed_) {
    if (e.due <= time_) {
      due.push_back(std::move(e));
    } else {
      net_delayed_[w++] = std::move(e);
    }
  }
  net_delayed_.resize(w);
  if (due.empty()) return;
  // (origin round, sender) is unique per delayed push — a total order, so
  // delivery cannot depend on how the pending list was accumulated.
  std::sort(due.begin(), due.end(),
            [](const DelayedPush& a, const DelayedPush& b) {
              return a.origin != b.origin ? a.origin < b.origin
                                          : a.sender < b.sender;
            });
  for (const DelayedPush& e : due) {
    deliver_push(e.sender, e.target, e.payload, ctx);
    note_activation(e.target, flips_);
  }
}

void EngineCore::flush_deferred(std::vector<DelayedPush>& batch,
                                Context& ctx) {
  if (batch.empty()) return;
  // Senders are unique within a round (one action per agent), so sender
  // label is a total order independent of the shard and block geometry.
  std::sort(batch.begin(), batch.end(),
            [](const DelayedPush& a, const DelayedPush& b) {
              return a.sender < b.sender;
            });
  for (const DelayedPush& e : batch) {
    deliver_push(e.sender, e.target, e.payload, ctx);
    note_activation(e.target, flips_);
  }
  batch.clear();
}

void EngineCore::settle_done(std::vector<AgentId>& flips) {
  // Each label flips at most once (done() is final), so no entry repeats.
  num_done_ += static_cast<std::uint32_t>(flips.size());
  done_log_.insert(done_log_.end(), flips.begin(), flips.end());
  flips.clear();
}

bool EngineCore::all_done() const {
  if (started_) return num_done_ == n_ - num_faulty_;
  // Engine::run asks before the first step builds the caches.
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (faulty_[i] == 0 && !agents_[i]->done()) return false;
  }
  return true;
}

AgentPhase EngineCore::agent_phase(AgentId id) const {
  if (!started_) return agents_[id]->phase();
  if ((obs_valid_[id] & kPhaseValid) == 0) {
    phase_cache_[id] = agents_[id]->phase();
    obs_valid_[id] |= kPhaseValid;
  }
  return phase_cache_[id];
}

double EngineCore::agent_progress(AgentId id) const {
  if (!started_) return agents_[id]->progress();
  if ((obs_valid_[id] & kProgressValid) == 0) {
    progress_cache_[id] = agents_[id]->progress();
    obs_valid_[id] |= kProgressValid;
  }
  return progress_cache_[id];
}

std::vector<AgentId> EngineCore::active_labels() const {
  std::vector<AgentId> labels;
  active_labels(labels);
  return labels;
}

void EngineCore::active_labels(std::vector<AgentId>& out) const {
  out.clear();
  out.reserve(num_active());
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (faulty_[i] == 0) out.push_back(i);
  }
}

void EngineCore::ensure_arenas(std::uint32_t count) {
  while (arenas_.size() < count) {
    arenas_.push_back(std::make_unique<support::Arena>());
  }
}

void EngineCore::reset_round_arenas() noexcept {
  for (auto& arena : arenas_) arena->reset();
}

Context EngineCore::make_context(AgentId id) noexcept {
  return make_context(id, serial_arena());
}

Context EngineCore::make_context(AgentId id, support::Arena* arena) noexcept {
  Context ctx;
  ctx.self = id;
  ctx.n = n_;
  ctx.round = time_;
  ctx.rng = &rngs_[id];
  ctx.topology = topology_.get();
  ctx.arena = arena;
  return ctx;
}

void EngineCore::ensure_started() {
  if (started_) return;
  // A node of a distributed run holds (and starts) its own block only.
  const std::uint32_t lo = local_begin();
  const std::uint32_t hi = local_end();
  if (!rngs_seeded_) {  // The sharded executor may have prefetched already.
    allocate_rngs();
    seed_rng_block(lo, hi);
    rngs_seeded_ = true;
  }
  ensure_arenas(1);
  for (std::uint32_t i = lo; i < hi; ++i) {
    if (agents_[i] == nullptr) {
      throw std::logic_error("Engine: agent " + std::to_string(i) +
                             " not installed");
    }
  }
  for (std::uint32_t i = lo; i < hi; ++i) {
    if (faulty_[i] == 0) {
      const Context ctx = make_context(i, serial_arena());
      agents_[i]->on_start(ctx);
    }
  }
  done_.assign(n_, 0);
  obs_valid_.assign(n_, 0);
  phase_cache_.assign(n_, AgentPhase::kUnknown);
  progress_cache_.assign(n_, 0.0);
  live_list_.reserve(n_ - num_faulty_);
  for (std::uint32_t i = lo; i < hi; ++i) {
    done_[i] = agents_[i]->done() ? 1 : 0;
    if (faulty_[i] != 0) continue;
    if (done_[i] != 0) {
      ++num_done_;  // Pre-start done: counted, never logged.
    } else {
      live_list_.push_back(i);
    }
  }
  started_ = true;
}

void EngineCore::charge_pull_request(Metrics& metrics) {
  ++metrics.pull_requests;
  metrics.note_message(pull_request_bits());
}

void EngineCore::charge_push(Metrics& metrics, const Payload& payload) {
  ++metrics.pushes;
  metrics.note_message(payload.bit_size());
}

inline void EngineCore::serve_pull(AgentId v, AgentId requester,
                                   Metrics& metrics, Context& ctx,
                                   Payload& reply) {
  if (net_msgs_ &&
      network_->drop(NetMessage::kPullRequest, time_, requester, v)) {
    ++metrics.net_drops;  // Lost request: charged by the caller, never
    return;               // served — the requester observes silence.
  }
  if (faulty_[v] != 0 || is_down(v)) return;  // Silence: no reply.
  reply = agents_[v]->serve_pull(aim(ctx, v), requester);
  if (reply.empty()) return;
  ++metrics.pull_replies;
  metrics.note_message(reply.bit_size());
  if (net_msgs_) {
    // The reply was served and charged either way — the server's RNG
    // consumption never depends on what the network does afterwards.
    if (network_->drop(NetMessage::kPullReply, time_, v, requester)) {
      ++metrics.net_drops;
      reply = {};
      return;
    }
    if (network_->corrupt(NetMessage::kPullReply, time_, v, requester)) {
      Payload tampered =
          corrupt_payload(reply, network_->corrupt_salt(time_, v, requester));
      if (!tampered.empty()) {
        ++metrics.net_corruptions;
        reply = std::move(tampered);
      }
    }
  }
}

inline void EngineCore::execute_push(AgentId sender, AgentId target,
                                     const Payload& payload,
                                     Metrics& metrics, Context& ctx,
                                     NetSinks sinks) {
  if (net_msgs_) {
    net_push(sender, target, payload, metrics, ctx, sinks);
    return;
  }
  deliver_push(sender, target, payload, ctx);
}

void EngineCore::throw_bad_target(AgentId agent, AgentId target,
                                  const char* phase) const {
  throw std::out_of_range(
      "Engine: agent " + std::to_string(agent) + " aimed its action at label " +
      std::to_string(target) + " outside [0, " + std::to_string(n_) +
      ") in round " + std::to_string(time_) + ", " + phase);
}

void EngineCore::throw_undone(AgentId agent) const {
  throw std::logic_error("Engine: agent " + std::to_string(agent) +
                         " reverted done() to false in round " +
                         std::to_string(time_) + "; done() is final");
}

void EngineCore::check_delivery_order(AgentId to, AgentId from, char phase) {
#ifndef NDEBUG
  const std::uint64_t epoch = time_ * 2 + (phase == 'D' ? 2 : 1);
  Heard& last = heard_[to];
  if (last.epoch == epoch && last.from >= from) {
    std::fprintf(stderr,
                 "EngineCore: delivery order broken at agent %u, round %llu, "
                 "phase %c: label %u after label %u\n",
                 to, static_cast<unsigned long long>(time_), phase, from,
                 last.from);
    std::abort();
  }
  last = Heard{epoch, from};
#else
  (void)to;
  (void)from;
  (void)phase;
#endif
}

void EngineCore::check_observations() const {
#ifndef NDEBUG
  for (std::uint32_t i = local_begin(); i < local_end(); ++i) {
    if (faulty_[i] != 0) continue;
    const Agent& agent = *agents_[i];
    const char* stale = nullptr;
    if ((done_[i] != 0) != agent.done()) {
      stale = "done()";
    } else if ((obs_valid_[i] & kPhaseValid) != 0 &&
               phase_cache_[i] != agent.phase()) {
      stale = "phase()";
    } else if ((obs_valid_[i] & kProgressValid) != 0 &&
               progress_cache_[i] != agent.progress()) {
      stale = "progress()";
    }
    if (stale != nullptr) {
      std::fprintf(stderr,
                   "EngineCore: observation contract broken at agent %u, "
                   "round %llu: %s changed outside its callbacks\n",
                   i, static_cast<unsigned long long>(time_), stale);
      std::abort();
    }
  }
#endif
}

namespace {

/// Runs fn(s) for every shard s and returns once all have finished — a
/// phase barrier.  Inline and in shard order without a pool; on the pool an
/// exception from an agent callback is rethrown here (first one wins)
/// instead of terminating the process from a worker.
template <typename Fn>
void for_each_shard(support::ThreadPool* pool, std::uint32_t shards,
                    const Fn& fn) {
  if (pool == nullptr) {
    for (std::uint32_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (std::uint32_t s = 0; s < shards; ++s) {
    pool->submit([&, s] {
      try {
        fn(s);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  pool->wait_idle();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

void EngineCore::run_synchronous_round(const std::vector<bool>* awake_mask) {
  if (exchange_ != nullptr) {  // A node's share: one shard per node.
    run_phased_round(awake_mask, node_begin_, node_of_.data(), nullptr);
    return;
  }
  const std::uint32_t whole[2] = {0, n_};
  run_phased_round(awake_mask, whole, nullptr, nullptr);
}

std::span<const EngineCore::PullEntry> EngineCore::RoundMail::pulls_to(
    std::uint32_t node) const {
  return core_->pull_queues_[core_->node_queue(core_->local_node_, node)];
}

std::span<const EngineCore::PushEntry> EngineCore::RoundMail::pushes_to(
    std::uint32_t node) const {
  return core_->push_queues_[core_->node_queue(core_->local_node_, node)];
}

void EngineCore::RoundMail::add_pull(AgentId from, AgentId to) {
  const std::uint32_t source = core_->node_of_[from];
  std::vector<PullEntry>& queue =
      core_->pull_queues_[core_->node_queue(source, core_->local_node_)];
  queue.push_back(
      PullEntry{from, to, static_cast<std::uint32_t>(queue.size())});
  std::vector<Payload>& replies = core_->shard_buffers_[source].replies;
  if (replies.size() < queue.size()) replies.resize(queue.size());
}

void EngineCore::RoundMail::add_push(AgentId from, AgentId to,
                                     Payload payload) {
  core_->push_queues_[core_->node_queue(core_->node_of_[from],
                                        core_->local_node_)]
      .push_back(PushEntry{std::move(payload), from, to});
}

std::span<const EngineCore::PullEntry> EngineCore::RoundMail::pulls_from(
    std::uint32_t node) const {
  return core_->pull_queues_[core_->node_queue(node, core_->local_node_)];
}

Payload EngineCore::RoundMail::take_reply(std::uint32_t node, std::size_t k) {
  return std::exchange(core_->shard_buffers_[node].replies[k], Payload{});
}

bool EngineCore::RoundMail::post_reply(AgentId requester, AgentId server,
                                       Payload reply) {
  const std::uint32_t local = core_->local_node_;
  const std::uint32_t node = core_->node_of_[server];
  if (node == local) return false;  // Phase B already served local pulls.
  const std::vector<PullEntry>& queue =
      core_->pull_queues_[core_->node_queue(local, node)];
  const auto it = std::lower_bound(
      queue.begin(), queue.end(), requester,
      [](const PullEntry& e, AgentId id) { return e.from < id; });
  if (it == queue.end() || it->from != requester || it->to != server) {
    return false;
  }
  core_->shard_buffers_[local].replies[it->slot] = std::move(reply);
  return true;
}

void EngineCore::run_phased_round(const std::vector<bool>* awake_mask,
                                  std::span<const std::uint32_t> shard_begin,
                                  const std::uint32_t* shard_of,
                                  support::ThreadPool* pool) {
  ensure_started();
  advance_churn(time_);  // Round paths: one churn epoch per round.
  // The shard-barrier arena reset: payloads allocated last round die here,
  // so an arena-boxed payload is valid for exactly one full round.
  reset_round_arenas();

  const auto S = static_cast<std::uint32_t>(shard_begin.size() - 1);
  // A node routes by node: its block ownership is its label ownership.
  const bool blocked = exchange_ == nullptr && n_ >= kBlockedMinN;
  const std::uint32_t B = blocked ? ((n_ - 1) >> kBlockShift) + 1 : S;
  // Destination block of a label (copied into each task, by value, so the
  // hot loops keep it in registers).
  const auto block_of = [blocked, map = S == 1 ? nullptr : shard_of](
                            AgentId t) -> std::uint32_t {
    if (blocked) return t >> kBlockShift;
    return map == nullptr ? 0 : map[t];
  };
  ensure_arenas(S);
  shard_buffers_.resize(S);
  const std::size_t num_queues = static_cast<std::size_t>(S) * B;
  if (push_queues_.size() != num_queues) {
    // Room for each queue's share of n uniform-random actions, plus slack:
    // doubling a queue that outgrows it mid-round would leave the old
    // buffer behind in the heap (capacity is only touched as entries land,
    // so an unused reservation costs no resident memory).
    const std::size_t share = n_ / num_queues + n_ / num_queues / 4;
    push_queues_.assign(num_queues, {});
    pull_queues_.assign(num_queues, {});
    for (std::size_t q = 0; q < num_queues; ++q) {
      push_queues_[q].reserve(share);
      pull_queues_[q].reserve(share);
    }
    for (std::uint32_t s = 0; s < S; ++s) {
      shard_buffers_[s].pullers.reserve(shard_begin[s + 1] - shard_begin[s]);
    }
  }
  for (std::size_t q = 0; q < num_queues; ++q) {
    push_queues_[q].clear();  // Capacity kept across rounds.
    pull_queues_[q].clear();
  }
  for (std::uint32_t s = 0; s < S; ++s) {
    ShardBuffers& sc = shard_buffers_[s];
    sc.metrics = Metrics{};
    sc.pullers.clear();
    // The live list is sorted: binary search.
    sc.live_begin = static_cast<std::size_t>(
        std::lower_bound(live_list_.begin(), live_list_.end(),
                         shard_begin[s]) -
        live_list_.begin());
    sc.live_end = static_cast<std::size_t>(
        std::lower_bound(live_list_.begin() + sc.live_begin,
                         live_list_.end(), shard_begin[s + 1]) -
        live_list_.begin());
  }
#ifndef NDEBUG
  if (heard_.size() != n_) heard_.assign(n_, Heard{0, 0});
#endif
  // A node of a distributed run executes only its own shard's tasks.
  const auto run_tasks = [&](const auto& fn) {
    if (exchange_ != nullptr) {
      fn(local_node_);
    } else {
      for_each_shard(pool, S, fn);
    }
  };
  // Without a network model to draw verdicts on it, a message aimed at a
  // faulty label is absorbed unseen once charged, so it is not routed.
  const bool skip_faulty = !net_msgs_ && num_faulty_ != 0;

  // Phase A, per source shard: collect each awake agent's single active
  // operation and route it to its (source shard, destination block) queue.
  // The shard walks its live-list segment, compacting finished labels in
  // place (done() is final, so a dropped label never wakes again).  The
  // walk is in label order, which is what keeps every queue sorted by
  // sender.
  run_tasks([&, block_of](std::uint32_t s) {
    ShardBuffers& sc = shard_buffers_[s];
    Context ctx = make_context(0, round_arena(s));
    const std::size_t queue_base = static_cast<std::size_t>(s) * B;
    const std::size_t last = sc.live_end;
    std::size_t w = sc.live_begin;
    for (std::size_t r = sc.live_begin; r < last; ++r) {
      const AgentId i = live_list_[r];
      if (done_[i] != 0) continue;
      live_list_[w++] = i;  // Down agents stay listed: churn is transient.
      if (is_down(i) || (awake_mask != nullptr && !(*awake_mask)[i])) continue;
      Action a = agents_[i]->on_round(aim(ctx, i));
      note_activation(i, sc.flips);
      if (a.kind == ActionKind::kIdle) continue;
      check_target(i, a.target, "phase A (collect)");
      ++sc.metrics.active_links;
      const bool absorbed = skip_faulty && faulty_[a.target] != 0;
      const std::size_t q = queue_base + block_of(a.target);
      if (a.kind == ActionKind::kPull) {
        charge_pull_request(sc.metrics);
        const auto slot = static_cast<std::uint32_t>(sc.pullers.size());
        sc.pullers.push_back(Puller{i, a.target});
        if (!absorbed) pull_queues_[q].push_back(PullEntry{i, a.target, slot});
      } else {
        charge_push(sc.metrics, a.payload);
        if (!absorbed) {
          push_queues_[q].push_back(
              PushEntry{std::move(a.payload), i, a.target});
        }
      }
    }
    sc.live_end = w;
    if (sc.replies.size() < sc.pullers.size()) {
      sc.replies.resize(sc.pullers.size());
    }
  });
  // Close the gaps the per-shard compaction left.
  auto live_end = live_list_.begin() + shard_buffers_[0].live_end;
  for (std::uint32_t s = 1; s < S; ++s) {
    const ShardBuffers& sc = shard_buffers_[s];
    live_end = std::move(live_list_.begin() + sc.live_begin,
                         live_list_.begin() + sc.live_end, live_end);
  }
  live_list_.erase(live_end, live_list_.end());
  // The A→B barrier of a distributed round: trade cross-node requests.
  RoundMail mail(*this);
  if (exchange_ != nullptr) exchange_->exchange_requests(mail);

  // Phases B and D, per block owner: task d drains its blocks' queues, each
  // block in source-shard order — ascending requester/sender labels at
  // every receiver.  Two-stage software prefetch (the agent-pointer line a
  // few entries ahead, then the agent object once the pointer is resident)
  // hides the scattered-receiver latency the queue's streaming reads
  // cannot.
  const auto drain = [&](auto& queues, std::uint32_t d, char phase,
                         const auto& prefetch, const auto& deliver) {
    const std::uint32_t last = contiguous_block_begin(B, S, d + 1);
    for (std::uint32_t b = contiguous_block_begin(B, S, d); b < last; ++b) {
      for (std::uint32_t s = 0; s < S; ++s) {
        const auto& queue = queues[static_cast<std::size_t>(s) * B + b];
        const auto* q = queue.data();  // Hoisted: callbacks never grow it.
        const std::size_t m = queue.size();
        ShardBuffers& source = shard_buffers_[s];
        for (std::size_t j = 0; j < m; ++j) {
          if (j + 8 < m) __builtin_prefetch(&agents_[q[j + 8].to]);
          if (j + 4 < m) {
            __builtin_prefetch(agents_[q[j + 4].to].get());
            prefetch(q[j + 4], source);
          }
          check_delivery_order(q[j].to, q[j].from, phase);
          deliver(q[j], source);
        }
      }
    }
  };
  bool any_pull = false;
  bool any_push = false;
  bool any_puller = false;
  for (std::size_t q = 0; q < num_queues; ++q) {
    any_pull = any_pull || !pull_queues_[q].empty();
    any_push = any_push || !push_queues_[q].empty();
  }
  for (const ShardBuffers& sc : shard_buffers_) {
    any_puller = any_puller || !sc.pullers.empty();
  }

  // A phase with no work is skipped outright — pull-free rounds (e.g. the
  // push steady state of a spread) cost nothing beyond phase A.
  if (any_pull) {
    // Phase B: serve every pull from round-start state.
    run_tasks([&](std::uint32_t d) {
      ShardBuffers& sc = shard_buffers_[d];
      Context ctx = make_context(0, round_arena(d));
      drain(
          pull_queues_, d, 'B',
          [](const PullEntry& e, ShardBuffers& source) {
            __builtin_prefetch(&source.replies[e.slot], 1);
          },
          [&](const PullEntry& e, ShardBuffers& source) {
            serve_pull(e.to, e.from, sc.metrics, ctx, source.replies[e.slot]);
            note_activation(e.to, sc.flips);
          });
    });
  }
  // The B→C barrier of a distributed round: trade the served replies.
  if (exchange_ != nullptr) exchange_->exchange_replies(mail);
  if (any_puller) {
    // Phase C, per source shard: deliver pull replies in puller order.
    run_tasks([&](std::uint32_t s) {
      ShardBuffers& sc = shard_buffers_[s];
      Context ctx = make_context(0, round_arena(s));
      const Puller* pullers = sc.pullers.data();
      const std::size_t m = sc.pullers.size();
      for (std::size_t j = 0; j < m; ++j) {
        if (j + 8 < m) __builtin_prefetch(&agents_[pullers[j + 8].requester]);
        if (j + 4 < m) {
          __builtin_prefetch(agents_[pullers[j + 4].requester].get());
        }
        const AgentId i = pullers[j].requester;
        agents_[i]->on_pull_reply(aim(ctx, i), pullers[j].server,
                                  sc.replies[j]);
        sc.replies[j] = {};
        note_activation(i, sc.flips);
      }
    });
  }

  // Phase D: deliver pushes.  Pushes the network delayed in earlier rounds
  // land first (between barriers, so single-threaded), reordered ones last.
  // Fault verdicts are pure per-message hashes, so the block order cannot
  // change them; held-back pushes go to per-shard sinks merged here and
  // delivered in sorted order.
  Context serial_ctx = make_context(0, round_arena(0));
  if (net_msgs_) deliver_due_delayed(serial_ctx);
  if (any_push) {
    run_tasks([&](std::uint32_t d) {
      ShardBuffers& sc = shard_buffers_[d];
      Context ctx = make_context(0, round_arena(d));
      const NetSinks sinks{&sc.delayed, &sc.deferred};
      drain(
          push_queues_, d, 'D', [](const PushEntry&, ShardBuffers&) {},
          [&](const PushEntry& e, ShardBuffers&) {
            execute_push(e.from, e.to, e.payload, sc.metrics, ctx, sinks);
            note_activation(e.to, sc.flips);
          });
    });
  }
  if (net_msgs_) {
    for (ShardBuffers& sc : shard_buffers_) {
      for (DelayedPush& e : sc.delayed) net_delayed_.push_back(std::move(e));
      for (DelayedPush& e : sc.deferred) net_deferred_.push_back(std::move(e));
      sc.delayed.clear();
      sc.deferred.clear();
    }
    flush_deferred(net_deferred_, serial_ctx);
  }

  // Barrier merge: shard deltas carry no rounds/virtual_time (the scheduler
  // owns those), so the general merge is exact.
  for (ShardBuffers& sc : shard_buffers_) {
    metrics_.merge_from(sc.metrics);
    settle_done(sc.flips);
  }
  settle_done(flips_);
  check_observations();
  ++time_;
  metrics_.rounds = time_;
}

void EngineCore::sequential_activation(AgentId u) {
  ensure_started();
  reset_round_arenas();  // One activation = one message lifetime.
  ++time_;
  metrics_.rounds = time_;
  // Sequential churn epochs tick once per n activations — the step-count
  // analogue of one synchronous round — and delayed pushes land at the
  // start of the first activation at or past their due step.
  if (net_churn_) advance_churn(time_ / n_);
  Context ctx = make_context(u, serial_arena());
  if (net_msgs_) deliver_due_delayed(ctx);
  // Waking a done or crashed agent wastes the activation.
  if (!agent_done(u) && !is_down(u)) {
    Action action = agents_[u]->on_round(aim(ctx, u));
    note_activation(u, flips_);
    if (action.kind != ActionKind::kIdle) {
      check_target(u, action.target, "sequential activation");
      ++metrics_.active_links;
    }
    if (action.kind == ActionKind::kPull) {
      charge_pull_request(metrics_);
      // Done agents are still asked: in the sequential model a fast agent
      // finishes while slow ones are mid-audit, and whether a terminated
      // agent keeps serving is the agent's own policy (as in the
      // synchronous round).
      Payload reply;
      serve_pull(action.target, u, metrics_, ctx, reply);
      note_activation(action.target, flips_);
      agents_[u]->on_pull_reply(aim(ctx, u), action.target, reply);
      note_activation(u, flips_);
    } else if (action.kind == ActionKind::kPush) {
      // No delivery phase to reorder within: reordering is a no-op here,
      // but cross-activation delay still applies.
      charge_push(metrics_, action.payload);
      execute_push(u, action.target, action.payload, metrics_, ctx,
                   NetSinks{&net_delayed_, nullptr});
      note_activation(action.target, flips_);
    }
  }
  settle_done(flips_);
  if (time_ % n_ == 0) check_observations();
}

}  // namespace rfc::sim
