// The execution substrate shared by every activation model.
//
// EngineCore owns *what it means to run agents* — agent storage, fault
// bookkeeping, per-agent SplitMix-derived RNG streams, exact message
// accounting, and the two delivery primitives every model composes:
//
//   * run_synchronous_round — the paper's phased lock-step round (collect
//     one active operation per awake agent, serve pulls from round-start
//     state, deliver replies, deliver pushes);
//   * sequential_activation — one agent wakes alone and its operation
//     resolves immediately against current state.
//
// *When* agents run — activation order and round/step semantics — is a
// Scheduler policy (sim/scheduler.hpp).  The Engine facade
// (sim/engine.hpp) binds the two.  EngineCore is fully deterministic given
// (n, seed, topology, fault plan, agents): Monte-Carlo parallelism lives
// one level up (analysis::MonteCarlo) and runs independent cores on
// independent seeds.
//
// One phased-round kernel (run_phased_round) executes every synchronous
// round, serial or sharded.  It cuts the label space into S contiguous
// *source shards* (S = 1 for run_synchronous_round; ShardedRoundExecutor in
// sim/sharding.hpp supplies S > 1 and a thread pool) and routes work by
// contiguous destination *block*: 2^16-label blocks once n >= 2^19 (so
// serving and delivering touch one cache-sized slice of agent state at a
// time), otherwise one block per shard.
//
//   Phase A (per source shard):  walk the shard's part of the live list,
//                                collect each awake agent's action and
//                                move it (payload included) into the
//                                (source shard, destination block) queue.
//   Phase B (per block owner):   serve pulls from round-start state.
//   Phase C (per source shard):  deliver pull replies in puller order.
//   Phase D (per block owner):   deliver pushes.
//
// Each destination block drains its queues in source-shard order; shards
// are contiguous and phase A walks labels in order, so every receiver sees
// its requesters/senders in ascending label order — the serial round's
// order — whatever S and the block size are (Debug builds assert this).
// The source side charges each pull request and push as phase A collects
// it; the server charges each reply it serves in phase B.  With no network
// model, a message aimed at a faulty label is charged and then routed
// nowhere: the label would absorb it unseen.
// Each agent (its state and its RNG stream) is touched by exactly one task
// per phase, phases are separated by barriers, and message accounting goes
// to per-shard Metrics deltas whose merge is order-independent (sums plus
// one max), so the round is bit-identical for every (shards, threads).
// tests/sharded_equivalence_test.cpp pins this against pre-refactor
// digests.
//
// The same kernel runs one node of a distributed run (net/node_driver.hpp)
// through the round-exchange seam (set_round_exchange): the label space is
// cut into one contiguous shard *and* one destination block per node, the
// node runs only its own shard's tasks, and its RoundExchange moves the
// cross-node queues at two of the barriers — after phase A it ships the
// (local shard, remote block) pull and push queues and takes in the remote
// shards' queues for the local block, after phase B it ships the replies
// served for remote pullers and takes in its own pullers' replies.  Every
// rule above — charging, delivery order, silence, the out-of-range check —
// is therefore the same in memory and over a transport.
//
// Hot state is structure-of-arrays.  The polymorphic Agent objects remain
// the behavior, but everything the round loop and the observers touch per
// agent lives in contiguous parallel arrays: the fault flags, the per-agent
// RNG streams, and SoA caches of the hot observations (done()/phase()/
// progress()) refreshed on activation.  They are sound by the Agent
// observation contract (sim/agent.hpp): observations change only inside
// the agent's own callbacks, and done() is final.  A done() that reverts
// throws std::logic_error; Debug builds also re-read every observation
// after each synchronous round and every n-th sequential activation
// (check_observations) and abort on a stale cache.
//
// Rounds are *sparse*: the engine maintains the label-ordered live list
// (non-faulty, not-done labels) incrementally — phase A iterates it
// instead of scanning all n labels, compacting done entries in place as it
// goes (done() is final, so a dropped label never wakes again), and phases
// B/C/D walk this round's queues — so a round costs
// O(live + messages), not O(n).  The iteration order equals the 0..n
// scan's, so traces are bit-identical.  Done 0→1 transitions are also
// appended to a public *done log* (done_log()), which incremental
// schedulers drain to prune their own wakeable pools eagerly instead of
// re-deriving them per step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/agent.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace rfc::support {
class ThreadPool;
}  // namespace rfc::support

namespace rfc::sim {

class RoundExchange;

class EngineCore {
 public:
  EngineCore(std::uint32_t n, std::uint64_t seed, TopologyPtr topology);

  /// Installs the agent for label `id`.  All labels must be populated
  /// before the first step.
  void set_agent(AgentId id, std::unique_ptr<Agent> agent);

  /// Marks `id` permanently faulty (must be called before the first step).
  void set_faulty(AgentId id, bool faulty = true);

  /// Applies a full fault plan (see sim/fault_model.hpp).
  void apply_fault_plan(const std::vector<bool>& plan);

  bool is_faulty(AgentId id) const { return faulty_.at(id) != 0; }
  std::uint32_t num_faulty() const noexcept { return num_faulty_; }
  std::uint32_t num_active() const noexcept { return n_ - num_faulty_; }

  std::uint32_t n() const noexcept { return n_; }
  std::uint64_t seed() const noexcept { return seed_; }
  /// Elapsed scheduling events: rounds under round-based schedulers, steps
  /// under sequential ones.
  std::uint64_t time() const noexcept { return time_; }
  /// Elapsed *virtual* time: the sum of scheduler step() increments.
  /// Equals time() for discrete policies; the continuous clock otherwise.
  double virtual_time() const noexcept { return metrics_.virtual_time; }
  /// Accumulates a scheduler-reported time increment (engine-internal).
  void advance_virtual_time(double dt) noexcept {
    metrics_.virtual_time += dt;
  }
  /// Accumulates wake-up denials reported by an adversarial policy — its
  /// spent starvation budget, surfaced next to the message counters so run
  /// results can compare adversaries by cost (scheduler-facing, like
  /// advance_virtual_time).
  void note_denials(std::uint64_t count) noexcept {
    metrics_.denials += count;
  }
  bool started() const noexcept { return started_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  // --- Network adversary & churn (sim/network.hpp). -----------------------

  /// Installs the message-layer fault model (must precede the first step).
  /// Null (the default) — and any model with every rate zero — leaves all
  /// delivery paths bit-identical to the adversary-free engine: the fault
  /// stage is gated out entirely, not merely drawing zero-probability
  /// verdicts.
  void set_network(NetworkModelPtr network);
  const NetworkModel* network_model() const noexcept { return network_.get(); }

  /// True while churn holds agent `id` crashed: it idles, serves silence,
  /// and absorbs (charged) messages until its rejoin epoch.  Always false
  /// without a churn-enabled network model.
  bool is_down(AgentId id) const noexcept {
    return net_churn_ && down_until_[id] > net_epoch_;
  }

  Agent& agent(AgentId id) { return *agents_.at(id); }
  const Agent& agent(AgentId id) const { return *agents_.at(id); }

  // --- Hot observations, cached SoA-side. ---------------------------------
  //
  // done() is refreshed eagerly on every activation (the round loop needs
  // it anyway); phase()/progress() are cached lazily — invalidated on
  // activation, recomputed on the first observer read after it.  The caches
  // are built at ensure_started; reads before it go to the agent.

  /// The agent's done() report (cached; identical to agent(id).done()).
  bool agent_done(AgentId id) const {
    return started_ ? done_[id] != 0 : agents_[id]->done();
  }
  /// The agent's phase observation; kUnknown for agents exposing none.
  AgentPhase agent_phase(AgentId id) const;
  /// The agent's numeric pipeline position (Agent::progress()).
  double agent_progress(AgentId id) const;

  /// True when every non-faulty agent reports done().  O(1) off the cached
  /// done counter once started; a scan of the agents before that.
  bool all_done() const;

  /// Non-faulty labels, in label order.
  std::vector<AgentId> active_labels() const;
  /// Allocation-free overload: clears and refills `out` (capacity reused by
  /// the caller across calls — scheduler attach/rebuild paths use this).
  void active_labels(std::vector<AgentId>& out) const;

  // --- The done log: incremental active-set maintenance for schedulers. ---
  //
  // Every done() 0→1 transition observed by the engine appends that label
  // to an append-only log: in observation order on the sequential path, and
  // at the end of a synchronous round in per-shard observation order,
  // shards in order.  done() is final, so each label is logged at most
  // once.  A scheduler keeping its own wakeable pool drains the log from a
  // cursor each step and removes exactly the newly finished agents —
  // O(transitions) total instead of O(pool) per step.  Labels done before
  // the first step are never logged (pools built from active_labels()
  // filter them at build time).

  /// The append-only done-transition log (labels, first-observed order).
  const std::vector<AgentId>& done_log() const noexcept { return done_log_; }

  /// Bits charged for a pull *request* (the "send me your X" control
  /// message): one peer label, per the paper's accounting.
  std::uint64_t pull_request_bits() const noexcept {
    return pull_request_bits_;
  }

  // --- Execution primitives, composed by Scheduler policies. ---

  /// Installs-check plus on_start for every active agent in label order.
  /// Idempotent; runs before the first scheduler step.
  void ensure_started();

  /// Executes one synchronous phased round over the agents with
  /// `awake_mask[i]` true (null = every agent), then advances time by one
  /// round.  Faulty and done() agents idle regardless of the mask.  An
  /// action aimed outside [0, n) throws std::out_of_range; the round is
  /// then partially applied and the engine must not be stepped again.  With
  /// a round exchange set this is the local node's share of the round.
  void run_synchronous_round(const std::vector<bool>* awake_mask = nullptr);

  /// Advances time by one step, then wakes `u` alone: its action is
  /// collected and resolved immediately (a pull is served from current
  /// state).  Waking a done() agent consumes the step as a wasted
  /// activation, as in the sequential model's analyses.  Out-of-range
  /// targets throw std::out_of_range, as in the synchronous round.
  void sequential_activation(AgentId u);

  /// The per-callback view handed to agent `id` at the current time (serial
  /// paths: carries round arena 0).
  Context make_context(AgentId id) noexcept;

  // --- Distributed rounds: the round-exchange seam. -----------------------

  /// Makes this core node `local` of a `nodes`-node run: [0, n) is cut into
  /// `nodes` contiguous blocks (contiguous_block_begin), only the local
  /// block's labels need agents, and every synchronous round runs just the
  /// local block's tasks, handing the cross-node traffic to `exchange` at
  /// the A→B and B→C barriers (see the file comment).  Observers (done
  /// counter, done log, live list) then cover the local block only.  Must
  /// precede the first step; `exchange` must outlive every round.
  void set_round_exchange(RoundExchange* exchange, std::uint32_t nodes,
                          std::uint32_t local);
  /// The node owning `label` under the exchange partition.
  std::uint32_t node_of(AgentId label) const { return node_of_.at(label); }

  /// One routed push.  The payload travels in the queue entry, so phase D
  /// streams its queues instead of random-reading a per-label buffer.
  struct PushEntry {
    Payload payload;
    AgentId from;  ///< Sender.
    AgentId to;    ///< Target (the receiver; its block owns the entry).
  };
  /// One routed pull.  Phase B serves it into the reply slot `slot` of the
  /// requester's source shard.
  struct PullEntry {
    AgentId from;  ///< Requester.
    AgentId to;    ///< Server (the receiver; its block owns the entry).
    std::uint32_t slot;
  };

  /// The local node's window on one round's cross-node queues, handed to
  /// the RoundExchange at the kernel's barriers.  Queues list entries in
  /// ascending sender order.
  class RoundMail {
   public:
    /// Local pulls / pushes bound for `node`'s labels (A→B: to ship).
    std::span<const PullEntry> pulls_to(std::uint32_t node) const;
    std::span<const PushEntry> pushes_to(std::uint32_t node) const;
    /// Routes a remote requester's pull / sender's push to a local label
    /// (A→B: taken in).  Call in ascending `from` order.
    void add_pull(AgentId from, AgentId to);
    void add_push(AgentId from, AgentId to, Payload payload);
    /// The pulls `node`'s requesters made on local labels (B→C), and the
    /// reply phase B served for the k-th of them (empty: silence), moved
    /// out.
    std::span<const PullEntry> pulls_from(std::uint32_t node) const;
    Payload take_reply(std::uint32_t node, std::size_t k);
    /// Hands `server`'s reply to local `requester` (B→C: taken in).  False
    /// when `requester` sent no pull to `server` on another node this
    /// round.
    bool post_reply(AgentId requester, AgentId server, Payload reply);

   private:
    friend class EngineCore;
    explicit RoundMail(EngineCore& core) : core_(&core) {}
    EngineCore* core_;
  };

 private:
  friend class ShardedRoundExecutor;  // sim/sharding.hpp

  /// One puller of a source shard, listed in label order for phase C.
  struct Puller {
    AgentId requester;
    AgentId server;
  };
  /// One source shard's buffers for a phased round (capacity kept across
  /// rounds, so the steady state allocates nothing).  Its phase B/D deltas
  /// belong to the same task index acting as a block owner.
  struct ShardBuffers {
    Metrics metrics;                   ///< Round delta, merged at the end.
    std::vector<AgentId> flips;        ///< Labels whose done_ byte changed.
    std::vector<Puller> pullers;       ///< This round's pullers, label order.
    /// replies[k] answers pullers[k]; phase C empties every slot it reads,
    /// so slots are empty between rounds and the vector only ever grows.
    std::vector<Payload> replies;
    std::vector<DelayedPush> delayed;  ///< Phase-D fault-stage sinks, merged
    std::vector<DelayedPush> deferred; ///< at the barrier.
    std::size_t live_begin = 0;  ///< This shard's live-list segment; phase A
    std::size_t live_end = 0;    ///< compacts it in place.
  };

  /// Where the fault stage parks held-back pushes: a shard's sinks in the
  /// synchronous round (merged at the barrier so delivery order stays
  /// shard-count independent).  A null member means the context cannot
  /// defer that way (the sequential path has no delivery phase to reorder
  /// within) and the push is delivered immediately instead.
  struct NetSinks {
    std::vector<DelayedPush>* delayed;
    std::vector<DelayedPush>* deferred;
  };

  /// Allocates the unseeded per-agent stream slots.  Deferred from
  /// construction to the first seeding, so building an engine touches no
  /// stream memory (a distributed node's setup is its agents).
  void allocate_rngs();
  /// Expands the per-agent RNG streams for labels [lo, hi) from the master
  /// seed.  Stream values are a pure function of (seed, label), so *where*
  /// this runs is free: ensure_started derives the whole range (a node: its
  /// block) on first use, and the sharded executor prefetches each shard's
  /// block on its own worker thread instead (sim/sharding.hpp), off the
  /// serial path.
  void seed_rng_block(std::uint32_t lo, std::uint32_t hi) noexcept;

  /// Grows the per-shard round arena set to `count` (the sequential path
  /// uses arena 0; a phased round one per source shard).
  void ensure_arenas(std::uint32_t count);
  /// The round arena for shard `idx` (valid after ensure_arenas).
  support::Arena* round_arena(std::uint32_t idx) noexcept {
    return arenas_[idx].get();
  }
  /// Resets every round arena — the shard-barrier reset at round start.
  /// Payloads built in an arena live until the NEXT round begins.
  void reset_round_arenas() noexcept;

  Context make_context(AgentId id, support::Arena* arena) noexcept;
  support::Arena* serial_arena() noexcept {
    return arenas_.empty() ? nullptr : arenas_[0].get();
  }
  /// Re-aims a hoisted Context at `id`: within one round only the label and
  /// the RNG stream differ between callbacks.
  Context& aim(Context& ctx, AgentId id) noexcept {
    ctx.self = id;
    ctx.rng = &rngs_[id];
    return ctx;
  }

  /// Throws std::out_of_range, naming the agent, round and `phase`, when
  /// `agent`'s action aims outside [0, n).
  void check_target(AgentId agent, AgentId target, const char* phase) const {
    if (target >= n_) throw_bad_target(agent, target, phase);
  }
  [[noreturn]] void throw_bad_target(AgentId agent, AgentId target,
                                     const char* phase) const;

  /// Refreshes the SoA observation caches after agent `i` ran a callback:
  /// re-reads done() and invalidates the lazy phase/progress entries.  A
  /// new done_ byte is recorded in `flips` for settle_done; the byte store
  /// itself is race-free inside a sharded phase because each agent is owned
  /// by one task per phase.  A done() that reverts breaks the Agent
  /// contract and throws.  No-op for faulty labels.  Forced inline: it runs
  /// once per callback in every hot loop of the round.
  [[gnu::always_inline]] void note_activation(AgentId i,
                                              std::vector<AgentId>& flips) {
    if (faulty_[i] != 0) return;
    obs_valid_[i] = 0;
    const std::uint8_t d = agents_[i]->done() ? 1 : 0;
    if (d != done_[i]) {
      if (d == 0) throw_undone(i);
      done_[i] = 1;
      flips.push_back(i);
    }
  }
  /// Throws std::logic_error naming `agent` and the round: its done()
  /// reverted to false.
  [[noreturn]] void throw_undone(AgentId agent) const;
  /// Applies recorded done_ flips to the done counter and the done log
  /// (serial contexts only), then clears `flips`.
  void settle_done(std::vector<AgentId>& flips);
  /// The labels this core runs: its node's block, or all of [0, n).
  std::uint32_t local_begin() const noexcept {
    return exchange_ != nullptr ? node_begin_[local_node_] : 0;
  }
  std::uint32_t local_end() const noexcept {
    return exchange_ != nullptr ? node_begin_[local_node_ + 1] : n_;
  }

  /// The phased-round kernel behind every synchronous round (see the file
  /// comment).  `shard_begin` holds S+1 bounds cutting [0, n) into S
  /// contiguous source shards, `shard_of` maps label -> shard (read only
  /// when S > 1), and `pool` runs each phase's S tasks (null: inline).
  void run_phased_round(const std::vector<bool>* awake_mask,
                        std::span<const std::uint32_t> shard_begin,
                        const std::uint32_t* shard_of,
                        support::ThreadPool* pool);
  /// Debug builds: aborts unless `from` exceeds every label `to` already
  /// heard from in this round's `phase` ('B' or 'D').  Compiled out with
  /// NDEBUG.
  void check_delivery_order(AgentId to, AgentId from, char phase);
  /// Debug builds: aborts, naming the agent, round and observation, unless
  /// every local non-faulty agent's done() — and phase()/progress() where
  /// cached — still matches the SoA caches.  Compiled out with NDEBUG.
  void check_observations() const;

  // Shared accounting/delivery between the synchronous kernel and the
  // sequential activation path — one definition keeps every execution
  // model's metrics bit-identical by construction.  `metrics` is a shard's
  // delta in the kernel and metrics_ on the sequential path; `ctx` is the
  // caller's hoisted Context, re-aimed at whichever agent runs.  The
  // per-message primitives are forced inline: left to itself GCC calls
  // them out of line from the kernel's drain loops, which run once per
  // message.
  void charge_pull_request(Metrics& metrics);
  void charge_push(Metrics& metrics, const Payload& payload);
  /// Serves `requester`'s pull on `v` into `reply`, which must be empty on
  /// entry and stays empty for silence (`v` faulty or down, or the network
  /// dropped the request or the reply; a corrupted reply comes back
  /// tampered), charging the reply if any.  Delivery to the requester is
  /// the caller's job.  The caller refreshes v's cache.
  [[gnu::always_inline]] void serve_pull(AgentId v, AgentId requester,
                                         Metrics& metrics, Context& ctx,
                                         Payload& reply);
  /// Runs the network fault stage on `sender`'s (already charged) push when
  /// one is active, and delivers it unless the target is faulty or down.
  /// The caller refreshes the target's cache.
  [[gnu::always_inline]] void execute_push(AgentId sender, AgentId target,
                                           const Payload& payload,
                                           Metrics& metrics, Context& ctx,
                                           NetSinks sinks);

  // --- Network fault stage (no-ops unless a fault-enabled model is set). --

  /// Sweeps churn epochs up to `epoch`: every up agent draws a crash
  /// verdict per unswept epoch; a down agent returns when its window
  /// expires.  Serial contexts only (called at round/activation start).
  void advance_churn(std::uint64_t epoch);
  /// The post-charge fault stage of one push: drop / corrupt / delay /
  /// reorder / duplicate, then delivery of whatever survives.
  void net_push(AgentId sender, AgentId target, const Payload& payload,
                Metrics& metrics, Context& ctx, NetSinks sinks);
  /// Delivery past the fault stage: faulty and down targets absorb the
  /// (already charged) message silently.
  [[gnu::always_inline]] void deliver_push(AgentId sender, AgentId target,
                                           const Payload& payload,
                                           Context& ctx);
  /// Delivers the delayed pushes whose round has come, ordered by (origin
  /// round, sender).  Serial contexts only.
  void deliver_due_delayed(Context& ctx);
  /// Delivers and clears a batch of same-round reordered pushes, ordered by
  /// sender label (senders are unique within a round, so the order is
  /// total and shard-count independent).  Serial contexts only.
  void flush_deferred(std::vector<DelayedPush>& batch, Context& ctx);

  std::uint32_t n_;
  std::uint32_t pull_request_bits_;  ///< Fixed by n; charged per request.
  std::uint64_t seed_;
  TopologyPtr topology_;
  std::vector<std::unique_ptr<Agent>> agents_;

  // --- Structure-of-arrays hot state (one entry per label). ---------------
  std::vector<std::uint8_t> faulty_;
  std::vector<rfc::support::Xoshiro256> rngs_;
  std::vector<std::uint8_t> done_;      ///< Cached Agent::done() (eager).
  mutable std::vector<std::uint8_t> obs_valid_;  ///< Lazy-cache valid bits.
  mutable std::vector<AgentPhase> phase_cache_;
  mutable std::vector<double> progress_cache_;
  static constexpr std::uint8_t kPhaseValid = 1;
  static constexpr std::uint8_t kProgressValid = 2;

  std::uint32_t num_faulty_ = 0;
  std::uint32_t num_done_ = 0;  ///< Non-faulty labels with done_[i] set.
  /// Label-ordered live labels (non-faulty, not done) — the sparse round's
  /// phase-A iteration domain.  Built at ensure_started with the caches;
  /// done entries compact away in place during phase A.
  std::vector<AgentId> live_list_;
  std::vector<AgentId> done_log_;  ///< Append-only; see done_log().
  /// Done flips noted in serial contexts (the sequential path and the
  /// kernel's between-barrier fault-stage deliveries).
  std::vector<AgentId> flips_;
  std::uint64_t time_ = 0;
  bool started_ = false;
  bool rngs_seeded_ = false;
  Metrics metrics_;

  // --- Network adversary & churn state (inert unless set_network). --------
  NetworkModelPtr network_;
  bool net_msgs_ = false;   ///< Some per-message fault rate is positive.
  bool net_churn_ = false;  ///< Crash churn enabled.
  std::uint64_t net_epoch_ = 0;      ///< Epoch advance_churn has reached.
  std::uint64_t churn_unswept_ = 0;  ///< First epoch not yet swept.
  std::vector<std::uint64_t> down_until_;  ///< Crash windows, epoch units.
  std::vector<DelayedPush> net_delayed_;   ///< Cross-round delayed pushes.
  std::vector<DelayedPush> net_deferred_;  ///< Merged same-round reorders.

  // --- Round arenas (one per shard; serial paths use index 0). ------------
  std::vector<std::unique_ptr<support::Arena>> arenas_;

  // --- Phased-round kernel buffers. ----------------------------------------
  /// Block routing starts at n = 2^19 with 2^16-label blocks.  Measured
  /// on steady-state push-pull rumor rounds (min-of-5 interleaved reps, one
  /// CPU): at n = 2^17 the unblocked round wins (32.1 ns/agent vs 35.8),
  /// n = 2^18 is a wash, and from n = 2^19 blocking pays (38.3 vs 44.1; at
  /// n = 2^20, 48.2 vs 62.2).  2^16 labels per block beat 2^15, 2^17 and
  /// 2^18 at n = 2^20: fewer, longer queues win until the per-block agent
  /// state outgrows L2.
  static constexpr std::uint32_t kBlockedMinN = 1u << 19;
  static constexpr std::uint32_t kBlockShift = 16;
  std::vector<ShardBuffers> shard_buffers_;
  /// Routing queues indexed [source shard * blocks + destination block].
  std::vector<std::vector<PushEntry>> push_queues_;
  std::vector<std::vector<PullEntry>> pull_queues_;
  /// Debug builds only: per receiver, the (round, phase) epoch and label of
  /// the last requester/sender it heard from (check_delivery_order).
  struct Heard {
    std::uint64_t epoch;
    AgentId from;
  };
  std::vector<Heard> heard_;

  // --- Round-exchange seam (empty / null in memory). ----------------------
  /// Index of the (source node, destination node) routing queue.
  std::size_t node_queue(std::uint32_t from, std::uint32_t to) const {
    return static_cast<std::size_t>(from) * (node_begin_.size() - 1) + to;
  }
  RoundExchange* exchange_ = nullptr;
  std::uint32_t local_node_ = 0;
  std::vector<std::uint32_t> node_begin_;  ///< nodes+1 block bounds.
  std::vector<std::uint32_t> node_of_;     ///< label -> owning node.
};

/// Moves one node's cross-node traffic at the phased round's barriers — the
/// transport half of a distributed round (net::NodeDriver implements it over
/// wire frames).  Both calls block until the remote side of the barrier is
/// in; errors propagate out of the round.
class RoundExchange {
 public:
  virtual ~RoundExchange() = default;
  /// A→B: ship pulls_to / pushes_to of every remote node, then add_pull /
  /// add_push everything remote nodes routed to local labels.
  virtual void exchange_requests(EngineCore::RoundMail& mail) = 0;
  /// B→C: ship every remote node's served replies (pulls_from /
  /// take_reply), then post_reply each reply to a local puller.
  virtual void exchange_replies(EngineCore::RoundMail& mail) = 0;
};

}  // namespace rfc::sim
