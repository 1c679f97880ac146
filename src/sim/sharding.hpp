// Sharded execution of the synchronous phased round.
//
// ShardedRoundExecutor cuts the label space [n] into S *contiguous* shards
// and hands them, with a support::ThreadPool, to EngineCore's one
// phased-round kernel (sim/engine_core.hpp).  The kernel runs each of its
// four phases (collect, serve pulls, deliver replies, deliver pushes) as S
// pool tasks with a barrier between phases: phase A collects by source
// shard into per-(source shard, destination block) queues, phases B and D
// drain each destination block's queues in source-shard order, and phase C
// delivers replies by puller shard.  Because shards are contiguous and
// collected in label order, every receiver sees its requesters and senders
// in ascending label order — exactly the serial round's — and the round is
// *bit-identical* to EngineCore::run_synchronous_round for every (shards,
// threads) combination, including thread counts exceeding the core count
// (tests/sharded_equivalence_test.cpp pins this).  The executor itself only
// owns the pool, the shard map and the RNG prefetch.
//
// Requirements on agents: the Agent contract (sim/agent.hpp) — callbacks
// touch only the agent's own state and the Context handed to them, and
// state shared across labels is written and read in different phases.  The
// rational::Coalition blackboard keeps that discipline: intentions are
// published in on_start, before round 0, and the beneficiary's vote sum is
// written in its phase-D on_push and read in the fixer's phase-A on_round,
// so a sharded round never touches it from two tasks at once.  Setup also
// prefetches each shard's per-agent RNG streams on
// its own worker (the streams are pure functions of (seed, label), so the
// parallel derivation is trace-identical to the serial one).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace rfc::support {
class ThreadPool;
}  // namespace rfc::support

namespace rfc::sim {

class EngineCore;

struct ShardingConfig {
  /// Contiguous label shards per round; 1 = the serial engine.
  std::uint32_t shards = 1;
  /// Worker threads; 0 = hardware concurrency.  Any value yields the same
  /// execution — threads only control how shard tasks are scheduled.
  std::uint32_t threads = 0;
};

/// First label of block `b` when [0, n) is cut into `blocks` contiguous
/// near-equal blocks — the one partition rule shared by the sharded round,
/// the batched-delivery scheduler, and EngineView's shard-geometry
/// observations, so "block" means the same label range everywhere.
/// `block_begin(n, blocks, blocks)` is n.
constexpr std::uint32_t contiguous_block_begin(std::uint32_t n,
                                               std::uint32_t blocks,
                                               std::uint32_t b) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n) * b /
                                    blocks);
}

class ShardedRoundExecutor {
 public:
  explicit ShardedRoundExecutor(ShardingConfig cfg);
  ~ShardedRoundExecutor();

  ShardedRoundExecutor(const ShardedRoundExecutor&) = delete;
  ShardedRoundExecutor& operator=(const ShardedRoundExecutor&) = delete;

  const ShardingConfig& config() const noexcept { return cfg_; }

  /// Executes one synchronous phased round over `core` (mask semantics as
  /// in EngineCore::run_synchronous_round), bit-identical to the serial
  /// round.  With shards <= 1 this is the serial round.
  void run_round(EngineCore& core, const std::vector<bool>* awake_mask);

 private:
  /// Lazily sizes the shard map to `core` (n is fixed per engine), spins
  /// up the pool and prefetches the RNG streams.
  void bind(EngineCore& core);

  ShardingConfig cfg_;
  std::unique_ptr<rfc::support::ThreadPool> pool_;
  std::uint32_t bound_n_ = 0;
  std::vector<std::uint32_t> shard_begin_;  ///< S+1 bounds; shard s is
                                            ///< [begin[s], begin[s+1]).
  std::vector<std::uint32_t> shard_of_;     ///< label -> owning shard.
};

}  // namespace rfc::sim
