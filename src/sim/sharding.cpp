#include "sim/sharding.hpp"

#include <stdexcept>

#include "sim/engine_core.hpp"
#include "support/thread_pool.hpp"

namespace rfc::sim {

ShardedRoundExecutor::ShardedRoundExecutor(ShardingConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument(
        "ShardedRoundExecutor: shards must be positive");
  }
}

ShardedRoundExecutor::~ShardedRoundExecutor() = default;

void ShardedRoundExecutor::bind(EngineCore& core) {
  if (bound_n_ == core.n()) return;
  bound_n_ = core.n();
  // More shards than labels would only add empty tasks.
  const std::uint32_t shards = cfg_.shards < bound_n_ ? cfg_.shards : bound_n_;
  shard_begin_.resize(shards + 1);
  for (std::uint32_t s = 0; s <= shards; ++s) {
    shard_begin_[s] = contiguous_block_begin(bound_n_, shards, s);
  }
  shard_of_.resize(bound_n_);
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t i = shard_begin_[s]; i < shard_begin_[s + 1]; ++i) {
      shard_of_[i] = s;
    }
  }
  if (shards <= 1) return;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<rfc::support::ThreadPool>(cfg_.threads);
  }
  // Shard-local RNG prefetch: derive each shard's per-agent streams on its
  // own worker before the agents start.  The streams are a pure function of
  // (seed, label), so this is the serial derivation reordered — traces are
  // untouched, only the O(n) SplitMix expansion leaves the serial path.
  if (!core.rngs_seeded_) {
    core.allocate_rngs();
    rfc::support::parallel_for(*pool_, shards, [&](std::size_t s) {
      core.seed_rng_block(shard_begin_[s], shard_begin_[s + 1]);
    });
    core.rngs_seeded_ = true;
  }
}

void ShardedRoundExecutor::run_round(EngineCore& core,
                                     const std::vector<bool>* awake_mask) {
  // An unsharded config never even binds: the default scheduler pays
  // nothing for owning an executor.  A node of a distributed run is cut
  // by node, not by shard (EngineCore::set_round_exchange).
  if (cfg_.shards <= 1 || core.exchange_ != nullptr) {
    core.run_synchronous_round(awake_mask);
    return;
  }
  // bind() before the kernel's ensure_started(): the first bind prefetches
  // the per-agent RNG blocks in parallel, which must precede the agents'
  // on_start draws.
  bind(core);
  core.run_phased_round(awake_mask, shard_begin_, shard_of_.data(),
                        pool_.get());
}

}  // namespace rfc::sim
