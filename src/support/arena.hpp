// A per-round bump allocator for message payloads.
//
// The engine's boxed payloads (certificates, vote intentions, async
// replies) are produced in bursts inside a round and consumed before the
// next one: every shipped consumer copies the value out in its delivery
// hook, nothing retains the box.  make_shared pays one heap allocation
// plus a control block per message for that lifetime; an Arena pays a
// pointer bump.  EngineCore owns one arena per shard, hands it to agents
// through Context::arena, and resets it at the shard barrier (the start
// of the next round) — so an arena-boxed payload is valid for exactly one
// round, the natural lifetime of a message.
//
// Design:
//   * chunked bump allocation — fixed-size chunks allocated on demand and
//     *kept* across reset(), so a steady-state round allocates nothing;
//   * objects larger than a chunk get a dedicated exact-size chunk
//     (freed on reset — oversized bursts don't pin memory forever);
//   * non-trivially-destructible objects register a finalizer, run in
//     reverse construction order by reset()/destruction — arena payloads
//     may own heap state (a VoteIntention's vector) without leaking;
//   * under AddressSanitizer, reset() poisons the chunks it keeps and
//     allocate()/create() unpoison only the block they hand out, so a
//     payload wrongly retained past the barrier faults on its next read
//     rather than reading a later round's object.
//
// Arena is NOT thread-safe: one arena per shard, by construction touched
// only by that shard's phase task (the same ownership discipline as the
// per-agent RNG streams).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rfc::support {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) noexcept
      : chunk_bytes_(chunk_bytes) {}
  ~Arena() { release_all(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw storage of `size` bytes aligned to `align` (a power of two).
  /// Never returns null; falls back to a dedicated chunk for objects that
  /// cannot fit a standard chunk.
  void* allocate(std::size_t size, std::size_t align);

  /// Constructs a T in the arena.  The object lives until reset() (or the
  /// arena's destruction); its destructor runs then, in reverse
  /// construction order.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          Finalizer{obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return obj;
  }

  /// Destroys every object (reverse construction order), frees oversized
  /// chunks, and rewinds the standard chunks for reuse — the steady state
  /// allocates nothing.
  void reset();

  // --- Introspection (tests, memory accounting) ---------------------------
  std::size_t bytes_allocated() const noexcept { return bytes_allocated_; }
  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  std::uint64_t total_resets() const noexcept { return total_resets_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
    bool oversized = false;  ///< Dedicated large-object chunk; freed on reset.
  };
  struct Finalizer {
    void* object;
    void (*destroy)(void*);
  };

  void release_all();

  std::size_t chunk_bytes_;
  std::size_t current_ = 0;  ///< Index of the chunk being bumped.
  std::size_t bytes_allocated_ = 0;  ///< Live bytes since the last reset.
  std::uint64_t total_resets_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<Finalizer> finalizers_;
};

}  // namespace rfc::support
