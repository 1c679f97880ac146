#include "support/arena.hpp"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#define RFC_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFC_ARENA_ASAN 1
#endif
#endif

#ifdef RFC_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rfc::support {

namespace {

// Blocks are recycled, never freed, so a payload retained past reset()
// would read whatever the next round bump-allocated there without any
// complaint.  Under AddressSanitizer, reset() poisons the chunks it keeps
// and allocate() unpoisons exactly the block it hands out: such a read
// faults at once.  Both compile to nothing otherwise.
inline void poison(void* p, std::size_t size) noexcept {
#ifdef RFC_ARENA_ASAN
  ASAN_POISON_MEMORY_REGION(p, size);
#else
  (void)p;
  (void)size;
#endif
}

inline void unpoison(void* p, std::size_t size) noexcept {
#ifdef RFC_ARENA_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, size);
#else
  (void)p;
  (void)size;
#endif
}

inline std::uintptr_t align_up(std::uintptr_t value,
                               std::size_t align) noexcept {
  return (value + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  // Objects that cannot fit a standard chunk get a dedicated one (freed on
  // reset); `+ align` guarantees an aligned pointer exists inside it.
  if (size + align > chunk_bytes_) {
    Chunk c;
    c.capacity = size + align;
    c.data = std::unique_ptr<std::byte[]>(new std::byte[c.capacity]);
    c.used = c.capacity;
    c.oversized = true;
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(c.data.get());
    void* p = c.data.get() + (align_up(base, align) - base);
    chunks_.push_back(std::move(c));
    bytes_allocated_ += size;
    return p;
  }
  for (;;) {
    if (current_ < chunks_.size()) {
      Chunk& c = chunks_[current_];
      if (!c.oversized) {
        const std::uintptr_t base =
            reinterpret_cast<std::uintptr_t>(c.data.get());
        const std::size_t offset = align_up(base + c.used, align) - base;
        if (offset + size <= c.capacity) {
          c.used = offset + size;
          bytes_allocated_ += size;
          unpoison(c.data.get() + offset, size);
          return c.data.get() + offset;
        }
      }
      ++current_;  // Full (or oversized) chunk; try the next one.
      continue;
    }
    Chunk c;
    c.capacity = chunk_bytes_;
    c.data = std::unique_ptr<std::byte[]>(new std::byte[c.capacity]);
    current_ = chunks_.size();
    chunks_.push_back(std::move(c));
  }
}

void Arena::reset() {
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->destroy(it->object);
  }
  finalizers_.clear();
  chunks_.erase(std::remove_if(chunks_.begin(), chunks_.end(),
                               [](const Chunk& c) { return c.oversized; }),
                chunks_.end());
  for (Chunk& c : chunks_) {
    c.used = 0;
    poison(c.data.get(), c.capacity);
  }
  current_ = 0;
  bytes_allocated_ = 0;
  ++total_resets_;
}

void Arena::release_all() {
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->destroy(it->object);
  }
  finalizers_.clear();
  chunks_.clear();
}

}  // namespace rfc::support
