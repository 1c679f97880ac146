// Unit tests for the per-round bump allocator (support/arena.hpp):
// alignment guarantees, reset-and-reuse (the steady state allocates
// nothing), large-object fallback chunks, finalizer ordering, and (under
// AddressSanitizer) the poisoning of reset memory.

#include "support/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define RFC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFC_TEST_ASAN 1
#endif
#endif

namespace rfc::support {
namespace {

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  // Interleave odd sizes with strict alignments; every pointer must honor
  // the requested alignment regardless of what preceded it.
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    for (std::size_t size : {1u, 3u, 7u, 24u, 100u}) {
      void* p = arena.allocate(size, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "size=" << size << " align=" << align;
      std::memset(p, 0xAB, size);  // Must be writable storage.
    }
  }
}

TEST(ArenaTest, ZeroSizeAllocationYieldsDistinctPointer) {
  Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a, b);  // Size 0 is bumped to 1 byte, so pointers are unique.
}

TEST(ArenaTest, ResetRewindsAndReusesChunks) {
  Arena arena;
  // Fill several chunks' worth.
  for (int i = 0; i < 100; ++i) arena.allocate(4096, 8);
  const std::size_t chunks_after_fill = arena.chunk_count();
  EXPECT_GT(chunks_after_fill, 1u);
  EXPECT_EQ(arena.bytes_allocated(), 100u * 4096u);

  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.total_resets(), 1u);
  // Standard chunks survive the reset...
  EXPECT_EQ(arena.chunk_count(), chunks_after_fill);

  // ...and the same workload reuses them instead of growing the arena.
  for (int i = 0; i < 100; ++i) arena.allocate(4096, 8);
  EXPECT_EQ(arena.chunk_count(), chunks_after_fill);
}

TEST(ArenaTest, FirstAllocationOfFreshChunkIsReused) {
  Arena arena;
  void* first = arena.allocate(64, 8);
  arena.reset();
  void* again = arena.allocate(64, 8);
  // Bump rewind: the first post-reset allocation lands on the same storage.
  EXPECT_EQ(first, again);
}

TEST(ArenaTest, LargeObjectsGetDedicatedChunksFreedOnReset) {
  Arena arena;  // 64 KiB standard chunks.
  void* big = arena.allocate(Arena::kDefaultChunkBytes * 4, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  std::memset(big, 0xCD, Arena::kDefaultChunkBytes * 4);

  // A small allocation after the oversized one must not land inside it.
  void* small = arena.allocate(16, 8);
  ASSERT_NE(small, nullptr);
  const std::size_t with_big = arena.chunk_count();

  arena.reset();
  // The dedicated chunk is gone; standard chunks are kept.
  EXPECT_LT(arena.chunk_count(), with_big);

  // The arena still works after dropping the oversized chunk.
  void* p = arena.allocate(128, 8);
  ASSERT_NE(p, nullptr);
}

struct Tracked {
  explicit Tracked(std::vector<int>* log_, int id_) : log(log_), id(id_) {
    heap.resize(8, id_);  // Owns real heap state, like a VoteIntention.
  }
  ~Tracked() { log->push_back(id); }
  std::vector<int>* log;
  int id;
  std::vector<int> heap;
};

TEST(ArenaTest, CreateRunsDestructorsInReverseOrderOnReset) {
  std::vector<int> destroyed;
  Arena arena;
  Tracked* a = arena.create<Tracked>(&destroyed, 1);
  Tracked* b = arena.create<Tracked>(&destroyed, 2);
  Tracked* c = arena.create<Tracked>(&destroyed, 3);
  EXPECT_EQ(a->heap[0], 1);
  EXPECT_EQ(b->heap[0], 2);
  EXPECT_EQ(c->heap[0], 3);
  EXPECT_TRUE(destroyed.empty());

  arena.reset();
  EXPECT_EQ(destroyed, (std::vector<int>{3, 2, 1}));

  // A second reset must not double-run finalizers.
  arena.reset();
  EXPECT_EQ(destroyed.size(), 3u);
}

TEST(ArenaTest, DestructorFinalizesLiveObjects) {
  std::vector<int> destroyed;
  {
    Arena arena;
    arena.create<Tracked>(&destroyed, 7);
  }
  EXPECT_EQ(destroyed, (std::vector<int>{7}));
}

TEST(ArenaTest, TriviallyDestructibleTypesRegisterNoFinalizer) {
  // Indirect check: creating many trivially-destructible objects and
  // resetting must work (nothing to verify beyond no crash and reuse), and
  // create() returns properly aligned, constructed objects.
  Arena arena;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t* v = arena.create<std::uint64_t>(0xDEADBEEFu + i);
    ASSERT_EQ(*v, 0xDEADBEEFu + static_cast<std::uint64_t>(i));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(v) % alignof(std::uint64_t),
              0u);
  }
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
}

TEST(ArenaTest, SmallChunkArenaStillServesMixedSizes) {
  Arena arena(256);  // Tiny chunks force frequent chunk turnover.
  std::vector<void*> ptrs;
  for (int i = 0; i < 64; ++i) {
    void* p = arena.allocate(static_cast<std::size_t>(1 + (i * 37) % 300), 8);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  // All pointers distinct.
  std::sort(ptrs.begin(), ptrs.end());
  EXPECT_EQ(std::adjacent_find(ptrs.begin(), ptrs.end()), ptrs.end());
}

TEST(ArenaDeathTest, ReadingAnObjectKeptPastResetFaultsUnderAsan) {
#ifndef RFC_TEST_ASAN
  GTEST_SKIP() << "reset() poisons its chunks only in AddressSanitizer builds";
#else
  // A trivially destructible object has no finalizer and its chunk is
  // kept, so without poisoning this read would quietly return 42.
  EXPECT_DEATH(
      {
        Arena arena;
        const std::uint64_t* kept = arena.create<std::uint64_t>(42u);
        arena.reset();
        const volatile std::uint64_t value = *kept;
        (void)value;
      },
      "use-after-poison");
#endif
}

TEST(ArenaTest, BlocksHandedOutAfterResetAreUsable) {
  // Under AddressSanitizer this checks that allocate() unpoisons what it
  // hands out of a poisoned, reused chunk; elsewhere it is plain reuse.
  Arena arena;
  arena.create<std::uint64_t>(1u);
  arena.reset();
  std::uint64_t* reused = arena.create<std::uint64_t>(7u);
  EXPECT_EQ(*reused, 7u);
  *reused = 9u;
  EXPECT_EQ(*reused, 9u);
}

}  // namespace
}  // namespace rfc::support
