// OffsetAllocator (first-fit free list with coalescing) and SymmetricHeap.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>

#include "common/rng.hpp"
#include "pgas/symmetric_heap.hpp"

namespace sws::pgas {
namespace {

TEST(OffsetAllocator, AllocatesSequentiallyFromEmpty) {
  OffsetAllocator a(1024);
  EXPECT_EQ(a.alloc(100, 1), 0u);
  EXPECT_EQ(a.alloc(100, 1), 100u);
  EXPECT_EQ(a.bytes_free(), 824u);
}

TEST(OffsetAllocator, RespectsAlignment) {
  OffsetAllocator a(1024);
  EXPECT_EQ(a.alloc(10, 1), 0u);
  const std::uint64_t b = a.alloc(8, 64);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_EQ(b, 64u);
}

TEST(OffsetAllocator, AlignmentPaddingStaysAllocatable) {
  OffsetAllocator a(1024);
  (void)a.alloc(10, 1);       // [0,10)
  (void)a.alloc(8, 64);       // [64,72); pad [10,64) stays free
  EXPECT_EQ(a.alloc(54, 1), 10u) << "padding hole should be reused";
}

TEST(OffsetAllocator, ExhaustionReturnsNull) {
  OffsetAllocator a(128);
  EXPECT_NE(a.alloc(128, 1), SymPtr::kNull);
  EXPECT_EQ(a.alloc(1, 1), SymPtr::kNull);
}

TEST(OffsetAllocator, FreeCoalescesWithNext) {
  OffsetAllocator a(300);
  const auto x = a.alloc(100, 1);
  const auto y = a.alloc(100, 1);
  (void)a.alloc(100, 1);
  a.free(y);
  a.free(x);  // coalesces with the following free block
  EXPECT_EQ(a.alloc(200, 1), 0u);
}

TEST(OffsetAllocator, FreeCoalescesWithPrev) {
  OffsetAllocator a(300);
  const auto x = a.alloc(100, 1);
  const auto y = a.alloc(100, 1);
  (void)a.alloc(100, 1);
  a.free(x);
  a.free(y);  // coalesces with the preceding free block
  EXPECT_EQ(a.alloc(200, 1), 0u);
}

TEST(OffsetAllocator, FreeCoalescesBothSides) {
  OffsetAllocator a(300);
  const auto x = a.alloc(100, 1);
  const auto y = a.alloc(100, 1);
  const auto z = a.alloc(100, 1);
  a.free(x);
  a.free(z);
  a.free(y);  // bridges both neighbors
  EXPECT_EQ(a.bytes_free(), 300u);
  EXPECT_EQ(a.alloc(300, 1), 0u);
}

TEST(OffsetAllocator, DoubleFreeThrows) {
  OffsetAllocator a(128);
  const auto x = a.alloc(64, 1);
  a.free(x);
  EXPECT_THROW(a.free(x), std::invalid_argument);
}

TEST(OffsetAllocator, FreeUnknownOffsetThrows) {
  OffsetAllocator a(128);
  EXPECT_THROW(a.free(7), std::invalid_argument);
}

TEST(OffsetAllocator, ZeroByteAllocThrows) {
  OffsetAllocator a(128);
  EXPECT_THROW(a.alloc(0, 1), std::invalid_argument);
}

TEST(OffsetAllocator, NonPowerOfTwoAlignThrows) {
  OffsetAllocator a(128);
  EXPECT_THROW(a.alloc(8, 3), std::invalid_argument);
}

TEST(OffsetAllocatorProperty, RandomAllocFreeNeverOverlapsAndFullyRecovers) {
  Xoshiro256 rng(77);
  OffsetAllocator a(1 << 16);
  struct Block {
    std::uint64_t off, len;
  };
  std::vector<Block> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.below(2) == 0) {
      const std::uint64_t len = 1 + rng.below(512);
      const std::uint64_t align = std::uint64_t{1} << rng.below(7);
      const std::uint64_t off = a.alloc(len, align);
      if (off == SymPtr::kNull) continue;
      ASSERT_EQ(off % align, 0u);
      for (const Block& b : live) {
        ASSERT_TRUE(off + len <= b.off || b.off + b.len <= off)
            << "overlapping allocation";
      }
      live.push_back({off, len});
    } else {
      const auto i = rng.below(live.size());
      a.free(live[i].off);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (const Block& b : live) a.free(b.off);
  EXPECT_EQ(a.bytes_free(), std::uint64_t{1} << 16);
  EXPECT_EQ(a.live_allocations(), 0u);
  EXPECT_EQ(a.alloc((1 << 16), 1), 0u) << "space must fully coalesce";
}

TEST(SymmetricHeap, SameOffsetOnEveryPe) {
  SymmetricHeap h(4, 4096);
  const SymPtr p = h.alloc(64);
  for (int pe = 0; pe < 4; ++pe) {
    std::byte* addr = h.local(pe, p);
    EXPECT_EQ(addr - h.arena_base(pe), static_cast<std::ptrdiff_t>(p.off));
  }
}

TEST(SymmetricHeap, ArenasAreDistinctPerPe) {
  SymmetricHeap h(2, 4096);
  const SymPtr p = h.alloc(8);
  *reinterpret_cast<std::uint64_t*>(h.local(0, p)) = 111;
  *reinterpret_cast<std::uint64_t*>(h.local(1, p)) = 222;
  EXPECT_EQ(*reinterpret_cast<std::uint64_t*>(h.local(0, p)), 111u);
  EXPECT_EQ(*reinterpret_cast<std::uint64_t*>(h.local(1, p)), 222u);
}

TEST(SymmetricHeap, ZeroClearsOnOnePeOnly) {
  SymmetricHeap h(2, 4096);
  const SymPtr p = h.alloc(8);
  *reinterpret_cast<std::uint64_t*>(h.local(0, p)) = 5;
  *reinterpret_cast<std::uint64_t*>(h.local(1, p)) = 5;
  h.zero(0, p, 8);
  EXPECT_EQ(*reinterpret_cast<std::uint64_t*>(h.local(0, p)), 0u);
  EXPECT_EQ(*reinterpret_cast<std::uint64_t*>(h.local(1, p)), 5u);
}

TEST(SymmetricHeap, ExhaustionThrowsBadAlloc) {
  SymmetricHeap h(1, 256);
  EXPECT_THROW(h.alloc(10'000), std::bad_alloc);
}

TEST(SymmetricHeap, FreeRecyclesSpace) {
  SymmetricHeap h(1, 256);
  const SymPtr p = h.alloc(200);
  h.free(p);
  EXPECT_NO_THROW(h.alloc(200));
}

TEST(SymmetricHeap, ArenaStartsZeroed) {
  // Fresh allocations read zero on every PE, across page boundaries.
  SymmetricHeap h(8, 3 * 4096 + 100);
  const SymPtr a = h.alloc(4096);
  const SymPtr b = h.alloc(2 * 4096 + 100, 64);
  for (int pe = 0; pe < h.npes(); ++pe) {
    for (std::uint64_t i = 0; i < 4096; ++i)
      ASSERT_EQ(static_cast<int>(*h.local(pe, a, i)), 0) << "pe " << pe;
    for (std::uint64_t i = 0; i < 2 * 4096 + 100; ++i)
      ASSERT_EQ(static_cast<int>(*h.local(pe, b, i)), 0) << "pe " << pe;
  }
}

/// Resident set size in bytes, from /proc/self/statm.
std::size_t resident_bytes() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2)
    pages_resident = 0;
  std::fclose(f);
  return static_cast<std::size_t>(pages_resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(SymmetricHeap, LargeHeapIsNotResidentUntilTouched) {
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  SymmetricHeap h(4096, std::size_t{1} << 20);
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (std::size_t{64} << 20))
      << "a 4 GiB heap must not be backed before first touch";
  // The last PE's arena is mapped and writable.
  const SymPtr p = h.alloc(4096);
  std::memset(h.local(4095, p), 1, 4096);
  EXPECT_EQ(static_cast<int>(*h.local(4095, p, 4095)), 1);
}

// Guard-page death test state: the address the write must fault on.
const std::byte* g_guard = nullptr;

void on_segv(int, siginfo_t* si, void*) {
  const bool at_guard = si->si_addr == g_guard;
  const char* msg = at_guard ? "fault on the arena guard page\n"
                             : "fault outside the arena guard page\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
  _exit(at_guard ? 3 : 4);
}

TEST(SymmetricHeapDeathTest, WritePastArenaFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_EXIT(
      {
        SymmetricHeap h(2, 4 * page);
        g_guard = h.arena_base(0) + h.size();
        struct sigaction sa {};
        sa.sa_sigaction = on_segv;
        sa.sa_flags = SA_SIGINFO;
        sigaction(SIGSEGV, &sa, nullptr);
        *reinterpret_cast<volatile std::byte*>(h.arena_base(0) + h.size()) =
            std::byte{1};
      },
      ::testing::ExitedWithCode(3), "fault on the arena guard page");
}

#if defined(__SANITIZE_ADDRESS__)
TEST(SymmetricHeapDeathTest, AsanReportsReadPastUnroundedArena) {
  // 5000 bytes leave page-rounding slack before the guard page; it is
  // poisoned, so the first byte past the arena is still an ASan report.
  EXPECT_DEATH(
      {
        SymmetricHeap h(2, 5000);
        (void)*reinterpret_cast<volatile std::byte*>(h.arena_base(1) + 5000);
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace sws::pgas
