// OffsetAllocator (first fit over the unallocated ranges) and SymmetricHeap.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>

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

TEST(OffsetAllocator, ZeroByteAllocThrows) {
  OffsetAllocator a(128);
  EXPECT_THROW(a.alloc(0, 1), std::invalid_argument);
}

TEST(OffsetAllocator, NonPowerOfTwoAlignThrows) {
  OffsetAllocator a(128);
  EXPECT_THROW(a.alloc(8, 3), std::invalid_argument);
}

TEST(OffsetAllocatorProperty, RandomAllocsAreFirstFit) {
  // Random sizes and alignments until the space runs out. Every block is
  // aligned, overlaps no other, and lands in the lowest range that can
  // hold it: alignment holes are reused, and a null result means no range
  // could. `live` maps offset -> length.
  Xoshiro256 rng(77);
  constexpr std::uint64_t kSize = 1 << 16;
  OffsetAllocator a(kSize);
  std::map<std::uint64_t, std::uint64_t> live;
  std::uint64_t used = 0;
  int hole_reuses = 0;
  int nulls = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t len = 1 + rng.below(64);
    const std::uint64_t align = std::uint64_t{1} << rng.below(9);
    // The lowest aligned start among the unallocated ranges, or kNull.
    std::uint64_t want = SymPtr::kNull;
    std::uint64_t gap = 0;
    const auto try_gap = [&](std::uint64_t end) {
      const std::uint64_t start = (gap + align - 1) & ~(align - 1);
      if (want == SymPtr::kNull && start + len <= end) want = start;
    };
    for (const auto& [off, n] : live) {
      try_gap(off);
      gap = off + n;
    }
    try_gap(kSize);
    const std::uint64_t high_water =
        live.empty() ? 0 : live.rbegin()->first + live.rbegin()->second;

    const std::uint64_t off = a.alloc(len, align);
    ASSERT_EQ(off, want) << "step " << step;
    if (off == SymPtr::kNull) {
      ++nulls;
      continue;
    }
    ASSERT_EQ(off % align, 0u);
    const auto next = live.lower_bound(off);
    ASSERT_TRUE(next == live.end() || off + len <= next->first);
    if (next != live.begin()) {
      const auto prev = std::prev(next);
      ASSERT_LE(prev->first + prev->second, off) << "overlapping allocation";
    }
    if (off < high_water) ++hole_reuses;
    live.emplace(off, len);
    used += len;
    ASSERT_EQ(a.bytes_free(), kSize - used);
  }
  EXPECT_GT(hole_reuses, 100) << "alignment holes were not reused";
  EXPECT_GT(nulls, 0) << "the space never ran out";
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
