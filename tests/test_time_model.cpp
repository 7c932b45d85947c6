// The virtual-time sequencer: the determinism and ordering guarantees the
// whole reproduction rests on.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/fiber.hpp"
#include "net/ready_tree.hpp"
#include "net/time_model.hpp"
#include "sws.hpp"

namespace sws::net {
namespace {

// TSan instruments every fiber switch and plain access, so the largest
// sizes below would take most of the TSan lane's budget; under it they
// shrink to sizes that still exercise what each test is about.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif

TEST(VirtualTime, ClocksAdvanceExactly) {
  VirtualTimeModel tm(2);
  tm.run_pes(2, [&](int pe) {
    tm.advance(pe, pe == 0 ? 100 : 250);
    tm.advance(pe, 50);
  });
  EXPECT_EQ(tm.now(0), 150u);
  EXPECT_EQ(tm.now(1), 300u);
}

TEST(VirtualTime, ExecutionOrderFollowsMinClock) {
  // Each PE appends its id after each advance; the interleaving must be
  // exactly the (vtime, pe) order regardless of host scheduling.
  VirtualTimeModel tm(3);
  std::vector<int> order;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int> this_order;
    tm.run_pes(3, [&](int pe) {
      for (int i = 0; i < 3; ++i) {
        tm.advance(pe, static_cast<Nanos>(100 * (pe + 1)));
        this_order.push_back(pe);  // safe: only one PE runs at a time
      }
    });
    if (trial == 0)
      order = this_order;
    else
      EXPECT_EQ(this_order, order) << "nondeterministic interleaving";
  }
  // PE0 advances 100/200/300; PE1 200/400/600; PE2 300/600/900.
  // Events sorted by (completion time, pe): 100·0, 200·0, 200·1, 300·0,
  // 300·2, 400·1, 600·1, 600·2, 900·2.
  const std::vector<int> expect = {0, 0, 1, 0, 2, 1, 1, 2, 2};
  EXPECT_EQ(order, expect);
}

TEST(VirtualTime, ZeroAdvanceKeepsBatonOnTies) {
  VirtualTimeModel tm(2);
  std::vector<int> order;
  tm.run_pes(2, [&](int pe) {
    tm.advance(pe, 10);
    order.push_back(pe);
  });
  // Both reach t=10; tie-break by id: PE0 runs first from t=0.
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(VirtualTime, ArbiterReordersTiedPes) {
  // The schedule explorer's hook: when several PEs are tied at the time
  // floor, the arbiter (not the lowest-id default) picks who runs.
  VirtualTimeModel tm(3);
  std::vector<std::vector<int>> ready_sets;
  tm.set_ready_arbiter([&](int caller, const std::vector<int>& ready,
                           Nanos /*now*/) {
    EXPECT_GE(caller, 0);
    EXPECT_LT(caller, 3);
    EXPECT_TRUE(std::is_sorted(ready.begin(), ready.end()))
        << "tied PEs must be presented in ascending id order";
    EXPECT_GE(ready.size(), 2u);
    ready_sets.push_back(ready);
    return ready.back();  // deliberately invert the default tie-break
  });
  std::vector<int> order;
  tm.run_pes(3, [&](int pe) {
    tm.advance(pe, 10);
    order.push_back(pe);
  });
  // All three tie at t=10; highest-id-first is the arbiter's doing.
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_FALSE(ready_sets.empty());

  // Clearing the arbiter restores the deterministic lowest-id default.
  tm.set_ready_arbiter(nullptr);
  order.clear();
  tm.run_pes(3, [&](int pe) {
    tm.advance(pe, 10);
    order.push_back(pe);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(VirtualTime, DeliveryHookFiresAtTimeFloor) {
  VirtualTimeModel tm(2);
  std::vector<Nanos> hook_times;
  tm.set_delivery_hook([&](Nanos now) {
    hook_times.push_back(now);
    return net::kNoPendingDeadline;
  });
  tm.run_pes(2, [&](int pe) { tm.advance(pe, pe == 0 ? 100 : 70); });
  ASSERT_FALSE(hook_times.empty());
  // Hook times never decrease: deliveries respect global time order.
  for (std::size_t i = 1; i < hook_times.size(); ++i)
    EXPECT_GE(hook_times[i], hook_times[i - 1]);
}

TEST(VirtualTime, ManyPesTerminate) {
  VirtualTimeModel tm(64);
  int done = 0;
  tm.run_pes(64, [&](int pe) {
    for (int i = 0; i < 10; ++i) tm.advance(pe, 17 + pe);
    ++done;
  });
  EXPECT_EQ(done, 64);
}

TEST(VirtualTime, ResetClearsClocks) {
  VirtualTimeModel tm(2);
  tm.run_pes(2, [&](int pe) { tm.advance(pe, 500); });
  tm.reset(2);
  EXPECT_EQ(tm.now(0), 0u);
  EXPECT_EQ(tm.now(1), 0u);
}

TEST(VirtualTime, HorizonBatchingSkipsHookUntilReportedDeadline) {
  // A single PE has no competing clock, so its batching horizon is
  // whatever deadline the delivery hook reports: advances strictly below
  // it must not re-enter the sequencer, and the first advance reaching it
  // must fire the hook again.
  VirtualTimeModel tm(1);
  std::vector<Nanos> hook_times;
  tm.set_delivery_hook([&](Nanos now) {
    hook_times.push_back(now);
    return now < 100 ? Nanos{100} : kNoPendingDeadline;
  });
  tm.run_pes(1, [&](int pe) {
    tm.advance(pe, 10);  // slow path (initial horizon 0): hook at 10
    tm.advance(pe, 30);  // 40  < 100: batched
    tm.advance(pe, 30);  // 70  < 100: batched
    tm.advance(pe, 30);  // 100 >= 100: hook at 100
  });
  // The PE's exit leaves no runnable PE, so no further hook fires.
  EXPECT_EQ(hook_times, (std::vector<Nanos>{10, 100}));
}

TEST(VirtualTime, ClampHorizonForcesDeliverySweep) {
  // What Fabric::enqueue_nbi does after queueing an op: shrink the
  // issuing PE's horizon to the delivery deadline so batching cannot run
  // past it.
  VirtualTimeModel tm(1);
  std::vector<Nanos> hook_times;
  tm.set_delivery_hook([&](Nanos now) {
    hook_times.push_back(now);
    return kNoPendingDeadline;  // hook reports nothing pending...
  });
  tm.run_pes(1, [&](int pe) {
    tm.advance(pe, 10);          // hook at 10, horizon now unbounded
    tm.clamp_horizon(pe, 50);    // ...but an op was just scheduled for 50
    tm.advance(pe, 30);          // 40 < 50: batched
    tm.advance(pe, 30);          // 70 >= 50: hook at 70
  });
  EXPECT_EQ(hook_times, (std::vector<Nanos>{10, 70}));
}

TEST(VirtualTime, NowIsReadableFromOtherPes) {
  // The running PE may read any suspended PE's clock.
  VirtualTimeModel tm(2);
  tm.run_pes(2, [&](int pe) {
    tm.advance(pe, pe == 0 ? 10 : 100);
    // When PE1's first advance returns (t=100), PE0 has already published
    // its second advance (10 + 100) and is suspended waiting to run.
    if (pe == 1) {
      EXPECT_EQ(tm.now(0), 110u);
    }
    tm.advance(pe, 100);
  });
  EXPECT_EQ(tm.now(0), 110u);
  EXPECT_EQ(tm.now(1), 200u);
}

// --- the fiber engine -----------------------------------------------------

TEST(FiberEngine, RerunsReuseStacks) {
  VirtualTimeModel tm(4);
  const auto body = [&](int pe) { tm.advance(pe, 10 + pe); };
  const std::uint64_t before = Fiber::stacks_mapped();
  tm.run_pes(4, body);
  const std::uint64_t after_first = Fiber::stacks_mapped();
  EXPECT_EQ(after_first - before, 4u);
  tm.run_pes(4, body);
  EXPECT_EQ(Fiber::stacks_mapped(), after_first) << "second run remapped";
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_EQ(tm.now(pe), static_cast<Nanos>(10 + pe));
}

TEST(FiberEngine, RerunsAcrossPeCounts) {
  // Growing the PE count reallocates the slot array that holds the fiber
  // contexts, and shrinking it unmaps the spare stacks, so every run must
  // arm each context afresh on its PE's current stack. Each run is checked
  // against the order its clocks imply and against a fresh model.
  const auto steps = [](int pe) { return 2 + pe % 3; };
  const auto step = [](int pe) {
    return Nanos{1} + static_cast<Nanos>(pe * 37 % 11);
  };
  // Past a power-of-two ready tree: 4100 > 4096 leaves (TSan: 1030 > 1024).
  constexpr int kBig = kTsan ? 1030 : 4100;
  VirtualTimeModel tm;
  for (const int n : {4, kBig, 3, kBig}) {
    const auto run = [&](VirtualTimeModel& m) {
      std::vector<int> order;
      m.run_pes(n, [&](int pe) {
        for (int i = 0; i < steps(pe); ++i) m.advance(pe, step(pe));
        order.push_back(pe);
      });
      return order;
    };
    // The fresh model runs first and is gone before `tm` runs: TSan caps
    // live fibers near 8k.
    std::vector<int> fresh_order;
    std::uint64_t fresh_switches = 0;
    {
      VirtualTimeModel fresh;
      fresh_order = run(fresh);
      fresh_switches = fresh.switches();
    }
    const std::vector<int> order = run(tm);
    // With positive steps a PE finishes when (its final clock, its id) is
    // the minimum among those still running.
    std::vector<int> want(static_cast<std::size_t>(n));
    for (int pe = 0; pe < n; ++pe) want[static_cast<std::size_t>(pe)] = pe;
    const auto final_clock = [&](int pe) {
      return static_cast<Nanos>(steps(pe)) * step(pe);
    };
    std::stable_sort(want.begin(), want.end(), [&](int a, int b) {
      return final_clock(a) < final_clock(b);
    });
    ASSERT_EQ(order, want) << "n=" << n;
    for (int pe = 0; pe < n; ++pe)
      ASSERT_EQ(tm.now(pe), final_clock(pe)) << "n=" << n << " pe " << pe;
    EXPECT_EQ(fresh_order, order) << "n=" << n;
    EXPECT_EQ(tm.switches(), fresh_switches) << "n=" << n;
    EXPECT_GT(tm.switches(), 0u) << "n=" << n;
  }
}

TEST(FiberEngine, LockstepRunAt4096Pes) {
  // Equal steps: every advance hands off to the next PE.
  constexpr int kPes = 4096;
  constexpr int kSteps = 8;
  VirtualTimeModel tm(kPes);
  std::vector<int> order;
  tm.run_pes(kPes, [&](int pe) {
    for (int i = 0; i < kSteps; ++i) tm.advance(pe, 100);
    order.push_back(pe);
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kPes));
  for (int pe = 0; pe < kPes; ++pe) {
    ASSERT_EQ(order[static_cast<std::size_t>(pe)], pe);
    ASSERT_EQ(tm.now(pe), Nanos{100} * kSteps);
  }
}

/// Advances once per frame on the way down `depth` frames, then dies at
/// the bottom: the throw unwinds frames that were suspended and resumed.
[[gnu::noinline]] void die_deep(VirtualTimeModel& tm, int pe, int depth) {
  tm.advance(pe, 10);
  if (depth == 0) throw PeKilled{pe, tm.now(pe)};
  die_deep(tm, pe, depth - 1);
  tm.advance(pe, 1'000'000);  // never reached; keeps the call non-tail
}

TEST(FiberEngine, PeKilledEndsOnlyItsOwnPe) {
  VirtualTimeModel tm(4);
  std::vector<PeKilled> deaths;
  tm.run_pes(4, [&](int pe) {
    try {
      if (pe == 2) die_deep(tm, pe, 5);
      for (int i = 0; i < 20; ++i) tm.advance(pe, static_cast<Nanos>(7 + pe));
    } catch (const PeKilled& k) {
      deaths.push_back(k);
    }
  });
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].pe, 2);
  EXPECT_EQ(deaths[0].at_ns, 60u);  // six advances of 10, depth 5 to 0
  EXPECT_EQ(tm.now(2), 60u);
  for (const int pe : {0, 1, 3})
    EXPECT_EQ(tm.now(pe), static_cast<Nanos>(20 * (7 + pe))) << "pe " << pe;
}

TEST(FiberEngine, FirstBodyExceptionIsRethrownAfterAllFinish) {
  VirtualTimeModel tm(3);
  int finished = 0;
  EXPECT_THROW(tm.run_pes(3,
                          [&](int pe) {
                            tm.advance(pe, 10);
                            if (pe == 1) throw std::runtime_error("boom");
                            tm.advance(pe, 10);
                            ++finished;
                          }),
               std::runtime_error);
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(tm.now(0), 20u);
  EXPECT_EQ(tm.now(2), 20u);
}

// Guard-page death test state: the overflowing fiber's guard page and a
// canary at the top of another fiber's stack.
const std::byte* g_guard_lo = nullptr;
std::size_t g_page = 0;
volatile std::uint64_t* g_canary = nullptr;
constexpr std::uint64_t kCanary = 0x5eedfaceCafeF00dULL;

void on_segv(int, siginfo_t* si, void*) {
  const auto* addr = static_cast<const std::byte*>(si->si_addr);
  const bool in_guard = addr >= g_guard_lo && addr < g_guard_lo + g_page;
  const bool intact = *g_canary == kCanary;
  const char* msg = !in_guard ? "fault outside the guard page\n"
                    : !intact ? "guard page hit, neighbour corrupted\n"
                              : "fault on the fiber guard page\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
  _exit(in_guard && intact ? 3 : 4);
}

/// The top of the fiber stack that holds `frame`, the address of one of
/// the fiber's first frames: a fiber stack is page-aligned and a whole
/// number of pages, and its first frames sit in its top page.
std::byte* stack_top(const void* frame) {
  const auto a = reinterpret_cast<std::uintptr_t>(frame);
  return reinterpret_cast<std::byte*>((a + g_page - 1) & ~(g_page - 1));
}

/// A fiber that records its stack top and switches back for good.
struct TopProbe {
  FiberContext* self = nullptr;
  FiberContext* host = nullptr;
  std::byte* top = nullptr;
};

/// Unbounded in practice: `left` starts far beyond any stack.
[[gnu::noinline]] int overflow_stack(volatile char* prev, std::uint64_t left) {
  volatile char frame[512];
  frame[0] = static_cast<char>(prev != nullptr ? prev[0] + 1 : 0);
  if (left == 0) return frame[0];
  return overflow_stack(frame, left - 1) + frame[0];
}

TEST(FiberEngineDeathTest, StackOverflowFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Fiber victim;
        Fiber neighbour;
        FiberContext host;
        FiberContext victim_ctx;
        FiberContext neighbour_ctx;
        g_page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        TopProbe probe;
        probe.self = &neighbour_ctx;
        probe.host = &host;
        neighbour.arm(
            neighbour_ctx,
            [](void* arg) {
              auto* p = static_cast<TopProbe*>(arg);
              p->top = stack_top(__builtin_frame_address(0));
              fiber_switch(*p->self, *p->host, /*from_exits=*/true);
            },
            &probe);
        fiber_switch(host, neighbour_ctx);
        g_canary = reinterpret_cast<volatile std::uint64_t*>(probe.top - 64);
        *g_canary = kCanary;
        // The handler needs a stack of its own: the faulting one is full.
        static char alt[1 << 16];
        stack_t ss{};
        ss.ss_sp = alt;
        ss.ss_size = sizeof alt;
        sigaltstack(&ss, nullptr);
        struct sigaction sa {};
        sa.sa_sigaction = on_segv;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        victim.arm(
            victim_ctx,
            [](void*) {
              // The guard page lies just below the kStackBytes stack.
              g_guard_lo = stack_top(__builtin_frame_address(0)) -
                           Fiber::kStackBytes - g_page;
              overflow_stack(nullptr, ~std::uint64_t{0});
            },
            nullptr);
        fiber_switch(host, victim_ctx);
      },
      ::testing::ExitedWithCode(3), "fault on the fiber guard page");
}

// --- the ready tree ---------------------------------------------------------

TEST(ReadyTree, TopFollowsUpdatesAndRemovals) {
  ReadyTree t;
  t.reset(4);
  EXPECT_EQ(t.top(), 0);  // all zero: lowest id wins
  EXPECT_EQ(t.second_vtime(), 0u);
  t.update(0, 50);  // increase-key
  EXPECT_EQ(t.top(), 1);
  t.update(1, 30);
  t.update(2, 20);
  t.update(3, 40);
  EXPECT_EQ(t.top(), 2);
  EXPECT_EQ(t.second_vtime(), 30u);
  t.update(3, 10);  // decrease-key
  EXPECT_EQ(t.top(), 3);
  EXPECT_EQ(t.second_vtime(), 20u);
  t.remove(3);
  EXPECT_EQ(t.top(), 2);
  EXPECT_EQ(t.second_vtime(), 30u);  // the removed PE no longer counts
  t.remove(2);
  t.remove(1);
  EXPECT_EQ(t.top(), 0);
  EXPECT_EQ(t.second_vtime(), ReadyTree::kNoVtime);
  t.remove(0);
  EXPECT_EQ(t.top(), -1);
  EXPECT_EQ(t.second_vtime(), ReadyTree::kNoVtime);
}

TEST(ReadyTree, EmptyTreeHasNoTop) {
  ReadyTree t;
  t.reset(0);
  EXPECT_EQ(t.top(), -1);
  EXPECT_EQ(t.second_vtime(), ReadyTree::kNoVtime);
}

/// Drives a tree of `n` PEs with random updates and removals and checks
/// it against the linear (vtime, pe) scan the sequencer once ran on every
/// advance. Updates and removals hit any leaf, not only the top (the
/// explorer's arbiter activates tied PEs that are not the top), and keys
/// collide often so ties are common. Clocks are `base` plus an offset that
/// mostly grows and is capped at `cap`, so a run near the key limit piles
/// PEs up at the largest representable clock.
void check_against_naive_scan(int n, Nanos base, Nanos cap) {
  std::mt19937_64 rng(12345 + static_cast<std::uint64_t>(n));
  ReadyTree t;
  t.reset(n);
  std::vector<Nanos> key(static_cast<std::size_t>(n), base);
  for (int i = 0; i < n; ++i) t.update(i, base);
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  int live = n;
  const auto naive_top = [&] {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (alive[u] &&
          (best < 0 || key[u] < key[static_cast<std::size_t>(best)]))
        best = i;
    }
    return best;
  };
  const auto naive_second = [&](int top) {
    Nanos s = ReadyTree::kNoVtime;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (alive[u] && i != top && key[u] < s) s = key[u];
    }
    return s;
  };
  const int steps = std::max(2000, 8 * n);
  for (int step = 0; step < steps && live > 0; ++step) {
    const int pe = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const auto u = static_cast<std::size_t>(pe);
    if (!alive[u]) continue;
    if (rng() % 32 == 0) {
      t.remove(pe);
      alive[u] = false;
      --live;
    } else {
      // Mostly increase-key (the advance() pattern), sometimes decrease;
      // a narrow value range makes ties frequent.
      const Nanos off = key[u] - base;
      const Nanos v =
          base + std::min(cap, rng() % 8 == 0 ? off / 2 : off + rng() % 4 * 25);
      t.update(pe, v);
      key[u] = v;
    }
    const int top = naive_top();
    ASSERT_EQ(t.top(), top) << "n=" << n << " step " << step;
    ASSERT_EQ(t.second_vtime(), naive_second(top))
        << "n=" << n << " step " << step;
  }
  // Drain: once every PE is removed there is no top.
  for (int i = 0; i < n; ++i) t.remove(i);
  EXPECT_EQ(t.top(), -1) << "n=" << n;
  EXPECT_EQ(t.second_vtime(), ReadyTree::kNoVtime) << "n=" << n;
}

TEST(ReadyTree, MatchesNaiveScanUnderRandomOps) {
  // The sizes straddle powers of two so padding leaves take part in the
  // matches; each size runs from clock 0 and again just below the key
  // limit, where the largest clock's keys sit next to the sentinel.
  for (const int n : {1, 2, 3, 5, 64, 255, 256, 257, 1000}) {
    check_against_naive_scan(n, 0, ~Nanos{0});
    ReadyTree t;
    t.reset(n);
    const Nanos max = t.vtime_limit() - 1;  // the largest legal clock
    check_against_naive_scan(n, max - 4000, 4000);
  }
}

TEST(ReadyTree, LargestClockAtTwoAndAt4096Leaves) {
  // b = log2(leaves) bits of pe id below the clock; the all-ones key is
  // the sentinel, so the largest clock is 2^(64-b) - 2. Its key for the
  // highest id is one below the sentinel and must still be a live PE.
  for (const auto& [n, bits] : {std::pair{2, 1}, std::pair{4096, 12}}) {
    ReadyTree t;
    t.reset(n);
    const Nanos limit = (Nanos{1} << (64 - bits)) - 1;
    ASSERT_EQ(t.vtime_limit(), limit) << "n=" << n;
    const Nanos max = limit - 1;
    for (int pe = 0; pe < n; ++pe) t.update(pe, max);
    EXPECT_EQ(t.top(), 0) << "n=" << n;
    EXPECT_EQ(t.second_vtime(), max) << "n=" << n;
    for (int pe = 0; pe < n - 1; ++pe) t.remove(pe);
    EXPECT_EQ(t.top(), n - 1) << "n=" << n;
    EXPECT_EQ(t.second_vtime(), ReadyTree::kNoVtime) << "n=" << n;
    t.remove(n - 1);
    EXPECT_EQ(t.top(), -1) << "n=" << n;
  }
  // At 4096 PEs the clock may run for 2^52 - 2 ns, over 52 days.
  ReadyTree t;
  t.reset(4096);
  EXPECT_GE(t.vtime_limit() / 1'000'000'000 / 86'400, 52u);
}

TEST(ReadyTree, TiesAtTheHighestPeId) {
  // n = 8 fills every leaf; n = 6 leaves padding above the highest id.
  for (const int n : {6, 8}) {
    ReadyTree t;
    t.reset(n);
    const Nanos max = t.vtime_limit() - 1;
    for (const Nanos v : {Nanos{70}, max}) {
      // The lower ids lose: one tick later, or (no room above the
      // largest clock) retired.
      for (int pe = 0; pe < n - 2; ++pe)
        v == max ? t.remove(pe) : t.update(pe, v + 1);
      t.update(n - 2, v);
      t.update(n - 1, v);
      EXPECT_EQ(t.top(), n - 2) << "n=" << n << " v=" << v;
      EXPECT_EQ(t.second_vtime(), v) << "n=" << n << " v=" << v;
      t.remove(n - 2);
      EXPECT_EQ(t.top(), n - 1) << "n=" << n << " v=" << v;
      t.update(n - 2, v);  // back: wins the tie again
      EXPECT_EQ(t.top(), n - 2) << "n=" << n << " v=" << v;
    }
  }
}

TEST(ReadyTree, ClockAtTheKeyLimitFailsCheck) {
  ReadyTree t;
  t.reset(4096);
  t.update(7, 100);
  EXPECT_THROW(t.update(3, t.vtime_limit()), std::invalid_argument);
  EXPECT_THROW(t.update(3, ReadyTree::kNoVtime), std::invalid_argument);
  EXPECT_EQ(t.top(), 0);  // the failed update left the tree as it was
  EXPECT_EQ(t.second_vtime(), 0u);

  // Through the sequencer: the over-limit advance fails that PE's body
  // and run_pes() rethrows it after the others finish.
  VirtualTimeModel tm(2);
  EXPECT_THROW(tm.run_pes(2,
                          [&](int pe) {
                            tm.advance(pe, 10);
                            if (pe == 0) tm.advance(pe, Nanos{1} << 63);
                          }),
               std::invalid_argument);
  EXPECT_EQ(tm.now(1), 10u);
}

TEST(ReadyTree, ResetReusesForAnotherSize) {
  ReadyTree t;
  t.reset(300);
  for (int i = 0; i < 300; ++i) t.update(i, static_cast<Nanos>(1000 - i));
  EXPECT_EQ(t.top(), 299);
  t.reset(3);
  EXPECT_EQ(t.top(), 0);
  t.update(0, 7);
  EXPECT_EQ(t.top(), 1);
  EXPECT_EQ(t.second_vtime(), 0u);
}

// --- delivery hook: asked only when a delivery may be due -----------------

TEST(VirtualTime, DeliveryHookIsNotAskedWhenNothingIsDue) {
  // 64 PEs in lockstep: every advance hands off, so every advance is a
  // sequencer event. A hook that never has anything pending is asked at
  // the run's first event and then never again.
  constexpr int kPes = 64;
  constexpr int kSteps = 50;
  VirtualTimeModel tm(kPes);
  int calls = 0;
  tm.set_delivery_hook([&](Nanos) {
    ++calls;
    return kNoPendingDeadline;
  });
  tm.run_pes(kPes, [&](int pe) {
    for (int i = 0; i < kSteps; ++i) tm.advance(pe, 100);
  });
  EXPECT_GT(tm.switches(), std::uint64_t{kPes} * kSteps / 2);
  EXPECT_EQ(calls, 1);
  // Every run starts over: the hook is asked again, once.
  tm.run_pes(kPes, [&](int pe) { tm.advance(pe, 100); });
  EXPECT_EQ(calls, 2);
}

TEST(VirtualTime, ClampedDeadlineFiresHookAtFirstFloorPastIt) {
  // PE 0 schedules a delivery for t=250 mid-run; the hook must be asked
  // at the first time floor >= 250, with that floor as `now`, and not on
  // the events before it.
  VirtualTimeModel tm(4);
  std::vector<Nanos> hook_times;
  tm.set_delivery_hook([&](Nanos now) {
    hook_times.push_back(now);
    return kNoPendingDeadline;
  });
  std::vector<Nanos> floors;  // the clock every PE resumes at
  tm.run_pes(4, [&](int pe) {
    for (int i = 0; i < 6; ++i) {
      tm.advance(pe, 60 + 10 * static_cast<Nanos>(pe));
      floors.push_back(tm.now(pe));
      if (pe == 0 && i == 0) tm.clamp_horizon(pe, 250);
    }
  });
  ASSERT_EQ(hook_times.size(), 2u);
  EXPECT_EQ(hook_times[0], 0u);  // the run's first event: PE 1 starts
  Nanos first_past = kNoPendingDeadline;
  for (const Nanos f : floors)
    if (f >= 250 && f < first_past) first_past = f;
  EXPECT_EQ(hook_times[1], first_past);
}

// --- parked waits: park()/wake() against the literal polling loop ---------

constexpr Nanos kSlice = 200;

/// The barrier's wait in miniature: PE `waiter` polls `flag` every kSlice
/// from `wait_from`, either parked or literally (one advance per slice);
/// PE `writer` sets the flag at `write_at` and wakes the waiter. Any other
/// PE finishes at once. Returns the clock at which the waiter saw the flag.
struct WaitRun {
  Nanos seen = 0;
  int polls = 0;  ///< park() returns, or literal slices
  std::uint64_t switches = 0;
};

WaitRun wait_for_write(bool parked, int npes, int waiter, Nanos wait_from,
                       int writer, Nanos write_at,
                       VirtualTimeModel* model = nullptr) {
  VirtualTimeModel local(npes);
  VirtualTimeModel& tm = model != nullptr ? *model : local;
  bool flag = false;
  WaitRun r;
  tm.run_pes(npes, [&](int pe) {
    if (pe == waiter) {
      tm.advance(pe, wait_from);
      while (!flag) {
        if (parked)
          tm.park(pe, kSlice);
        else
          tm.advance(pe, kSlice);
        ++r.polls;
      }
      r.seen = tm.now(pe);
    } else if (pe == writer) {
      tm.advance(pe, write_at);
      flag = true;
      tm.wake(waiter, pe);  // a no-op for a literal waiter
    }
  });
  r.switches = tm.switches();
  return r;
}

TEST(ParkedWait, WriteOnASliceEndByALowerId) {
  // (400, writer 0) comes before the waiter's poll at (400, 1): seen there.
  const WaitRun lit = wait_for_write(false, 2, 1, 0, 0, 400);
  const WaitRun par = wait_for_write(true, 2, 1, 0, 0, 400);
  EXPECT_EQ(lit.seen, 400u);
  EXPECT_EQ(par.seen, lit.seen);
}

TEST(ParkedWait, WriteOnASliceEndByAHigherId) {
  // The poll at (400, 0) runs before the write at (400, 1): the next
  // slice end sees it.
  const WaitRun lit = wait_for_write(false, 2, 0, 0, 1, 400);
  const WaitRun par = wait_for_write(true, 2, 0, 0, 1, 400);
  EXPECT_EQ(lit.seen, 600u);
  EXPECT_EQ(par.seen, lit.seen);
}

TEST(ParkedWait, WriteAtTheParkInstant) {
  // d = 0: PE 0 checks at (100, 0) and parks; PE 1 writes at (100, 1).
  // The first slice end, 300, sees it.
  const WaitRun lit = wait_for_write(false, 2, 0, 100, 1, 100);
  const WaitRun par = wait_for_write(true, 2, 0, 100, 1, 100);
  EXPECT_EQ(lit.seen, 300u);
  EXPECT_EQ(par.seen, lit.seen);
  EXPECT_EQ(par.polls, 1);
}

TEST(ParkedWait, MatchesTheLiteralLoopOverOffsets) {
  for (const int waiter : {0, 2}) {
    for (const Nanos from : {0u, 70u, 200u}) {
      for (Nanos at = 0; at <= 1300; at += 50) {
        const int writer = 1;
        const WaitRun lit = wait_for_write(false, 3, waiter, from, writer, at);
        const WaitRun par = wait_for_write(true, 3, waiter, from, writer, at);
        EXPECT_EQ(par.seen, lit.seen)
            << "waiter " << waiter << " from " << from << " write at " << at;
        EXPECT_LE(par.switches, lit.switches);
      }
    }
  }
}

TEST(ParkedWait, WakeClampsTheWritersHorizon) {
  // PE 1 is out of the tree when PE 0 computes its horizon, so only the
  // wake can stop PE 0 from batching past the slice end (200) at which
  // PE 1 sees the write.
  using Event = std::pair<int, Nanos>;
  std::vector<std::vector<Event>> logs;
  for (const bool parked : {false, true}) {
    VirtualTimeModel tm(2);
    bool flag = false;
    std::vector<Event> log;
    tm.run_pes(2, [&](int pe) {
      if (pe == 1) {
        while (!flag) parked ? tm.park(pe, kSlice) : tm.advance(pe, kSlice);
        log.emplace_back(pe, tm.now(pe));
        return;
      }
      tm.advance(pe, 50);  // PE 1 runs and parks at 0
      tm.advance(pe, 10);  // PE 0's horizon no longer sees PE 1
      flag = true;
      tm.wake(1, pe);
      for (int i = 0; i < 3; ++i) {
        tm.advance(pe, 100);
        log.emplace_back(pe, tm.now(pe));
      }
    });
    logs.push_back(log);
  }
  const std::vector<Event> expect = {{0, 160}, {1, 200}, {0, 260}, {0, 360}};
  EXPECT_EQ(logs[0], expect);
  EXPECT_EQ(logs[1], expect);
}

TEST(ParkedWait, SpuriousWakeReparksOnTheSameGrid) {
  // PE 0 wakes the waiter at 300 without writing, then writes at 900. The
  // waiter resumes at 400, sees nothing, re-parks from 400 and sees the
  // write at 1000 — the literal loop's slice grid throughout.
  for (const bool parked : {false, true}) {
    VirtualTimeModel tm(2);
    bool flag = false;
    std::vector<Nanos> resumed;
    tm.run_pes(2, [&](int pe) {
      if (pe == 1) {
        while (!flag) {
          if (parked)
            tm.park(pe, kSlice);
          else
            tm.advance(pe, kSlice);
          resumed.push_back(tm.now(pe));
        }
        return;
      }
      tm.advance(pe, 300);
      tm.wake(1, pe);
      tm.advance(pe, 600);
      flag = true;
      tm.wake(1, pe);
    });
    EXPECT_EQ(resumed.back(), 1000u) << "parked " << parked;
    if (parked) {
      EXPECT_EQ(resumed, (std::vector<Nanos>{400, 1000}));
    } else {
      EXPECT_EQ(resumed.size(), 5u);
    }
  }
}

TEST(ParkedWait, DeadlineSliceDiesWhereThePollingLoopDoes) {
  // A planned crash at 750 fires at the first slice end past it (800),
  // unless a write is seen first (at 400 here).
  for (const Nanos write_at : {Nanos{2000}, Nanos{300}}) {
    std::vector<Nanos> died;
    std::vector<Nanos> seen;
    for (const bool parked : {false, true}) {
      VirtualTimeModel tm(2);
      bool flag = false;
      tm.run_pes(2, [&](int pe) {
        if (pe == 0) {
          tm.advance(pe, write_at);
          flag = true;
          tm.wake(1, pe);
          return;
        }
        try {
          while (!flag) {
            if (parked)
              tm.park(pe, kSlice, /*deadline=*/750);
            else
              tm.advance(pe, kSlice);
            if (tm.now(pe) >= 750) throw PeKilled{pe, tm.now(pe)};
          }
          seen.push_back(tm.now(pe));
        } catch (const PeKilled& k) {
          died.push_back(k.at_ns);
        }
      });
    }
    if (write_at > 750) {
      EXPECT_EQ(died, (std::vector<Nanos>{800, 800}));
      EXPECT_TRUE(seen.empty());
    } else {
      EXPECT_EQ(seen, (std::vector<Nanos>{400, 400}));
      EXPECT_TRUE(died.empty());
    }
  }
}

TEST(ParkedWait, SamplesSeeParkedClocksAndLiteralDeliveries) {
  // PE 0 schedules a delivery for 450 and jumps straight to 1000 while
  // PE 1 waits. Each sample must see PE 1 at its pending slice end, and
  // only the deliveries due by the floor the literal loop sampled at.
  using Sample = std::pair<Nanos, int>;  // waiter clock, deliveries
  std::vector<std::vector<Sample>> runs;
  for (const bool parked : {false, true}) {
    VirtualTimeModel tm(2);
    std::vector<Nanos> pending;
    int delivered = 0;
    tm.set_delivery_hook([&](Nanos now) {
      while (!pending.empty() && pending.front() <= now) {
        pending.erase(pending.begin());
        ++delivered;
      }
      return pending.empty() ? kNoPendingDeadline : pending.front();
    });
    std::vector<Sample> samples;
    tm.set_sample_hook(
        [&](Nanos) { samples.emplace_back(tm.now(1), delivered); }, 300);
    bool flag = false;
    tm.run_pes(2, [&](int pe) {
      if (pe == 1) {
        while (!flag) parked ? tm.park(pe, kSlice) : tm.advance(pe, kSlice);
        return;
      }
      pending.push_back(450);
      tm.clamp_horizon(pe, 450);
      tm.advance(pe, 1000);
      flag = true;
      tm.wake(1, pe);
    });
    runs.push_back(samples);
  }
  const std::vector<Sample> expect = {{400, 0}, {600, 1}, {1000, 1}};
  EXPECT_EQ(runs[0], expect);
  EXPECT_EQ(runs[1], expect);
}

TEST(ParkedWait, ArbiterModeStaysLiteral) {
  // With an arbiter installed park() is one advance: the explorer sees
  // every poll slice, and the switch count is the polling loop's.
  const auto lowest = [](int, const std::vector<int>& ready, Nanos) {
    return ready.front();
  };
  VirtualTimeModel a(3);
  VirtualTimeModel b(3);
  a.set_ready_arbiter(lowest);
  b.set_ready_arbiter(lowest);
  const WaitRun lit = wait_for_write(false, 3, 2, 0, 1, 1000, &a);
  const WaitRun par = wait_for_write(true, 3, 2, 0, 1, 1000, &b);
  EXPECT_EQ(par.seen, lit.seen);
  EXPECT_EQ(par.polls, lit.polls);
  EXPECT_EQ(par.switches, lit.switches);
  const WaitRun free = wait_for_write(true, 3, 2, 0, 1, 1000);
  EXPECT_EQ(free.seen, lit.seen);
  EXPECT_EQ(free.polls, 1);
}

TEST(ParkedWaitDeathTest, EveryPeParkedAssertsNamingThem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        VirtualTimeModel tm(3);
        tm.run_pes(3, [&](int pe) {
          if (pe != 0) tm.park(pe, kSlice);
        });
      },
      "every unfinished PE is parked.* 1 2");
}

// --- lookahead: each horizon term against the literal order ---------------
//
// Each scenario runs twice on a Runtime: under the lowest-id arbiter (every
// event in literal (vtime, pe) order, no batching, no lookahead) and as is.
// Every PE logs what it observes, (clock, value) pairs, into its own log;
// the logs must match. A scenario whose horizon term were dropped would
// let a PE run past the event it must observe. Each scenario must also
// see a step run ahead — its clock past an unfinished PE's — or it tests
// nothing.

/// Per-PE observation logs of one run.
struct LocalRun {
  std::vector<std::vector<std::uint64_t>> log;
  bool ran_ahead = false;    ///< some step ran past an unfinished PE's clock
  std::vector<char> done;    ///< per PE: its body returned
  const VirtualTimeModel* time = nullptr;
};

/// The run_local() in progress.
LocalRun* g_run = nullptr;

using LocalBody =
    std::function<void(pgas::PeContext&, pgas::SymPtr, std::vector<std::uint64_t>&)>;

LocalRun run_local(int npes, bool arbiter, const LocalBody& body,
                   NetworkParams net = {}, Nanos sample_ns = 0) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = 1 << 16;
  rc.net = std::move(net);
  pgas::Runtime rt(rc);
  if (arbiter)
    rt.time().set_ready_arbiter(
        [](int, const std::vector<int>& ready, Nanos) { return ready.front(); });
  const pgas::SymPtr word = rt.heap().alloc(8);
  LocalRun r;
  g_run = &r;
  r.time = &rt.time();
  r.done.assign(static_cast<std::size_t>(npes), 0);
  r.log.resize(static_cast<std::size_t>(npes));
  // Samples land in an extra log: what each boundary saw of every PE's.
  r.log.emplace_back();
  if (sample_ns > 0)
    rt.time().set_sample_hook(
        [&](Nanos b) {
          r.log.back().push_back(b);
          for (int pe = 0; pe < npes; ++pe)
            r.log.back().push_back(r.log[static_cast<std::size_t>(pe)].size());
        },
        sample_ns);
  rt.run([&](pgas::PeContext& ctx) {
    body(ctx, word, r.log[static_cast<std::size_t>(ctx.pe())]);
    r.done[static_cast<std::size_t>(ctx.pe())] = 1;
  });
  rt.time().set_sample_hook(nullptr, 0);
  g_run = nullptr;
  return r;
}

/// The running PE's `n` local steps of `step` ns, logging (clock, word)
/// after each.
void poll_steps(pgas::PeContext& ctx, pgas::SymPtr word,
                std::vector<std::uint64_t>& log, int n, Nanos step) {
  for (int i = 0; i < n; ++i) {
    ctx.compute(step);
    log.push_back(ctx.now());
    log.push_back(ctx.local_load(word));
    for (int q = 0; q < ctx.npes(); ++q)
      if (!g_run->done[static_cast<std::size_t>(q)] &&
          g_run->time->now(q) < ctx.now())
        g_run->ran_ahead = true;
  }
}

void expect_literal(int npes, const LocalBody& body, NetworkParams net = {},
                    Nanos sample_ns = 0) {
  const LocalRun lit = run_local(npes, /*arbiter=*/true, body, net, sample_ns);
  const LocalRun opt = run_local(npes, /*arbiter=*/false, body, net, sample_ns);
  for (std::size_t i = 0; i < lit.log.size(); ++i)
    EXPECT_EQ(opt.log[i], lit.log[i])
        << (i + 1 == lit.log.size() ? "samples" : "PE " + std::to_string(i));
  EXPECT_FALSE(lit.ran_ahead);
  EXPECT_TRUE(opt.ran_ahead) << "lookahead never ran";
}

TEST(Lookahead, BlockingOpInFlightKeepsItsTargetExact) {
  // PE 1's set lands on PE 0 at 1,500 ns, issued while PE 0 had run ahead
  // to 1,400; PE 0 must not run past it again before it lands.
  expect_literal(2, [](pgas::PeContext& ctx, pgas::SymPtr word,
                       std::vector<std::uint64_t>& log) {
    if (ctx.pe() == 1)
      ctx.set(0, word, 7);
    else
      poll_steps(ctx, word, log, 40, 100);
  });
}

TEST(Lookahead, NbiDeadlineCapsTheRun) {
  // PE 1's nbi add lands on PE 0 at 80 + 1,800 ns; PE 1 then computes far
  // ahead, so only the delivery deadline stops PE 0.
  expect_literal(2, [](pgas::PeContext& ctx, pgas::SymPtr word,
                       std::vector<std::uint64_t>& log) {
    if (ctx.pe() == 1) {
      ctx.nbi_add(0, word, 5);
      ctx.compute(100'000);
      ctx.quiet();
    } else {
      poll_steps(ctx, word, log, 40, 100);
    }
  });
}

TEST(Lookahead, SampleBoundaryCapsTheRun) {
  // Two PEs step at different rates, each running ahead of the other by up
  // to L; every 1 µs sample must see each PE's step count where the
  // literal order puts it.
  expect_literal(
      2,
      [](pgas::PeContext& ctx, pgas::SymPtr word,
         std::vector<std::uint64_t>& log) {
        poll_steps(ctx, word, log, 60, ctx.pe() == 0 ? 100 : 150);
      },
      {}, /*sample_ns=*/1'000);
}

/// PE `y` computes 100 ns, then puts to PE `x`, which steps `step` ns from
/// 0: `x` runs ahead to exactly H = 100 + L and must stop there, and the
/// tie of its event with the put's landing at H goes by id.
LocalBody put_at_horizon(int x, int y, Nanos step) {
  return [=](pgas::PeContext& ctx, pgas::SymPtr word,
             std::vector<std::uint64_t>& log) {
    if (ctx.pe() == y) {
      ctx.compute(100);
      const std::uint64_t v = 7;
      ctx.put(x, word, 0, &v, sizeof v);
    } else if (ctx.pe() == x) {
      poll_steps(ctx, word, log, 30, step);
    }
  };
}

TEST(Lookahead, TieAtTheHorizonBreaksById) {
  // Flat: L = put latency = 1,400 ns, so the put lands at 1,500, where
  // PE 1 steps. (1500, 0) runs first: PE 1 sees the put at 1,500.
  expect_literal(2, put_at_horizon(/*x=*/1, /*y=*/0, /*step=*/100));
  // PE 0 as the stepper runs first at every tie.
  expect_literal(3, put_at_horizon(/*x=*/0, /*y=*/2, /*step=*/100));
}

TEST(Lookahead, TierOneLatencyOfTwoByFour) {
  const NetworkParams two_by_four =
      NetworkParams::tiered(TopologySpec::parse("2x4"));
  EXPECT_EQ(NetworkModel(NetworkParams{}, 8).min_remote_latency(), 1'400u);
  EXPECT_EQ(NetworkModel(two_by_four, 8).min_remote_latency(), 210u);
  // PEs 0 and 1 share a node: the put lands 210 ns after its issue, at
  // 310 — a flat L of 1,400 would let PE 1 run far past it.
  expect_literal(8, put_at_horizon(/*x=*/1, /*y=*/0, /*step=*/10), two_by_four);
}

TEST(Lookahead, SelfTargetedNbiRejoinsBeforeItQueues) {
  // Equal deadlines apply in issue-sequence order. PE 1's nbi set to PE 0
  // issues at 720 ns and lands at 800 + 2,000; PE 0's own set issues at
  // 940 (ahead of PE 1) and, after its 60 ns local charge, lands at
  // 1,000 + 1,800 — the same instant. In the literal order PE 1 queues
  // first, so PE 0's value lands last.
  NetworkParams net;
  net.topology = TopologySpec::parse("2x4");
  net.links.assign(2, LinkParams{});
  net.links[0].nbi_delay = 2'000;  // intra-node slower than self (outer)
  expect_literal(
      8,
      [](pgas::PeContext& ctx, pgas::SymPtr word,
         std::vector<std::uint64_t>& log) {
        if (ctx.pe() == 1) {
          ctx.compute(720);
          ctx.fabric().nbi_amo_set(1, 0, word.off, 2);
          ctx.quiet();
        } else if (ctx.pe() == 0) {
          poll_steps(ctx, word, log, 1, 940);
          ctx.fabric().nbi_amo_set(0, 0, word.off, 1);
          poll_steps(ctx, word, log, 40, 100);
        }
      },
      net);
}

/// Two PEs step 100 ns ten times each, appending their id to one shared
/// host log: the order lookahead is free to change, since no PE observes
/// it through the fabric. `pause`: step with PeContext::pause instead of
/// compute.
std::vector<int> shared_order(pgas::Runtime& rt, bool pause = false) {
  std::vector<int> order;
  rt.run([&](pgas::PeContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      if (pause)
        ctx.pause(100);
      else
        ctx.compute(100);
      order.push_back(ctx.pe());
    }
  });
  return order;
}

const std::vector<int> kLiteralOrder = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
                                        0, 1, 0, 1, 0, 1, 0, 1, 0, 1};

TEST(Lookahead, ArbiterModeTurnsItOff) {
  pgas::RuntimeConfig rc;
  rc.npes = 2;
  rc.heap_bytes = 1 << 16;
  pgas::Runtime rt(rc);
  EXPECT_NE(shared_order(rt), kLiteralOrder) << "lookahead never ran";
  rt.time().set_ready_arbiter(
      [](int, const std::vector<int>& ready, Nanos) { return ready.front(); });
  EXPECT_EQ(shared_order(rt), kLiteralOrder);
}

TEST(Lookahead, PauseKeepsTheLiteralOrder) {
  pgas::RuntimeConfig rc;
  rc.npes = 2;
  rc.heap_bytes = 1 << 16;
  pgas::Runtime rt(rc);
  EXPECT_EQ(shared_order(rt, /*pause=*/true), kLiteralOrder);
}

TEST(Lookahead, CrashPlanTurnsItOff) {
  pgas::RuntimeConfig rc;
  rc.npes = 2;
  rc.heap_bytes = 1 << 16;
  // A crash far past the run: planned, never fired.
  rc.net.faults.crashes = {CrashEvent{1, 1'000'000'000}};
  pgas::Runtime rt(rc);
  EXPECT_EQ(shared_order(rt), kLiteralOrder);
}

// --- oracle: parked waits, lazy horizons and lookahead change no schedule --
//
// A lowest-id arbiter gives the legacy schedule with literal barrier polls,
// no run-to-horizon batching and no lookahead: every event runs in
// (vtime, pe) order. Every observable of a sampled, traced pool run must be
// byte-equal with and without it.

struct PoolRun {
  std::string totals;
  std::string timeseries;
  std::string trace;
  bool truncated = false;  ///< some PE's trace ring wrapped
};

std::string totals_text(const core::PoolRunReport& r) {
  const core::WorkerStats& t = r.total;
  std::ostringstream os;
  os << t.tasks_executed << ' ' << t.tasks_spawned << ' ' << t.tasks_stolen
     << ' ' << t.bytes_stolen << ' ' << t.steals_ok << ' '
     << t.steal_attempts << ' ' << t.steal_time_ns << ' ' << t.search_time_ns
     << ' ' << t.term_check_ns << ' ' << t.compute_time_ns << ' '
     << t.run_time_ns << ' ' << t.accounted_ns;
  for (const net::Nanos ns : t.phase_ns) os << ' ' << ns;
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b)
    os << ' ' << t.steal_latency.bucket(b);
  return os.str();
}

/// The tiered oracle topology: 2 nodes of 4 PEs, and nodes of 4 without a
/// node count beyond 8 PEs — the same two link tiers either way.
TopologySpec tiered_spec(int npes) {
  return TopologySpec::parse(npes <= 8 ? "2x4" : "*x4");
}

PoolRun run_pool(core::QueueKind kind, int npes, bool bpc, bool arbiter,
                 bool tiered = false) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = 4 << 20;
  rc.seed = 42;
  if (tiered) rc.net = NetworkParams::tiered(tiered_spec(npes));
  pgas::Runtime rt(rc);
  if (arbiter)
    rt.time().set_ready_arbiter(
        [](int, const std::vector<int>& ready, Nanos) { return ready.front(); });

  core::TaskRegistry reg;
  workloads::UtsParams up;  // fig8_uts's tree at depth 11
  up.b0 = 4;
  up.gen_mx = 11;
  up.root_seed = 19;
  up.node_compute_ns = 400;
  workloads::BpcParams bp;
  bp.consumers_per_producer = 8;
  bp.depth = 6;
  std::unique_ptr<workloads::UtsBenchmark> uts;
  std::unique_ptr<workloads::BpcBenchmark> bpcw;
  if (bpc)
    bpcw = std::make_unique<workloads::BpcBenchmark>(reg, bp);
  else
    uts = std::make_unique<workloads::UtsBenchmark>(reg, up);

  core::PoolConfig pc;
  pc.kind = kind;
  pc.queue.capacity = 16384;
  pc.queue.slot_bytes = 48;
  pc.trace.enable = true;
  // Rings large enough that none wraps (checked below), so every event is
  // compared: 2^16 events per PE, 2^13 at 256 PEs.
  pc.trace.events = std::size_t{1} << (npes < 256 ? 16 : 13);
  pc.trace.sample_interval_ns = 10'000;
  core::TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      if (bpcw)
        bpcw->seed(w);
      else
        uts->seed(w);
    });
  });
  PoolRun r;
  r.totals = totals_text(pool.report());
  std::ostringstream ts;
  pool.dump_timeseries_json(ts);
  r.timeseries = ts.str();
  std::ostringstream tr;
  pool.dump_trace_json(tr);
  r.trace = tr.str();
  r.truncated = pool.tracer().truncated();
  return r;
}

TEST(LookaheadOracle, PoolRunsMatchTheLiteralSchedule) {
  struct Case {
    core::QueueKind kind;
    int npes;
    bool bpc;
    bool tiered;
  };
  std::vector<int> pes = {2, 3, 8, 17};
  if (!kTsan) {
    pes.push_back(64);
    pes.push_back(256);
  }
  std::vector<Case> cases;
  for (const core::QueueKind k : {core::QueueKind::kSws, core::QueueKind::kSdc})
    for (const int p : pes)
      for (const bool bpc : {false, true})
        for (const bool tiered : {false, true})
          // 256 idle BPC thieves polling for milliseconds are the slowest
          // case by far: one topology covers them.
          if (!(bpc && tiered && p == 256)) cases.push_back({k, p, bpc, tiered});
  for (const Case& c : cases) {
    const PoolRun lit =
        run_pool(c.kind, c.npes, c.bpc, /*arbiter=*/true, c.tiered);
    const PoolRun opt =
        run_pool(c.kind, c.npes, c.bpc, /*arbiter=*/false, c.tiered);
    std::string what = c.kind == core::QueueKind::kSws ? "sws" : "sdc";
    what += c.bpc ? " bpc" : " uts";
    what += " P=" + std::to_string(c.npes) + " ";
    what += c.tiered ? tiered_spec(c.npes).to_string() : "flat";
    EXPECT_EQ(opt.totals, lit.totals) << what;
    EXPECT_TRUE(opt.timeseries == lit.timeseries) << what << ": time series";
    EXPECT_TRUE(opt.trace == lit.trace) << what << ": trace";
    EXPECT_GT(lit.timeseries.size(), 100u) << what;
    EXPECT_FALSE(lit.truncated) << what << ": a trace ring wrapped";
  }
}

}  // namespace
}  // namespace sws::net
