// The virtual-time sequencer: the determinism and ordering guarantees the
// whole reproduction rests on.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/fiber.hpp"
#include "net/parallel_time_model.hpp"
#include "net/ready_heap.hpp"
#include "net/time_model.hpp"

namespace sws::net {
namespace {

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
  std::atomic<int> done{0};
  tm.run_pes(64, [&](int pe) {
    for (int i = 0; i < 10; ++i) tm.advance(pe, 17 + pe);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(VirtualTime, ResetClearsClocks) {
  VirtualTimeModel tm(2);
  tm.run_pes(2, [&](int pe) { tm.advance(pe, 500); });
  tm.reset(2);
  EXPECT_EQ(tm.now(0), 0u);
  EXPECT_EQ(tm.now(1), 0u);
}

TEST(VirtualTime, IsVirtual) {
  VirtualTimeModel tm(1);
  EXPECT_TRUE(tm.is_virtual());
  EXPECT_EQ(tm.npes(), 1);
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
  // pe_end leaves no runnable PE, so no further hook fires.
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
        g_page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        g_guard_lo = victim.stack_lo() - g_page;
        g_canary = reinterpret_cast<volatile std::uint64_t*>(
            const_cast<std::byte*>(neighbour.stack_lo()) +
            Fiber::kStackBytes - 64);
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
        victim.arm([](void*) { overflow_stack(nullptr, ~std::uint64_t{0}); },
                   nullptr);
        fiber_switch(host, victim.context());
      },
      ::testing::ExitedWithCode(3), "fault on the fiber guard page");
}

TEST(ReadyHeap, TopFollowsUpdatesAndRemovals) {
  ReadyHeap h;
  h.rebuild(4);
  EXPECT_EQ(h.top(), 0);  // all zero: lowest id wins
  EXPECT_EQ(h.second_vtime(), 0u);
  h.update(0, 50);  // increase-key
  EXPECT_EQ(h.top(), 1);
  h.update(1, 30);
  h.update(2, 20);
  h.update(3, 40);
  EXPECT_EQ(h.top(), 2);
  EXPECT_EQ(h.top_vtime(), 20u);
  EXPECT_EQ(h.second_vtime(), 30u);
  h.update(3, 10);  // decrease-key
  EXPECT_EQ(h.top(), 3);
  EXPECT_EQ(h.second_vtime(), 20u);
  h.remove(3);
  EXPECT_EQ(h.top(), 2);
  EXPECT_FALSE(h.contains(3));
  EXPECT_EQ(h.vtime_of(0), 50u);
  h.remove(2);
  h.remove(1);
  EXPECT_EQ(h.top(), 0);
  EXPECT_EQ(h.second_vtime(), ReadyHeap::kNoVtime);
  h.remove(0);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.top(), -1);
  EXPECT_EQ(h.top_vtime(), ReadyHeap::kNoVtime);
}

TEST(ReadyHeap, MatchesNaiveScanUnderRandomOps) {
  // Reference check against the linear scan the heap replaced: after
  // every random update/remove, top() and second_vtime() must agree.
  std::mt19937_64 rng(12345);
  const int n = 17;
  ReadyHeap h;
  h.rebuild(n);
  std::vector<Nanos> naive(n, 0);
  std::vector<bool> alive(n, true);
  const auto naive_top = [&] {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      if (best < 0 || naive[i] < naive[best]) best = i;
    }
    return best;
  };
  const auto naive_second = [&] {
    const int t = naive_top();
    Nanos s = ReadyHeap::kNoVtime;
    for (int i = 0; i < n; ++i)
      if (alive[i] && i != t && naive[i] < s) s = naive[i];
    return s;
  };
  for (int step = 0; step < 2000; ++step) {
    const int pe = static_cast<int>(rng() % n);
    if (!alive[pe]) continue;
    if (rng() % 16 == 0 && h.size() > 1) {
      h.remove(pe);
      alive[pe] = false;
    } else {
      // Mostly increase-key (the advance() pattern), sometimes decrease.
      const Nanos v = rng() % 8 == 0 ? naive[pe] / 2 : naive[pe] + rng() % 100;
      h.update(pe, v);
      naive[pe] = v;
    }
    ASSERT_EQ(h.top(), naive_top()) << "step " << step;
    ASSERT_EQ(h.second_vtime(), naive_second()) << "step " << step;
  }
}

// --- ParallelTimeModel: the sharded windowed sequencer, bare ------------
//
// End-to-end byte-identity is enforced by tests/test_determinism_ab.cpp;
// these exercise the model directly: gated actions (with declared
// conflict footprints) must serialize in exact (vtime, pe) order at any
// shard count, and the solo license must elide redundant global parks.

TEST(ParallelTime, GatedActionsMatchSerialOrder) {
  // Mixed private/gated event stream. Each PE logs (pe, clock) at every
  // gate entry — the global serialization point — and the sequence must
  // be identical between the serial sequencer (global_begin is a no-op:
  // one PE runs at a time) and the windowed engine at several shard
  // counts, which exercises windows, per-target caps, deferrals, and
  // license skips on the same schedule.
  const int npes = 6;
  auto program = [npes](TimeModel& tm, std::vector<std::pair<int, Nanos>>& log,
                        std::mutex& mu) {
    tm.run_pes(npes, [&](int pe) {
      for (int i = 0; i < 60; ++i) {
        tm.advance(pe, 100 + 7 * ((pe * 31 + i) % 5));
        if (i % 3 == pe % 3) {
          const int target = (pe + 1 + i) % npes;
          if (target == pe) continue;
          tm.global_begin(pe, target);
          {
            // The append runs right after gate entry, where the PE is
            // the sole (or licensed solo) runner, so appends are already
            // serialized in virtual order; the mutex only keeps the
            // data-race checker happy.
            std::lock_guard<std::mutex> lk(mu);
            log.emplace_back(pe, tm.now(pe));
          }
          tm.advance(pe, 1500);  // mid-charge park: past the lookahead
          tm.global_end(pe);
        }
      }
    });
  };

  std::vector<std::pair<int, Nanos>> serial_log;
  std::vector<Nanos> serial_clocks;
  {
    VirtualTimeModel tm(npes);
    std::mutex mu;
    program(tm, serial_log, mu);
    for (int pe = 0; pe < npes; ++pe) serial_clocks.push_back(tm.now(pe));
  }
  ASSERT_FALSE(serial_log.empty());

  for (const int shards : {1, 2, 4}) {
    ParallelTimeModel tm(npes, shards, /*lookahead=*/1400);
    std::vector<std::pair<int, Nanos>> log;
    std::mutex mu;
    program(tm, log, mu);
    EXPECT_EQ(log, serial_log) << "shards=" << shards;
    for (int pe = 0; pe < npes; ++pe)
      EXPECT_EQ(tm.now(pe), serial_clocks[static_cast<std::size_t>(pe)])
          << "shards=" << shards << " pe=" << pe;
    const auto es = tm.engine_stats();
    // Every park is matched by exactly one release.
    EXPECT_EQ(es.parks,
              es.window_pes + es.solo_private + es.solo_global);
  }
}

TEST(ParallelTime, SoloLicenseElidesGlobalParks) {
  // One PE left alone in the system keeps the solo license across gated
  // actions: after the first park, every further global_begin/global_sync
  // below its (unbounded) horizon must skip the park entirely.
  ParallelTimeModel tm(2, 2, /*lookahead=*/1400);
  tm.run_pes(2, [&](int pe) {
    if (pe != 0) return;  // PE 1 exits immediately; PE 0 runs gated ops
    for (int i = 0; i < 20; ++i) {
      tm.global_begin(0, 1);
      tm.advance(0, 1500);
      tm.global_end(0);
      tm.global_sync(0);
    }
  });
  const auto es = tm.engine_stats();
  EXPECT_GE(es.license_skips, 30u);  // 40 gated actions, minus warm-up
  EXPECT_LE(es.solo_global, 10u);
}

TEST(RealTime, AdvanceTakesAtLeastDt) {
  RealTimeModel tm(1);
  tm.reset(1);
  const Nanos t0 = tm.now(0);
  tm.advance(0, 2'000'000);  // 2 ms -> sleep path
  const Nanos t1 = tm.now(0);
  EXPECT_GE(t1 - t0, 2'000'000u);
  EXPECT_FALSE(tm.is_virtual());
}

TEST(RealTime, ShortAdvanceSpins) {
  RealTimeModel tm(1);
  tm.reset(1);
  const Nanos t0 = tm.now(0);
  tm.advance(0, 10'000);  // 10 µs -> spin path
  EXPECT_GE(tm.now(0) - t0, 10'000u);
}

TEST(RealTime, NowIsMonotonic) {
  RealTimeModel tm(1);
  tm.reset(1);
  Nanos prev = tm.now(0);
  for (int i = 0; i < 100; ++i) {
    const Nanos t = tm.now(0);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace sws::net
