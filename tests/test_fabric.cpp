// Fabric semantics: one-sided data movement, AMO results, accounting, and
// delayed delivery of non-blocking ops under the virtual sequencer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/trace.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace sws::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  static constexpr int kPes = 2;
  static constexpr std::size_t kArena = 4096;

  FabricTest() : time_(kPes), fabric_(time_, NetworkParams{}, kPes) {
    for (int pe = 0; pe < kPes; ++pe) {
      arenas_.emplace_back(kArena, std::byte{0});
      fabric_.register_arena(pe, arenas_.back().data(), kArena);
    }
  }

  /// Drive `body(pe)` SPMD under the sequencer.
  void run(const std::function<void(int)>& body) {
    time_.run_pes(kPes, body);
  }

  std::uint64_t word_at(int pe, std::uint64_t off) {
    std::uint64_t v;
    std::memcpy(&v, arenas_[static_cast<std::size_t>(pe)].data() + off, 8);
    return v;
  }

  VirtualTimeModel time_;
  std::vector<std::vector<std::byte>> arenas_;
  Fabric fabric_;
};

TEST_F(FabricTest, PutGetRoundTrip) {
  run([&](int pe) {
    if (pe != 0) return;
    const char msg[] = "hello fabric";
    fabric_.put(0, 1, 64, msg, sizeof(msg));
    char back[sizeof(msg)] = {};
    fabric_.get(0, 1, 64, back, sizeof(back));
    EXPECT_STREQ(back, msg);
    // Multi-word metadata (SDC's split/tail/seq) moves in one op.
    const std::uint64_t words[3] = {1, 2, 3};
    fabric_.put(0, 1, 32, words, sizeof(words));
    std::uint64_t got[3] = {};
    fabric_.get(0, 1, 32, got, sizeof(got));
    EXPECT_EQ(got[0], 1u);
    EXPECT_EQ(got[1], 2u);
    EXPECT_EQ(got[2], 3u);
  });
}

TEST_F(FabricTest, AmoFetchAddReturnsPriorValue) {
  run([&](int pe) {
    if (pe != 0) return;
    EXPECT_EQ(fabric_.amo_fetch_add(0, 1, 8, 5), 0u);
    EXPECT_EQ(fabric_.amo_fetch_add(0, 1, 8, 3), 5u);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 8), 8u);
    // A negative delta in two's complement, as CounterTermination::flush
    // sends it, subtracts: the sum wraps mod 2^64 in both directions.
    const std::uint64_t minus10 = static_cast<std::uint64_t>(std::int64_t{-10});
    EXPECT_EQ(fabric_.amo_fetch_add(0, 1, 8, minus10), 8u);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 8), ~std::uint64_t{0} - 1);  // -2
    EXPECT_EQ(fabric_.amo_fetch_add(0, 1, 8, 5), ~std::uint64_t{0} - 1);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 8), 3u);
  });
}

TEST_F(FabricTest, AmoCompareSwapSemantics) {
  run([&](int pe) {
    if (pe != 0) return;
    // Miss: returns current value, no change.
    EXPECT_EQ(fabric_.amo_compare_swap(0, 1, 16, 99, 7), 0u);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 16), 0u);
    // Hit: returns prior, installs desired.
    EXPECT_EQ(fabric_.amo_compare_swap(0, 1, 16, 0, 7), 0u);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 16), 7u);
  });
}

TEST_F(FabricTest, AmoSwapAndSet) {
  run([&](int pe) {
    if (pe != 0) return;
    fabric_.amo_set(0, 1, 24, 11);
    EXPECT_EQ(fabric_.amo_swap(0, 1, 24, 22), 11u);
    EXPECT_EQ(fabric_.amo_fetch(0, 1, 24), 22u);
  });
}

TEST_F(FabricTest, BlockingOpsChargeModelCost) {
  const NetworkModel model{};
  run([&](int pe) {
    if (pe != 0) return;
    const Nanos before = time_.now(0);
    std::uint64_t v = 0;
    fabric_.get(0, 1, 0, &v, 8);
    const Nanos dt = time_.now(0) - before;
    EXPECT_EQ(dt, model.cost(OpKind::kGet, 8, true));
  });
}

TEST_F(FabricTest, LocalOpsAreCheaper) {
  run([&](int pe) {
    if (pe != 0) return;
    const Nanos t0 = time_.now(0);
    std::uint64_t v = 0;
    fabric_.get(0, 0, 0, &v, 8);  // local
    const Nanos local = time_.now(0) - t0;
    const Nanos t1 = time_.now(0);
    fabric_.get(0, 1, 0, &v, 8);  // remote
    const Nanos remote = time_.now(0) - t1;
    EXPECT_LT(local, remote / 5);
  });
}

TEST_F(FabricTest, StatsCountOpsAndBytes) {
  fabric_.reset_stats();
  run([&](int pe) {
    if (pe != 0) return;
    std::uint64_t v = 1;
    fabric_.put(0, 1, 0, &v, 8);
    fabric_.get(0, 1, 0, &v, 8);
    fabric_.amo_fetch_add(0, 1, 8, 1);
    fabric_.nbi_amo_add(0, 1, 8, 1);
  });
  const FabricStats& s = fabric_.stats(0);
  EXPECT_EQ(s.ops[static_cast<int>(OpKind::kPut)], 1u);
  EXPECT_EQ(s.ops[static_cast<int>(OpKind::kGet)], 1u);
  EXPECT_EQ(s.ops[static_cast<int>(OpKind::kAmoFetchAdd)], 1u);
  EXPECT_EQ(s.ops[static_cast<int>(OpKind::kNbiAmoAdd)], 1u);
  EXPECT_EQ(s.bytes_put, 8u);
  EXPECT_EQ(s.bytes_got, 8u);
  EXPECT_EQ(s.total_ops(), 4u);
  EXPECT_EQ(s.blocking_ops(), 3u);
  EXPECT_EQ(s.remote_ops, 4u);
  EXPECT_EQ(fabric_.stats(1).total_ops(), 0u);
}

TEST_F(FabricTest, NbiDeliveryIsDelayedUntilTimePasses) {
  run([&](int pe) {
    if (pe != 0) return;
    fabric_.nbi_amo_add(0, 1, 40, 9);
    // Issue overhead charged, but the effect is still in flight.
    EXPECT_EQ(fabric_.pending(0), 1);
    EXPECT_EQ(word_at(1, 40), 0u);
    // Pass the delivery deadline: the hook applies the effect.
    time_.advance(0, NetworkModel{}.delivery_delay(8, 1) + 1);
    EXPECT_EQ(fabric_.pending(0), 0);
    EXPECT_EQ(word_at(1, 40), 9u);
  });
}

TEST_F(FabricTest, QuietBlocksUntilAllPendingDelivered) {
  run([&](int pe) {
    if (pe != 0) return;
    for (int i = 0; i < 5; ++i) fabric_.nbi_amo_add(0, 1, 48, 1);
    fabric_.quiet(0);
    EXPECT_EQ(fabric_.pending(0), 0);
    EXPECT_EQ(word_at(1, 48), 5u);
    // With nothing pending, quiet returns without advancing the clock.
    const Nanos before = time_.now(0);
    fabric_.quiet(0);
    EXPECT_EQ(time_.now(0), before);
  });
}

TEST_F(FabricTest, NbiOpsDeliverInIssueOrderAtSameDeadline) {
  run([&](int pe) {
    if (pe != 0) return;
    fabric_.nbi_amo_set(0, 1, 72, 1);
    fabric_.nbi_amo_set(0, 1, 72, 2);  // same target word
    fabric_.quiet(0);
    EXPECT_EQ(word_at(1, 72), 2u) << "later issue must win";
  });
}

TEST_F(FabricTest, QuietUnderNbiStormDeliversEverything) {
  // Both PEs storm each other with mixed nbi ops, then quiet: every
  // effect must land, pending must hit zero on both sides.
  run([&](int pe) {
    const int other = 1 - pe;
    const std::uint64_t marker = 0x1000u + static_cast<std::uint64_t>(pe);
    for (int i = 0; i < 500; ++i) {
      fabric_.nbi_amo_add(pe, other, 80, 1);
      if (i % 16 == 0)
        fabric_.nbi_amo_set(pe, other, 96, marker);
      if (i % 16 == 8)
        fabric_.nbi_amo_set(pe, other, 104, marker);
    }
    fabric_.quiet(pe);
    EXPECT_EQ(fabric_.pending(pe), 0);
  });
  EXPECT_EQ(fabric_.pending_to(0), 0);
  EXPECT_EQ(fabric_.pending_to(1), 0);
  EXPECT_EQ(word_at(0, 80), 500u);
  EXPECT_EQ(word_at(1, 80), 500u);
  EXPECT_EQ(word_at(0, 96), 0x1001u);
  EXPECT_EQ(word_at(1, 96), 0x1000u);
  EXPECT_EQ(word_at(0, 104), 0x1001u);
  EXPECT_EQ(word_at(1, 104), 0x1000u);
}

TEST(FabricNewRun, ResetsRunStateKeepsStatsAndArenas) {
  // Clocks restart at 0 every run, so new_run() must clear what a run
  // leaves behind in virtual time: NIC busy horizons and planned deaths.
  // Stats and registered arenas outlive runs.
  constexpr Nanos kCrashAt = 10'000;
  VirtualTimeModel tm(2);
  NetworkParams params;
  params.faults.crashes = {{1, kCrashAt}};
  Fabric fab(tm, params, 2);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 2; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  struct Run {
    Nanos wait = 0;     ///< PE 0's occupancy wait this run
    Nanos died_at = 0;  ///< when PE 1 observed its crash (0 = never)
  };
  const auto run = [&] {
    Run r;
    const Nanos wait_before = fab.stats(0).occupancy_wait_ns;
    tm.run_pes(2, [&](int pe) {
      if (pe == 0) {
        // The second issue queues behind the first at PE 1's NIC.
        fab.nbi_amo_add(0, 1, 0, 1);
        fab.nbi_amo_add(0, 1, 0, 1);
        fab.quiet(0);
        return;
      }
      try {
        for (int i = 0; i < 100; ++i) fab.amo_fetch(1, 0, 0);
      } catch (const PeKilled& k) {
        r.died_at = k.at_ns;
      }
    });
    r.wait = fab.stats(0).occupancy_wait_ns - wait_before;
    return r;
  };

  const Run first = run();
  EXPECT_GT(first.wait, 0u);
  EXPECT_GE(first.died_at, kCrashAt);
  EXPECT_FALSE(fab.alive(1));
  EXPECT_EQ(fab.num_dead(), 1);

  fab.new_run();
  EXPECT_TRUE(fab.alive(1)) << "the crashed PE is alive again";
  EXPECT_EQ(fab.num_dead(), 0);
  EXPECT_EQ(fab.crash_deadline(1), kCrashAt) << "the crash is re-armed";

  const Run second = run();
  EXPECT_EQ(second.wait, first.wait) << "NIC busy horizon survived new_run";
  EXPECT_EQ(second.died_at, first.died_at) << "the crash did not re-fire";
  EXPECT_FALSE(fab.alive(1));

  // Stats accumulate across runs, and the arenas stay registered.
  EXPECT_EQ(fab.stats(0).ops[static_cast<int>(OpKind::kNbiAmoAdd)], 4u);
  EXPECT_EQ(fab.stats(0).occupancy_wait_ns, first.wait + second.wait);
  std::uint64_t landed_word = 0;
  std::memcpy(&landed_word, arenas[1].data(), sizeof(landed_word));
  EXPECT_EQ(landed_word, 4u);
}

TEST_F(FabricTest, OpObserverSeesEveryOp) {
  // The observer is the fabric's one observation seam: it fires for every
  // op, inside a tracer span or not, with the op's identity, footprint and
  // charge window, on the initiator's clock before it advances. Installing
  // nullptr stops it.
  core::Tracer tracer(kPes, 16);
  std::vector<OpRecord> seen;
  fabric_.set_op_observer([&](const OpRecord& r) { seen.push_back(r); });
  const NetworkModel& m = fabric_.model();
  const Nanos put_cost = m.cost(OpKind::kPut, 24, 1);
  run([&](int pe) {
    if (pe != 0) return;
    const std::uint64_t src[3] = {1, 2, 3};
    tracer.begin(0, 0, core::TraceKind::kStealSpan, 1);
    fabric_.put(0, 1, 64, src, sizeof src);
    tracer.end(0, put_cost, core::TraceKind::kStealSpan, 1);
    fabric_.amo_fetch_add(0, 0, 8, 1);
    fabric_.nbi_amo_set(0, 1, 16, 9);
    fabric_.quiet(0);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].initiator, 0);
  EXPECT_EQ(seen[0].target, 1);
  EXPECT_EQ(seen[0].kind, OpKind::kPut);
  EXPECT_EQ(seen[0].offset, 64u);
  EXPECT_EQ(seen[0].bytes, 24u);
  EXPECT_EQ(seen[0].begin, 0u);
  EXPECT_EQ(seen[0].dur, put_cost);
  EXPECT_EQ(seen[1].target, 0);
  EXPECT_EQ(seen[1].kind, OpKind::kAmoFetchAdd);
  EXPECT_EQ(seen[1].offset, 8u);
  EXPECT_EQ(seen[1].bytes, 8u);
  EXPECT_EQ(seen[1].begin, put_cost);
  EXPECT_EQ(seen[1].dur, m.cost(OpKind::kAmoFetchAdd, 8, 0));
  EXPECT_EQ(seen[2].target, 1);
  EXPECT_EQ(seen[2].kind, OpKind::kNbiAmoSet);
  EXPECT_EQ(seen[2].offset, 16u);
  EXPECT_EQ(seen[2].begin, seen[1].begin + seen[1].dur);
  EXPECT_EQ(seen[2].dur, m.cost(OpKind::kNbiAmoSet, 8, 1));

  fabric_.set_op_observer(nullptr);
  run([&](int pe) { fabric_.amo_fetch(pe, 1 - pe, 0); });
  EXPECT_EQ(seen.size(), 3u) << "a cleared observer still fired";
}

TEST_F(FabricTest, OpObserverRefusesASecondObserver) {
  fabric_.set_op_observer([](const OpRecord&) {});
  EXPECT_THROW(fabric_.set_op_observer([](const OpRecord&) {}),
               std::invalid_argument);
  fabric_.set_op_observer(nullptr);
  fabric_.set_op_observer([](const OpRecord&) {});  // free again
  fabric_.set_op_observer(nullptr);
}

TEST_F(FabricTest, LandedCountsEveryRemoteEffect) {
  // landed(pe) is what lets an owner skip a poll (DESIGN.md §5): it must
  // rise once per remote write and per nbi delivery, and never otherwise.
  run([&](int pe) {
    if (pe != 0) return;
    std::uint64_t expect1 = 0;
    const auto expect = [&](std::uint64_t own, const char* what) {
      EXPECT_EQ(fabric_.landed(1), expect1) << what;
      EXPECT_EQ(fabric_.landed(0), own) << what;
    };
    const std::uint64_t word = 7;
    fabric_.put(0, 1, 0, &word, sizeof(word));
    ++expect1;
    expect(0, "put");
    fabric_.amo_fetch_add(0, 1, 8, 1);
    ++expect1;
    expect(0, "fetch-add");
    fabric_.amo_compare_swap(0, 1, 8, 1, 2);
    ++expect1;
    expect(0, "compare-swap hit");
    fabric_.amo_compare_swap(0, 1, 8, 99, 3);
    ++expect1;
    expect(0, "compare-swap miss");
    fabric_.amo_swap(0, 1, 8, 4);
    ++expect1;
    expect(0, "swap");
    fabric_.amo_set(0, 1, 8, 5);
    ++expect1;
    expect(0, "set");

    // Reads leave the target's memory as it was.
    std::uint64_t back = 0;
    fabric_.get(0, 1, 0, &back, sizeof(back));
    fabric_.amo_fetch(0, 1, 8);
    expect(0, "reads");

    // The PE's own tier-0 ops are its own doing, not a landing.
    fabric_.put(0, 0, 0, &word, sizeof(word));
    fabric_.get(0, 0, 0, &back, sizeof(back));
    fabric_.amo_fetch_add(0, 0, 8, 1);
    fabric_.amo_compare_swap(0, 0, 8, 1, 2);
    fabric_.amo_swap(0, 0, 8, 3);
    fabric_.amo_set(0, 0, 8, 4);
    fabric_.amo_fetch(0, 0, 8);
    expect(0, "own ops");

    // An nbi op lands at delivery, not at issue; one to itself lands
    // asynchronously too, so it counts.
    fabric_.nbi_amo_add(0, 1, 16, 1);
    fabric_.nbi_amo_set(0, 0, 16, 1);
    expect(0, "nbi issue");
    fabric_.quiet(0);
    ++expect1;
    expect(1, "nbi delivery");
  });
}

TEST_F(FabricTest, LandedWatchedCountsOnlyWritesIntoTheRange) {
  // The task pool watches its inbox: a remote write that touches
  // [16, 32) counts there too, one outside it only toward landed().
  fabric_.watch(16, 16);
  run([&](int pe) {
    if (pe != 0) return;
    const std::uint64_t words[3] = {1, 2, 3};
    fabric_.amo_set(0, 1, 8, 1);                      // below the range
    fabric_.amo_set(0, 1, 32, 1);                     // just past it
    fabric_.put(0, 1, 0, words, 16);                  // [0, 16): touches none
    EXPECT_EQ(fabric_.landed_watched(1), 0u);
    fabric_.put(0, 1, 8, words, sizeof words);        // [8, 32) overlaps
    fabric_.amo_compare_swap(0, 1, 24, 3, 4);         // inside
    fabric_.amo_set(0, 0, 16, 1);                     // own op: no landing
    EXPECT_EQ(fabric_.landed_watched(1), 2u);
    fabric_.nbi_amo_add(0, 1, 16, 1);                 // lands at delivery
    fabric_.nbi_amo_add(0, 1, 40, 1);
    EXPECT_EQ(fabric_.landed_watched(1), 2u);
    fabric_.quiet(0);
    EXPECT_EQ(fabric_.landed_watched(1), 3u);
    EXPECT_EQ(fabric_.landed(1), 7u);
    EXPECT_EQ(fabric_.landed_watched(0), 0u);
  });
}

TEST(FabricLanded, DuplicateDeliveriesCountAndDeadTargetsDoNot) {
  // dup_rate 1: every nbi op lands twice. The crash event only arms crash
  // handling (it lies past the test); the test kills PE 2 with mark_dead.
  VirtualTimeModel tm(3);
  NetworkParams params;
  params.faults.dup_rate = 1.0;
  params.faults.crashes = {{2, Nanos{1} << 50}};
  Fabric fab(tm, params, 3);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 3; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  tm.run_pes(3, [&](int pe) {
    if (pe != 0) return;
    fab.nbi_amo_add(0, 1, 0, 1);
    fab.quiet(0);
    EXPECT_EQ(fab.landed(1), 2u) << "each copy of a duplicate lands";

    fab.nbi_amo_add(0, 2, 0, 1);  // in flight when PE 2 dies: dropped
    fab.mark_dead(2);
    const std::uint64_t word = 1;
    fab.put(0, 2, 0, &word, sizeof(word));
    fab.amo_fetch_add(0, 2, 8, 1);
    fab.amo_compare_swap(0, 2, 8, 0, 1);
    fab.amo_swap(0, 2, 8, 1);
    fab.amo_set(0, 2, 8, 1);
    fab.nbi_amo_add(0, 2, 8, 1);
    fab.quiet(0);
    EXPECT_EQ(fab.landed(2), 0u) << "effects suppressed on a dead target";
  });
}

TEST(FabricFaults, RetransmitDelayExtendsDeliveryNotHorizon) {
  // drop_rate=1: every nbi op is lost kMaxRetransmits times and delivers
  // kMaxRetransmits × kRetransmitNs late. The sequencer's horizon must be
  // clamped to the *extended* deadline — advancing past the base delay
  // must neither apply the effect early nor lose it.
  VirtualTimeModel tm(2);
  NetworkParams params;
  params.faults.drop_rate = 1.0;
  Fabric fab(tm, params, 2);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 2; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  const Nanos base = NetworkModel(params).delivery_delay(8, 1);
  tm.run_pes(2, [&](int pe) {
    if (pe == 0) {
      fab.nbi_amo_add(0, 1, 0, 7);
      tm.advance(0, base + 1);  // past the fault-free deadline
      std::uint64_t v;
      std::memcpy(&v, arenas[1].data(), 8);
      EXPECT_EQ(v, 0u) << "delivered before the retransmit completed";
      EXPECT_EQ(fab.pending(0), 1);
      tm.advance(0, kMaxRetransmits * kRetransmitNs);  // past the real one
      std::memcpy(&v, arenas[1].data(), 8);
      EXPECT_EQ(v, 7u);
      EXPECT_EQ(fab.pending(0), 0);
    }
  });
  obs::MetricsRegistry reg(2);
  fab.publish_metrics(reg);
  const obs::MetricsSnapshot m = reg.snapshot();
  ASSERT_NE(m.find("fabric.faults.drops"), nullptr);
  EXPECT_EQ(m.find("fabric.faults.drops")->total(), kMaxRetransmits);
}

// Death tests issue their op from the test thread, outside run_pes(): a
// 1-PE sequencer after reset() has PE 0 active, so the charge returns at
// once and the op reaches its check.
TEST(FabricDeath, OutOfBoundsAccessAborts) {
  VirtualTimeModel tm(1);
  Fabric fab(tm, NetworkParams{}, 1);
  std::vector<std::byte> arena(256, std::byte{0});
  fab.register_arena(0, arena.data(), arena.size());
  std::uint64_t v = 0;
  EXPECT_DEATH(fab.get(0, 0, 252, &v, 8), "bounds");
}

TEST(FabricDeath, MisalignedAmoAborts) {
  VirtualTimeModel tm(1);
  Fabric fab(tm, NetworkParams{}, 1);
  std::vector<std::byte> arena(256, std::byte{0});
  fab.register_arena(0, arena.data(), arena.size());
  EXPECT_DEATH(fab.amo_fetch(0, 0, 4), "align");
}

TEST(FabricDeath, UnregisteredArenaAborts) {
  VirtualTimeModel tm(1);
  Fabric fab(tm, NetworkParams{}, 1);
  EXPECT_DEATH(fab.amo_fetch(0, 0, 0), "registered");
}

TEST_F(FabricTest, TargetOccupancySerializesContendedOps) {
  // Two PEs hammer each other... here: PE0 fires two back-to-back remote
  // AMOs at PE1. The second op queues behind the first at PE1's NIC only
  // if issued within the occupancy window — with one initiator the window
  // has passed, so instead verify the accounting path with a synthetic
  // short gap: occupancy wait shows up when ops from different sources
  // collide. Simplest deterministic check: issue an op, rewind nothing,
  // and confirm zero wait for spaced ops, then use two PEs racing.
  run([&](int pe) {
    // Both PEs AMO the same third... only 2 PEs here: each AMOs the other
    // simultaneously at t=0. PE0 runs first (baton), marking PE1's NIC
    // busy until occ; PE1's op targets PE0 — unrelated NIC — no wait.
    std::uint64_t v = fabric_.amo_fetch_add(pe, 1 - pe, 8, 1);
    (void)v;
  });
  // Cross-targets never contend.
  EXPECT_EQ(fabric_.stats(0).occupancy_wait_ns, 0u);
  EXPECT_EQ(fabric_.stats(1).occupancy_wait_ns, 0u);
}

TEST(FabricOccupancy, SameTargetOpsQueue) {
  // Three thieves AMO one victim at virtual t=0: the k-th op waits
  // (k-1) * occupancy behind the earlier ones.
  VirtualTimeModel tm(4);
  NetworkParams params;
  params.link(1).target_occupancy = 300;
  Fabric fab(tm, params, 4);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 4; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  tm.run_pes(4, [&](int pe) {
    if (pe != 3) fab.amo_fetch_add(pe, 3, 0, 1);
  });
  // Baton order at t=0 is PE0, PE1, PE2: waits are 0, 300, 600.
  EXPECT_EQ(fab.stats(0).occupancy_wait_ns, 0u);
  EXPECT_EQ(fab.stats(1).occupancy_wait_ns, 300u);
  EXPECT_EQ(fab.stats(2).occupancy_wait_ns, 600u);
}

TEST(FabricOccupancy, ZeroOccupancyDisablesQueueing) {
  VirtualTimeModel tm(3);
  NetworkParams params;
  params.link(1).target_occupancy = 0;
  Fabric fab(tm, params, 3);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 3; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  tm.run_pes(3, [&](int pe) {
    if (pe != 2) fab.amo_fetch_add(pe, 2, 0, 1);
  });
  EXPECT_EQ(fab.stats(0).occupancy_wait_ns, 0u);
  EXPECT_EQ(fab.stats(1).occupancy_wait_ns, 0u);
}

TEST(NetworkModelTest, CostsScaleWithPayload) {
  NetworkModel m;
  EXPECT_GT(m.cost(OpKind::kGet, 1 << 20, 1), m.cost(OpKind::kGet, 8, 1));
  EXPECT_EQ(m.cost(OpKind::kAmoFetchAdd, 8, 1),
            m.params().link(1).amo_latency);
  // nbi ops only charge the issue overhead.
  EXPECT_LT(m.cost(OpKind::kNbiAmoAdd, 8, 1),
            m.cost(OpKind::kAmoFetchAdd, 8, 1));
}

TEST(NetworkModelTest, TwoLevelFabricTiers) {
  NetworkModel m(NetworkParams::tiered(TopologySpec::parse("*x4")), 12);
  EXPECT_EQ(m.tier(0, 0), 0);
  EXPECT_EQ(m.tier(0, 3), 1);
  EXPECT_EQ(m.tier(0, 4), 2);
  EXPECT_EQ(m.tier(5, 7), 1);
  EXPECT_EQ(m.tier(7, 8), 2);
}

TEST(NetworkModelTest, FlatFabricHasNoIntraNode) {
  NetworkModel m{};  // flat topology
  EXPECT_EQ(m.ntiers(), 1);
  EXPECT_EQ(m.tier(0, 1), 1);
  EXPECT_EQ(m.tier(0, 0), 0);
}

TEST(NetworkModelTest, IntraNodeOpsAreCheaper) {
  NetworkModel m(NetworkParams::tiered(TopologySpec::parse("*x8")), 16);
  const Nanos inter = m.cost(OpKind::kAmoFetchAdd, 8, 2);
  const Nanos intra = m.cost(OpKind::kAmoFetchAdd, 8, 1);
  const Nanos self = m.cost(OpKind::kAmoFetchAdd, 8, 0);
  EXPECT_LT(intra, inter / 3);
  EXPECT_LT(self, intra);
  // Bulk transfers see the better intra-node bandwidth too.
  EXPECT_LT(m.cost(OpKind::kGet, 1 << 16, 1), m.cost(OpKind::kGet, 1 << 16, 2));
  // And nbi delivery arrives sooner within a node.
  EXPECT_LT(m.delivery_delay(8, 1), m.delivery_delay(8, 2));
}

TEST(FabricLocality, ChargesByNodeDistance) {
  VirtualTimeModel tm(3);
  NetworkParams params = NetworkParams::tiered(TopologySpec::parse("*x2"));
  // PEs {0,1} on one node, {2} on another.
  params.link(1).target_occupancy = 0;
  params.link(2).target_occupancy = 0;
  Fabric fab(tm, params, 3);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 3; ++pe) {
    arenas.emplace_back(256, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 256);
  }
  Nanos intra_cost = 0, inter_cost = 0;
  tm.run_pes(3, [&](int pe) {
    if (pe == 0) {
      const Nanos t0 = tm.now(0);
      fab.amo_fetch(0, 1, 0);  // intra-node
      intra_cost = tm.now(0) - t0;
      const Nanos t1 = tm.now(0);
      fab.amo_fetch(0, 2, 0);  // inter-node
      inter_cost = tm.now(0) - t1;
    }
  });
  EXPECT_LT(intra_cost, inter_cost / 3);
  // Per-tier op counters split the two AMOs by distance.
  EXPECT_EQ(fab.stats(0).tier_ops[0], 1u);
  EXPECT_EQ(fab.stats(0).tier_ops[1], 1u);
}

TEST(NetworkModelTest, ScaledParamsScaleLatencies) {
  NetworkParams p;
  const NetworkParams d = p.scaled(2.0);
  EXPECT_EQ(d.link(1).amo_latency, p.link(1).amo_latency * 2);
  EXPECT_EQ(d.link(1).get_latency, p.link(1).get_latency * 2);
  EXPECT_EQ(d.link(1).nbi_delay, p.link(1).nbi_delay * 2);
  EXPECT_EQ(d.local_overhead, p.local_overhead) << "local costs unscaled";
}

}  // namespace
}  // namespace sws::net
