// SDC-specific behaviour: the 6-communication lock-based steal protocol
// and early-aborting steals (paper §3).
#include <gtest/gtest.h>

#include "core/sdc_queue.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

Task mk(std::uint32_t id) { return Task::of(0, id); }

QueueConfig qcfg() { return QueueConfig{1024, /*slot_bytes=*/32}; }

net::FabricStats delta(const net::FabricStats& after,
                       const net::FabricStats& before) {
  net::FabricStats d = after;
  for (std::size_t i = 0; i < net::kNumOpKinds; ++i) d.ops[i] -= before.ops[i];
  d.remote_ops -= before.remote_ops;
  d.local_ops -= before.local_ops;
  return d;
}

TEST(SdcQueue, SuccessfulStealIsExactlySixComms) {
  // Fig 2: lock CAS + metadata get + tail/seq put + unlock + task get +
  // nbi completion; 5 blocking.
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 100; ++i) (void)q.push_local(ctx, mk(i));
      (void)q.try_release(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      const net::FabricStats before = ctx.fabric().stats(1);
      std::vector<Task> loot;
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      const net::FabricStats d = delta(ctx.fabric().stats(1), before);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kAmoCompareSwap)], 1u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kGet)], 2u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kPut)], 1u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kAmoSet)], 1u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kNbiAmoSet)], 1u);
      EXPECT_EQ(d.remote_ops, 6u) << "SDC steal is 6 communications";
      EXPECT_EQ(d.blocking_ops(), 5u) << "5 of them blocking";
    }
    ctx.barrier();
  });
}

TEST(SdcQueue, FailedStealOnEmptyQueueUsesLockPlusProbe) {
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      const net::FabricStats before = ctx.fabric().stats(1);
      std::vector<Task> loot;
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
      const net::FabricStats d = delta(ctx.fabric().stats(1), before);
      // Lock acquired, metadata fetched, nothing found, unlock: 3 comms —
      // versus SWS's single AMO for the same discovery.
      EXPECT_EQ(d.remote_ops, 3u);
    }
    ctx.barrier();
  });
}

TEST(SdcQueue, ThiefAbortsWhileLockHeldAndQueueEmpty) {
  // The "aborting steals" optimization: a thief that cannot take the lock
  // polls the metadata and gives up as soon as the shared portion reads
  // empty, without ever acquiring the lock.
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      // Owner wedges its own lock (simulating a long critical section).
      ctx.fabric().amo_set(0, 0, q.lock_offset_for_test(), 99);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q.steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kEmpty)
          << "empty queue behind a held lock → abort, not retry";
    }
    ctx.barrier();
    if (ctx.pe() == 0) ctx.fabric().amo_set(0, 0, q.lock_offset_for_test(), 0);
    ctx.barrier();
  });
}

TEST(SdcQueue, ThiefRetriesWhileLockHeldAndWorkVisible) {
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 10; ++i) (void)q.push_local(ctx, mk(i));
      (void)q.try_release(ctx);
      ctx.fabric().amo_set(0, 0, q.lock_offset_for_test(), 99);  // wedge
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q.steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kRetry)
          << "work visible but lock held → bounded retries, then kRetry";
      EXPECT_GT(r.retry_after_ns, 0u) << "a lock convoy hints its backoff";
    }
    ctx.barrier();
    if (ctx.pe() == 0) ctx.fabric().amo_set(0, 0, q.lock_offset_for_test(), 0);
    ctx.barrier();
  });
}

TEST(SdcQueue, StealSucceedsAfterLockReleased) {
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 10; ++i) (void)q.push_local(ctx, mk(i));
      (void)q.try_release(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      EXPECT_EQ(loot.size(), 2u);  // half of 5 shared, rounded down, min 1
    }
    ctx.barrier();
  });
}

TEST(SdcQueue, AcquireLocksAgainstThieves) {
  // Acquire must hold the queue lock; after it completes, thief and owner
  // views stay consistent (no task lost or duplicated).
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 16; ++i) (void)q.push_local(ctx, mk(i));
      (void)q.try_release(ctx);  // 8 shared, 8 local
    }
    ctx.barrier();
    // Thief steals while owner drains local then acquires — interleaved
    // under the deterministic sequencer.
    std::uint64_t thief_tasks = 0;
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      while (q.steal(ctx, 0, loot).outcome == StealOutcome::kSuccess) {}
      thief_tasks = loot.size();
      ctx.quiet();
    } else {
      Task t;
      std::uint64_t mine = 0;
      while (true) {
        while (q.pop_local(ctx, t)) ++mine;
        if (!q.try_acquire(ctx)) break;
      }
      thief_tasks = mine;
    }
    ctx.barrier();
    const std::uint64_t total = ctx.sum_u64(thief_tasks);
    EXPECT_EQ(total, 16u) << "every task executed exactly once";
    ctx.barrier();
  });
}

/// One steal round on 2 PEs: PE 0 pushes two tasks and exposes one, PE 1
/// steals it, PE 0 runs the other. Returns the tasks this PE ran or stole.
std::uint64_t steal_round(SdcQueue& q, pgas::PeContext& ctx) {
  std::uint64_t n = 0;
  if (ctx.pe() == 0) {
    (void)q.push_local(ctx, mk(0));
    (void)q.push_local(ctx, mk(1));
    EXPECT_TRUE(q.try_release(ctx));
  }
  ctx.barrier();
  if (ctx.pe() == 1) {
    std::vector<Task> loot;
    EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
    n = loot.size();
    ctx.quiet();
  }
  ctx.barrier();
  Task t;
  if (ctx.pe() == 0)
    while (q.pop_local(ctx, t)) ++n;
  return n;
}

/// SdcQueue's completion and intent rings hold this many records each.
constexpr std::uint64_t kRing = 1024;

/// The rings really are kRing slots: sequence kRing reuses slot 0.
void expect_ring_size(const SdcQueue& q) {
  EXPECT_EQ(q.completion_offset_for_test(kRing),
            q.completion_offset_for_test(0));
  EXPECT_NE(q.completion_offset_for_test(kRing - 1),
            q.completion_offset_for_test(0));
  EXPECT_EQ(q.intent_offset_for_test(kRing), q.intent_offset_for_test(0));
}

/// PE 0: every completion record and claim intent reads zero.
void expect_rings_zero(const SdcQueue& q, pgas::PeContext& ctx) {
  for (std::uint64_t s = 0; s < kRing; ++s) {
    EXPECT_EQ(ctx.local_load(pgas::SymPtr{q.completion_offset_for_test(s)}),
              0u) << "completion slot " << s;
    EXPECT_EQ(ctx.local_load(pgas::SymPtr{q.intent_offset_for_test(s)}), 0u)
        << "intent slot " << s;
  }
}

TEST(SdcQueue, RerunAfterRingWrapStartsClean) {
  // reset_pe zeroes only the ring prefix the last run can have written.
  // Run 1's kRing + 2 steals wrap the completion ring, and the owner
  // leaves the last 4 records (slots kRing - 2, kRing - 1, 0, 1)
  // undrained; run 2 must start from an all-zero ring and conserve its
  // tasks.
  pgas::Runtime rt(rcfg(2));
  SdcQueue q(rt, qcfg());
  expect_ring_size(q);
  constexpr int kRounds = static_cast<int>(kRing) + 2;
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    std::uint64_t n = 0;
    for (int round = 0; round < kRounds; ++round) {
      n += steal_round(q, ctx);
      if (ctx.pe() == 0 && round < kRounds - 4) q.progress(ctx);
    }
    EXPECT_EQ(ctx.sum_u64(n), 2u * kRounds);
    if (ctx.pe() == 0) {
      // The wrap happened: slot 0 holds steal kRing's undrained record,
      // {seq kRing, one task}.
      EXPECT_EQ(ctx.local_load(pgas::SymPtr{q.completion_offset_for_test(0)}),
                ((kRing + 1) << 24) | 1);
    }
  });
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) expect_rings_zero(q, ctx);
    std::uint64_t n = 0;
    for (int round = 0; round < 4; ++round) {
      n += steal_round(q, ctx);
      if (ctx.pe() == 0) q.progress(ctx);
    }
    EXPECT_EQ(ctx.sum_u64(n), 8u) << "every task ran exactly once";
    EXPECT_EQ(q.audit(ctx), "");
  });
}

TEST(SdcQueue, ResetClearsTheIntentOfAClaimThatNeverLanded) {
  // With a crash plan armed, a thief writes intent[seq] before its claim
  // advances the steal cursor to seq + 1, and may die in between: the
  // intent ring's used prefix is one past the cursor. Run 1 leaves such a
  // record at the cursor (the put a thief dying there made); run 2 must
  // find both rings zero.
  pgas::RuntimeConfig c = rcfg(2);
  c.net.faults.crashes.push_back({1, 1'000'000'000});  // never reached
  pgas::Runtime rt(c);
  SdcQueue q(rt, qcfg());
  const std::uint64_t intent = (2ull << 32) | (1ull << 24) | 1;
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    const std::uint64_t n = steal_round(q, ctx);
    if (ctx.pe() == 0) q.progress(ctx);
    EXPECT_EQ(ctx.sum_u64(n), 2u);
    if (ctx.pe() == 1) {
      // Intent {seq 1, thief 1, take 1}: cursor 1 was never claimed.
      ctx.fabric().put(1, 0, q.intent_offset_for_test(1), &intent,
                        sizeof intent);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      // The rings hold records: steal 0's intent and the intent past the
      // cursor.
      EXPECT_NE(ctx.local_load(pgas::SymPtr{q.intent_offset_for_test(0)}),
                0u);
      EXPECT_EQ(ctx.local_load(pgas::SymPtr{q.intent_offset_for_test(1)}),
                intent);
    }
  });
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) expect_rings_zero(q, ctx);
    EXPECT_EQ(ctx.sum_u64(steal_round(q, ctx)), 2u);
  });
}

}  // namespace
}  // namespace sws::core
