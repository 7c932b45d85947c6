// Remote-spawn inbox: MPSC ordering, capacity bounds, ring reuse, and the
// Worker::spawn_on integration.
#include <gtest/gtest.h>

#include <malloc.h>

#include <set>

#include "core/inbox.hpp"
#include "core/scheduler.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 2 << 20;
  return c;
}

constexpr std::uint32_t kCap = TaskInbox::kCapacity;

Task mk(std::uint32_t id) { return Task::of(0, id); }
std::uint32_t id_of(const Task& t) { return t.payload_as<std::uint32_t>(); }
/// Tasks with ids first .. first + n - 1.
std::vector<Task> ids(std::uint32_t first, std::uint32_t n) {
  std::vector<Task> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(mk(first + i));
  return out;
}
/// The reserve cursor of `owner`'s own inbox (the ring's first word).
std::uint64_t reserve_cursor(const TaskInbox& inbox, pgas::PeContext& owner) {
  return owner.local_load(pgas::SymPtr{inbox.offset()});
}
/// One-task push through the batched remote_push.
bool push_one(TaskInbox& inbox, pgas::PeContext& ctx, int target,
              const Task& t) {
  return inbox.remote_push(ctx, target, {&t, 1}) == 1;
}

TEST(Inbox, SingleSenderDeliversInOrder) {
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      for (std::uint32_t i = 0; i < 10; ++i)
        ASSERT_TRUE(push_one(inbox, ctx, 0, mk(i)));
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::vector<std::uint32_t> got;
      EXPECT_EQ(inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); }),
                10u);
      ASSERT_EQ(got.size(), 10u);
      for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
      EXPECT_EQ(inbox.drain(ctx, [](const Task&) {}), 0u) << "drained dry";
    }
    ctx.barrier();
  });
}

TEST(Inbox, RefusesWhenFull) {
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      ASSERT_EQ(inbox.remote_push(ctx, 0, ids(0, kCap - 1)), kCap - 1);
      ASSERT_TRUE(push_one(inbox, ctx, 0, mk(kCap - 1))) << "the last slot";
      EXPECT_FALSE(push_one(inbox, ctx, 0, mk(99)));
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(reserve_cursor(inbox, ctx), kCap) << "every slot taken";
      std::uint32_t n = 0;
      inbox.drain(ctx, [&](const Task&) { ++n; });
      EXPECT_EQ(n, kCap);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      // Space reclaimed after the drain: pushes succeed again.
      EXPECT_TRUE(push_one(inbox, ctx, 0, mk(100)));
    }
    ctx.barrier();
  });
}

TEST(Inbox, RingReusesSlotsAcrossManyWraps) {
  // Rounds of kCap - 1 tasks start one slot earlier each time, so the
  // run of a round straddles the wrap at a different slot.
  constexpr std::uint32_t kRounds = 5;
  constexpr std::uint32_t kBatch = kCap - 1;
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      if (ctx.pe() == 1) {
        ASSERT_EQ(inbox.remote_push(ctx, 0, ids(round * kBatch, kBatch)),
                  kBatch);
      }
      ctx.barrier();
      if (ctx.pe() == 0) {
        std::vector<std::uint32_t> got;
        inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); });
        ASSERT_EQ(got.size(), kBatch);
        for (std::uint32_t i = 0; i < kBatch; ++i)
          ASSERT_EQ(got[i], round * kBatch + i);
      }
      ctx.barrier();
    }
    if (ctx.pe() == 0) {
      EXPECT_EQ(reserve_cursor(inbox, ctx), std::uint64_t{kRounds} * kBatch);
      EXPECT_GT(reserve_cursor(inbox, ctx), 4u * kCap) << "four wraps";
    }
  });
}

TEST(Inbox, ResetClearsUndrainedSlotsOfTheLastRun) {
  // reset_pe zeroes only the slots the last run can have written: the
  // prefix below the reserve cursor, or the whole ring once the cursor has
  // wrapped. Each run here leaves published slots undrained; the next
  // run's drain must stop after the tasks that run pushed.
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  auto push = [&](pgas::PeContext& ctx, std::uint32_t from, std::uint32_t to) {
    if (ctx.pe() == 1) {
      EXPECT_EQ(inbox.remote_push(ctx, 0, ids(from, to - from)), to - from);
    }
    ctx.barrier();
  };
  auto drain = [&](pgas::PeContext& ctx) {
    std::vector<std::uint32_t> got;
    if (ctx.pe() == 0)
      inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); });
    ctx.barrier();
    return got;
  };
  // Run 1: 4 drained, then kCap - 2 more wrap the cursor to kCap + 2 and
  // stay published in slots 4 .. kCap - 1 and 0-1.
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    push(ctx, 0, 4);
    EXPECT_EQ(drain(ctx).size(), ctx.pe() == 0 ? 4u : 0u);
    push(ctx, 4, kCap + 2);
    if (ctx.pe() == 0) {
      EXPECT_EQ(reserve_cursor(inbox, ctx), kCap + 2u);
    }
  });
  // Run 2: 4 pushed and drained, then 3 left published below the
  // unwrapped cursor.
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    push(ctx, 100, 104);
    const std::vector<std::uint32_t> got = drain(ctx);
    if (ctx.pe() == 0) {
      EXPECT_EQ(got, (std::vector<std::uint32_t>{100, 101, 102, 103}));
    }
    push(ctx, 104, 107);
    if (ctx.pe() == 0) {
      EXPECT_EQ(reserve_cursor(inbox, ctx), 7u);
    }
  });
  // Run 3: nothing pushed, nothing drained.
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    EXPECT_TRUE(drain(ctx).empty());
  });
}

TEST(Inbox, MultipleSendersAllDeliver) {
  pgas::Runtime rt(rcfg(5));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() != 0) {
      for (std::uint32_t i = 0; i < 16; ++i)
        ASSERT_TRUE(push_one(
            inbox, ctx, 0, mk(static_cast<std::uint32_t>(ctx.pe()) * 100 + i)));
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::set<std::uint32_t> got;
      inbox.drain(ctx, [&](const Task& t) {
        EXPECT_TRUE(got.insert(id_of(t)).second) << "duplicate delivery";
      });
      EXPECT_EQ(got.size(), 4u * 16);
    }
    ctx.barrier();
  });
}

TEST(Inbox, SinglePushIsTwoFetchesCasPutAndTag) {
  // A one-task batch is the remote-spawn wire shape and nothing more: read
  // both cursors, reserve by CAS, put the payload past the tag word, then
  // publish the tag.
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      const net::FabricStats before = ctx.fabric().stats(1);
      ASSERT_TRUE(push_one(inbox, ctx, 0, mk(7)));
      const net::FabricStats after = ctx.fabric().stats(1);
      const auto delta = [&](net::OpKind k) {
        return after.ops[static_cast<int>(k)] - before.ops[static_cast<int>(k)];
      };
      EXPECT_EQ(delta(net::OpKind::kAmoFetch), 2u);
      EXPECT_EQ(delta(net::OpKind::kAmoCompareSwap), 1u);
      EXPECT_EQ(delta(net::OpKind::kPut), 1u);
      EXPECT_EQ(delta(net::OpKind::kAmoSet), 1u);
      EXPECT_EQ(after.total_ops() - before.total_ops(), 5u);
      EXPECT_EQ(after.bytes_put - before.bytes_put, 32u)
          << "one slot_bytes payload; the tag rides the closing AMO";
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::vector<std::uint32_t> got;
      inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); });
      EXPECT_EQ(got, (std::vector<std::uint32_t>{7}));
    }
    ctx.barrier();
  });
}

TEST(Inbox, BatchPushDeliversInOrderWithOnePutAndOneTag) {
  // remote_push vectorizes the slot writes: one reservation CAS, one
  // put covering the whole contiguous run, and a single closing AMO that
  // publishes the first slot's tag — the owner's strict in-order drain
  // keeps the rest invisible until then.
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> batch;
      for (std::uint32_t i = 0; i < 10; ++i) batch.push_back(mk(i));
      const net::FabricStats before = ctx.fabric().stats(1);
      EXPECT_EQ(inbox.remote_push(ctx, 0, batch), 10u);
      const net::FabricStats after = ctx.fabric().stats(1);
      EXPECT_EQ(after.ops[static_cast<int>(net::OpKind::kPut)] -
                    before.ops[static_cast<int>(net::OpKind::kPut)],
                1u)
          << "a non-wrapping batch must ship as one put";
      EXPECT_EQ(after.ops[static_cast<int>(net::OpKind::kAmoSet)] -
                    before.ops[static_cast<int>(net::OpKind::kAmoSet)],
                1u)
          << "one completion tag publishes the whole batch";
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::vector<std::uint32_t> got;
      EXPECT_EQ(
          inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); }),
          10u);
      ASSERT_EQ(got.size(), 10u);
      for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
      EXPECT_EQ(inbox.drain(ctx, [](const Task&) {}), 0u) << "drained dry";
    }
    ctx.barrier();
  });
}

TEST(Inbox, BatchPushWrapsRingInTwoPuts) {
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    // Advance the ring cursor to kCap - 3 so a 6-task batch straddles the
    // wrap.
    if (ctx.pe() == 1) {
      ASSERT_EQ(inbox.remote_push(ctx, 0, ids(100, kCap - 3)), kCap - 3);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::uint32_t n = 0;
      inbox.drain(ctx, [&](const Task&) { ++n; });
      ASSERT_EQ(n, kCap - 3);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> batch;
      for (std::uint32_t i = 0; i < 6; ++i) batch.push_back(mk(i));
      const net::FabricStats before = ctx.fabric().stats(1);
      EXPECT_EQ(inbox.remote_push(ctx, 0, batch), 6u);
      const net::FabricStats after = ctx.fabric().stats(1);
      EXPECT_EQ(after.ops[static_cast<int>(net::OpKind::kPut)] -
                    before.ops[static_cast<int>(net::OpKind::kPut)],
                2u)
          << "a wrapping batch is two contiguous-segment puts";
      EXPECT_EQ(after.bytes_put - before.bytes_put, 6u * (8 + 32) - 8)
          << "three slots before the wrap, three after; the first tag "
             "rides the closing AMO";
      EXPECT_EQ(after.ops[static_cast<int>(net::OpKind::kAmoSet)] -
                    before.ops[static_cast<int>(net::OpKind::kAmoSet)],
                1u);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      std::vector<std::uint32_t> got;
      inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); });
      ASSERT_EQ(got.size(), 6u);
      for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
      EXPECT_EQ(reserve_cursor(inbox, ctx), kCap + 3u);
    }
    ctx.barrier();
  });
}

TEST(Inbox, BatchPushTakesPartialRunWhenShortOnRoom) {
  pgas::Runtime rt(rcfg(2));
  TaskInbox inbox(rt, 32);
  rt.run([&](pgas::PeContext& ctx) {
    inbox.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      ASSERT_EQ(inbox.remote_push(ctx, 0, ids(0, kCap - 3)), kCap - 3);
      const std::vector<Task> batch = ids(kCap - 3, 6);
      // Only 3 slots left: the batch is clipped, never split or dropped.
      EXPECT_EQ(inbox.remote_push(ctx, 0, batch), 3u);
      // Completely full: a further batch refuses outright.
      EXPECT_EQ(inbox.remote_push(ctx, 0, batch), 0u);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(reserve_cursor(inbox, ctx), kCap) << "every slot taken";
      std::vector<std::uint32_t> got;
      inbox.drain(ctx, [&](const Task& t) { got.push_back(id_of(t)); });
      ASSERT_EQ(got.size(), kCap);
      for (std::uint32_t i = 0; i < kCap; ++i) EXPECT_EQ(got[i], i);
    }
    ctx.barrier();
  });
}

// ------------------------------------------------------ pool integration

struct RemoteChain {
  TaskFnId fn = 0;
  explicit RemoteChain(TaskRegistry& reg) {
    fn = reg.register_fn("chain", [this](Worker& w,
                                         std::span<const std::byte> b) {
      std::uint32_t hops;
      std::memcpy(&hops, b.data(), 4);
      w.compute(1000);
      if (hops == 0) return;
      // Ping the task around the ring explicitly.
      w.spawn_on((w.pe() + 1) % w.npes(), Task::of(fn, hops - 1));
    });
  }
};

TEST(InboxPool, SpawnOnMovesTasksAcrossPes) {
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  RemoteChain chain(reg);
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(chain.fn, std::uint32_t{12}));
    });
  });
  const PoolRunReport r = pool.report();
  EXPECT_EQ(r.total.tasks_executed, 13u);
  // The chain visits PEs round-robin: 0,1,2,3,0,... — every PE executed.
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_GE(pool.worker_stats(pe).tasks_executed, 3u) << "pe " << pe;
}

TEST(InboxPool, RerunAfterRingWrapConservesTasks) {
  // One chain on 2 PEs hops PE to PE through the inboxes (a PE never holds
  // two chain tasks, so none is released or stolen). Run 1's 2 * kCap + 40
  // hops push kCap + 20 tasks into each inbox, wrapping both reserve
  // cursors; run 2 on the same pool pushes a handful. Each run executes
  // exactly the tasks it spawned.
  constexpr std::uint32_t kWrapHops = 2 * kCap + 40;
  pgas::Runtime rt(rcfg(2));
  TaskRegistry reg;
  RemoteChain chain(reg);
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  for (const std::uint32_t hops : {kWrapHops, 5u}) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](Worker& w) {
        if (w.pe() == 0) w.spawn(Task::of(chain.fn, hops));
      });
    });
    EXPECT_EQ(pool.report().total.tasks_executed, hops + 1) << hops;
    EXPECT_EQ(pool.worker_stats(1).tasks_executed, (hops + 1) / 2) << hops;
    if (hops == kWrapHops) {
      // Every task but PE 0's seed arrived through an inbox.
      EXPECT_GT(pool.worker_stats(0).tasks_executed - 1, kCap)
          << "PE 0's inbox cursor wrapped";
      EXPECT_GT(pool.worker_stats(1).tasks_executed, kCap)
          << "PE 1's inbox cursor wrapped";
    }
  }
}

TEST(InboxPool, CrashFreeRunHeapGrowsLinearlyInPes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer allocator bypasses mallinfo2";
#else
  // The crash ledger (P rows of deques per PE) is built only in crash mode,
  // so a crash-free run's malloc heap grows linearly in P, not with P².
  constexpr int kNpes = 512;
  pgas::Runtime rt(rcfg(kNpes));
  TaskRegistry reg;
  TaskFnId fn = reg.register_fn("leaf", [](Worker& w,
                                           std::span<const std::byte>) {
    w.compute(100);
  });
  TaskPool pool(rt, reg, PoolConfig{});
  const auto heap = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t before = heap();
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task(fn, nullptr, 0));
    });
  });
  const std::size_t after = heap();
  const std::size_t growth = after > before ? after - before : 0;
  EXPECT_EQ(pool.report().total.tasks_executed, 1u);
  EXPECT_LT(growth, std::size_t{4096} * kNpes)
      << "malloc heap grew by " << growth << " bytes";
#endif
}

TEST(InboxPool, SpawnOnDeliversABurstPerTarget) {
  // Worker::spawn_on pushes a whole burst through one batched inbox
  // put instead of a push per task; every task must still run exactly
  // once, wherever it lands.
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  std::uint32_t ran = 0;
  TaskFnId fn =
      reg.register_fn("tick", [&](Worker& w, std::span<const std::byte>) {
        w.compute(500);
        ++ran;
      });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() != 0) return;
      std::vector<Task> burst;
      for (int i = 0; i < 24; ++i)
        burst.push_back(Task::of(fn, std::uint32_t{0}));
      for (int pe = 1; pe < w.npes(); ++pe) w.spawn_on(pe, burst);
    });
  });
  EXPECT_EQ(ran, 72u);
  EXPECT_EQ(pool.report().total.tasks_executed, 72u);
  for (int pe = 1; pe < 4; ++pe)
    EXPECT_GE(pool.worker_stats(pe).tasks_executed, 1u) << "pe " << pe;
}

TEST(InboxPool, SpawnOnSelfBehavesLikeSpawn) {
  pgas::Runtime rt(rcfg(2));
  TaskRegistry reg;
  TaskFnId fn = reg.register_fn("noop", [](Worker& w,
                                           std::span<const std::byte>) {
    w.compute(100);
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0)
        for (int i = 0; i < 5; ++i) w.spawn_on(0, Task(fn, nullptr, 0));
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, 5u);
}

TEST(InboxPool, OverflowedInboxFallsBackToLocalExecution) {
  // PE 1 sits at the post-seed barrier while PE 0 scatters kCap + 32
  // tasks into its inbox: the 32 pushes past a full ring must exhaust
  // their retries and run locally, with no task lost or run twice.
  constexpr std::uint32_t kOver = 32;
  pgas::Runtime rt(rcfg(2));
  TaskRegistry reg;
  std::uint32_t ran = 0;
  TaskFnId fn = reg.register_fn("noop", [&](Worker& w,
                                            std::span<const std::byte>) {
    w.compute(100);
    ++ran;
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  std::uint32_t ran_while_seeding = 0;
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() != 0) return;
      for (std::uint32_t i = 0; i < kCap + kOver; ++i)
        w.spawn_on(1, Task(fn, nullptr, 0));
      ran_while_seeding = ran;
    });
  });
  EXPECT_EQ(ran_while_seeding, kOver)
      << "the ring filled and exactly the overflow ran on the sender";
  EXPECT_EQ(pool.report().total.tasks_executed, kCap + kOver);
  EXPECT_GE(pool.worker_stats(0).tasks_executed, kOver);
  EXPECT_LE(pool.worker_stats(1).tasks_executed, kCap);
}

TEST(InboxPool, ScatterFromRootBalancesWithoutStealing) {
  // spawn_on as an explicit initial-distribution mechanism: root scatters
  // one long task per PE; everyone works without a single steal.
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  TaskFnId fn = reg.register_fn("work", [](Worker& w,
                                           std::span<const std::byte>) {
    w.compute(1'000'000);
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0)
        for (int pe = 0; pe < w.npes(); ++pe)
          w.spawn_on(pe, Task(fn, nullptr, 0));
    });
  });
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_EQ(pool.worker_stats(pe).tasks_executed, 1u) << "pe " << pe;
}

}  // namespace
}  // namespace sws::core
