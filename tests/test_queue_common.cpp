// Behaviour shared by both queue implementations (SDC baseline and SWS),
// run against each via TEST_P: local LIFO semantics, release/acquire
// geometry, steal-half volumes, content integrity, ring reclaim, and the
// per-run reset of the local half.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/queue.hpp"
#include "core/sdc_queue.hpp"
#include "core/sws_queue.hpp"

namespace sws::core {
namespace {

std::unique_ptr<TaskQueue> make_queue(pgas::Runtime& rt, QueueKind kind,
                                      std::uint32_t capacity = 1024,
                                      std::uint32_t slot_bytes = 32) {
  const QueueConfig qc{capacity, slot_bytes};
  if (kind == QueueKind::kSws) return std::make_unique<SwsQueue>(rt, qc);
  return std::make_unique<SdcQueue>(rt, qc);
}

Task mk(std::uint32_t id) { return Task::of(0, id); }
std::uint32_t id_of(const Task& t) { return t.payload_as<std::uint32_t>(); }

class QueueCommon : public ::testing::TestWithParam<QueueKind> {
 protected:
  pgas::RuntimeConfig rcfg(int npes) {
    pgas::RuntimeConfig c;
    c.npes = npes;
    c.heap_bytes = 1 << 20;
    return c;
  }
};

TEST_P(QueueCommon, PushPopIsLifo) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    for (std::uint32_t i = 0; i < 10; ++i) EXPECT_TRUE(q->push_local(ctx, mk(i)));
    EXPECT_EQ(q->local_count(ctx), 10u);
    Task t;
    for (std::uint32_t i = 10; i-- > 0;) {
      ASSERT_TRUE(q->pop_local(ctx, t));
      EXPECT_EQ(id_of(t), i);
    }
    EXPECT_FALSE(q->pop_local(ctx, t));
    EXPECT_EQ(q->local_count(ctx), 0u);
  });
}

TEST_P(QueueCommon, ReleaseExposesOldestHalf) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    for (std::uint32_t i = 0; i < 10; ++i) (void)q->push_local(ctx, mk(i));
    EXPECT_FALSE(q->shared_available(ctx));
    EXPECT_TRUE(q->try_release(ctx));
    EXPECT_TRUE(q->shared_available(ctx));
    EXPECT_EQ(q->local_count(ctx), 5u);
    // The local half is the newest: pops yield 9..5.
    Task t;
    for (std::uint32_t i = 10; i-- > 5;) {
      ASSERT_TRUE(q->pop_local(ctx, t));
      EXPECT_EQ(id_of(t), i);
    }
  });
}

TEST_P(QueueCommon, ReleaseNeedsTwoLocalTasks) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    EXPECT_FALSE(q->try_release(ctx));
    (void)q->push_local(ctx, mk(0));
    EXPECT_FALSE(q->try_release(ctx));
    (void)q->push_local(ctx, mk(1));
    EXPECT_TRUE(q->try_release(ctx));
  });
}

TEST_P(QueueCommon, AcquirePullsSharedBackWhenLocalEmpty) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    for (std::uint32_t i = 0; i < 8; ++i) (void)q->push_local(ctx, mk(i));
    ASSERT_TRUE(q->try_release(ctx));  // shared: ids 0..3, local: 4..7
    Task t;
    while (q->pop_local(ctx, t)) {}
    ASSERT_TRUE(q->try_acquire(ctx));
    EXPECT_GT(q->local_count(ctx), 0u);
    // Re-acquired tasks are the *newest* end of the shared region.
    ASSERT_TRUE(q->pop_local(ctx, t));
    EXPECT_EQ(id_of(t), 3u);
  });
}

TEST_P(QueueCommon, AcquireFailsWhenLocalNonEmptyOrSharedEmpty) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    EXPECT_FALSE(q->try_acquire(ctx));  // nothing anywhere
    (void)q->push_local(ctx, mk(0));
    EXPECT_FALSE(q->try_acquire(ctx));  // local work remains
  });
}

TEST_P(QueueCommon, StealTakesHalfOfShared) {
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 40; ++i) (void)q->push_local(ctx, mk(i));
      ASSERT_TRUE(q->try_release(ctx));  // 20 shared (ids 0..19)
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q->steal(ctx, 0, loot);
      ASSERT_EQ(r.outcome, StealOutcome::kSuccess);
      EXPECT_EQ(r.ntasks, 10u);
      ASSERT_EQ(loot.size(), 10u);
      for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(id_of(loot[i]), i) << "oldest tasks stolen first";
    }
    ctx.barrier();
  });
}

TEST_P(QueueCommon, StealFromEmptyQueueFails) {
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q->steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kEmpty);
      EXPECT_TRUE(loot.empty());
    }
    ctx.barrier();
  });
}

TEST_P(QueueCommon, RepeatedStealsDrainSharedInHalves) {
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 300; ++i) (void)q->push_local(ctx, mk(i));
      ASSERT_TRUE(q->try_release(ctx));  // 150 shared
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      // The paper's sequence: {75,37,19,9,5,2,1,1,1}.
      const std::uint32_t expect[] = {75, 37, 19, 9, 5, 2, 1, 1, 1};
      std::set<std::uint32_t> seen;
      for (std::uint32_t k = 0; k < 9; ++k) {
        std::vector<Task> loot;
        const StealResult r = q->steal(ctx, 0, loot);
        ASSERT_EQ(r.outcome, StealOutcome::kSuccess) << "steal " << k;
        EXPECT_EQ(r.ntasks, expect[k]) << "steal " << k;
        for (const Task& t : loot) {
          ASSERT_TRUE(seen.insert(id_of(t)).second) << "duplicate task";
        }
      }
      EXPECT_EQ(seen.size(), 150u);
      EXPECT_EQ(*seen.rbegin(), 149u);
      std::vector<Task> loot;
      EXPECT_EQ(q->steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
    }
    ctx.barrier();
  });
}

TEST_P(QueueCommon, ConcurrentThievesClaimDisjointBlocks) {
  pgas::Runtime rt(rcfg(4));
  auto q = make_queue(rt, GetParam());
  std::set<std::uint32_t> all_ids;
  std::multiset<std::uint32_t> sizes;
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 300; ++i) (void)q->push_local(ctx, mk(i));
      ASSERT_TRUE(q->try_release(ctx));
    }
    ctx.barrier();
    if (ctx.pe() != 0) {
      std::vector<Task> loot;
      StealResult r;
      do {  // SDC thieves may see kRetry under lock contention
        r = q->steal(ctx, 0, loot);
      } while (r.outcome == StealOutcome::kRetry);
      EXPECT_EQ(r.outcome, StealOutcome::kSuccess);
      if (r.outcome == StealOutcome::kSuccess) sizes.insert(r.ntasks);
      for (const Task& t : loot)
        EXPECT_TRUE(all_ids.insert(id_of(t)).second) << "double-claimed task";
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      // Three thieves claimed the first three halving blocks: 75+37+19.
      EXPECT_EQ(all_ids.size(), 131u);
      EXPECT_EQ(sizes, (std::multiset<std::uint32_t>{19, 37, 75}));
    }
    ctx.barrier();
  });
}

TEST_P(QueueCommon, RingSpaceIsReclaimedAfterSteals) {
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam(), /*capacity=*/64);
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    // Cycle far more tasks than the ring holds: push, release, let the
    // thief drain, progress, repeat.
    for (int round = 0; round < 20; ++round) {
      if (ctx.pe() == 0) {
        for (std::uint32_t i = 0; i < 40; ++i) {
          // progress() inside push_local must reclaim stolen space.
          ASSERT_TRUE(q->push_local(ctx, mk(i))) << "round " << round;
        }
        ASSERT_TRUE(q->try_release(ctx));
      }
      ctx.barrier();
      if (ctx.pe() == 1) {
        std::vector<Task> loot;
        while (q->steal(ctx, 0, loot).outcome == StealOutcome::kSuccess) {}
        ctx.quiet();  // force completion notifications to deliver
      }
      ctx.barrier();
      if (ctx.pe() == 0) {
        // Drain the local remainder and reclaim.
        Task t;
        while (q->pop_local(ctx, t)) {}
        q->progress(ctx);
      }
      ctx.barrier();
    }
  });
}

TEST_P(QueueCommon, PushFailsOnlyWhenRingTrulyFull) {
  pgas::Runtime rt(rcfg(1));
  auto q = make_queue(rt, GetParam(), /*capacity=*/16);
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    for (std::uint32_t i = 0; i < 16; ++i)
      EXPECT_TRUE(q->push_local(ctx, mk(i)));
    EXPECT_FALSE(q->push_local(ctx, mk(99)));
    Task t;
    ASSERT_TRUE(q->pop_local(ctx, t));
    EXPECT_TRUE(q->push_local(ctx, mk(100)));
  });
}

TEST_P(QueueCommon, OpStatsTrackSteals) {
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 8; ++i) (void)q->push_local(ctx, mk(i));
      (void)q->try_release(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      (void)q->steal(ctx, 0, loot);
      (void)q->steal(ctx, 0, loot);
    }
    ctx.barrier();
  });
  const QueueOpStats& s = q->op_stats(1);
  EXPECT_EQ(s.steals_ok, 2u);
  EXPECT_EQ(s.tasks_stolen, 2u + 1u);  // 4 shared → blocks {2,1,1}
  EXPECT_EQ(q->op_stats(0).releases, 1u);
}

TEST_P(QueueCommon, ResetPeStartsFromAnEmptyLocalHalf) {
  // The local half (cursors, recovered tasks, op counters) is reset by the
  // base for either protocol: after a run that pushed, released and lost
  // a steal, reset_pe must leave nothing behind on owner or thief.
  pgas::Runtime rt(rcfg(2));
  auto q = make_queue(rt, GetParam());
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 8; ++i) (void)q->push_local(ctx, mk(i));
      ASSERT_TRUE(q->try_release(ctx));
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      ASSERT_EQ(q->steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      for (const Task& t : loot) ASSERT_TRUE(q->push_local(ctx, t));
      ctx.quiet();
    }
    ctx.barrier();
    EXPECT_GT(q->local_count(ctx), 0u);
    EXPECT_NE(q->op_stats(ctx.pe()), QueueOpStats{});
    ctx.barrier();

    q->reset_pe(ctx);
    ctx.barrier();
    EXPECT_EQ(q->local_count(ctx), 0u);
    Task t;
    EXPECT_FALSE(q->pop_local(ctx, t));
    EXPECT_EQ(q->op_stats(ctx.pe()), QueueOpStats{});
    std::vector<Task> rec;
    EXPECT_EQ(q->take_recovered(ctx, rec), 0u);
    EXPECT_TRUE(rec.empty());
    EXPECT_EQ(q->audit(ctx), "");
  });
}

INSTANTIATE_TEST_SUITE_P(BothQueues, QueueCommon,
                         ::testing::Values(QueueKind::kSdc, QueueKind::kSws),
                         [](const auto& info) {
                           return info.param == QueueKind::kSdc ? "SDC" : "SWS";
                         });

}  // namespace
}  // namespace sws::core
