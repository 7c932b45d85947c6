// SWS-specific behaviour: the single-AMO claim, completion epochs, the
// locked sentinel, steal damping, and communication counts (the paper's
// headline).
#include <gtest/gtest.h>

#include <set>

#include "core/sws_queue.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

Task mk(std::uint32_t id) { return Task::of(0, id); }
std::uint32_t id_of(const Task& t) { return t.payload_as<std::uint32_t>(); }

QueueConfig qcfg(std::uint32_t capacity = 1024) {
  return QueueConfig{capacity, /*slot_bytes=*/32};
}

net::FabricStats delta(const net::FabricStats& after,
                       const net::FabricStats& before) {
  net::FabricStats d = after;
  for (std::size_t i = 0; i < net::kNumOpKinds; ++i) d.ops[i] -= before.ops[i];
  d.remote_ops -= before.remote_ops;
  d.local_ops -= before.local_ops;
  return d;
}

TEST(SwsQueue, SuccessfulStealIsExactlyThreeComms) {
  // Fig 2: fetch-add + task get + non-blocking completion — and only the
  // first two block.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg());
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
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kAmoFetchAdd)], 1u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kGet)], 1u);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kNbiAmoAdd)], 1u);
      EXPECT_EQ(d.remote_ops, 3u) << "steal must be exactly 3 communications";
      EXPECT_EQ(d.blocking_ops(), 2u) << "only 2 of them blocking";
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, FailedStealIsOneComm) {
  // Work discovery on an empty queue costs a single 64-bit AMO — the
  // reason Fig 8f's search time is flat.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      const net::FabricStats before = ctx.fabric().stats(1);
      std::vector<Task> loot;
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
      const net::FabricStats d = delta(ctx.fabric().stats(1), before);
      EXPECT_EQ(d.remote_ops, 1u);
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, OwnerStealvalReflectsReleases) {
  pgas::Runtime rt(rcfg(1));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    EXPECT_EQ(q.owner_stealval(ctx).itasks, 0u);
    for (std::uint32_t i = 0; i < 300; ++i) (void)q.push_local(ctx, mk(i));
    ASSERT_TRUE(q.try_release(ctx));
    const StealVal sv = q.owner_stealval(ctx);
    EXPECT_EQ(sv.itasks, 150u);
    EXPECT_EQ(sv.asteals, 0u);
    EXPECT_FALSE(sv.locked());
  });
}

TEST(SwsQueue, EpochRotatesOnEachAllotmentReset) {
  pgas::Runtime rt(rcfg(1));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    std::set<std::uint32_t> epochs;
    Task t;
    for (int round = 0; round < 4; ++round) {
      for (std::uint32_t i = 0; i < 10; ++i) (void)q.push_local(ctx, mk(i));
      ASSERT_TRUE(q.try_release(ctx));
      epochs.insert(q.owner_stealval(ctx).epoch);
      // Drain: acquire halves the shared remainder each time, so iterate
      // until the allotment is empty.
      while (q.shared_available(ctx)) {
        while (q.pop_local(ctx, t)) {}
        ASSERT_TRUE(q.try_acquire(ctx));
        epochs.insert(q.owner_stealval(ctx).epoch);
      }
      while (q.pop_local(ctx, t)) {}
    }
    EXPECT_EQ(epochs.size(), kNumEpochs) << "both live epochs must be used";
  });
}

TEST(SwsQueue, EpochsOffKeepsSingleEpoch) {
  pgas::Runtime rt(rcfg(1));
  SwsConfig c;
  c.epochs = false;
  SwsQueue q(rt, qcfg(), c);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    Task t;
    for (int round = 0; round < 3; ++round) {
      for (std::uint32_t i = 0; i < 10; ++i) (void)q.push_local(ctx, mk(i));
      ASSERT_TRUE(q.try_release(ctx));
      EXPECT_EQ(q.owner_stealval(ctx).epoch, 0u);
      while (q.shared_available(ctx)) {
        while (q.pop_local(ctx, t)) {}
        ASSERT_TRUE(q.try_acquire(ctx));
        EXPECT_EQ(q.owner_stealval(ctx).epoch, 0u);
      }
      while (q.pop_local(ctx, t)) {}
    }
  });
}

TEST(SwsQueue, AcquireWithInFlightStealWaitsOnlyWithEpochsOff) {
  // With epochs on, an acquire while a steal's completion is still in
  // flight must not lose the claim: the claimed block's region is only
  // reclaimed after its notification lands.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 40; ++i) (void)q.push_local(ctx, mk(i));
      ASSERT_TRUE(q.try_release(ctx));  // 20 shared
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      // Do NOT quiet: the completion stays pending while the owner acts.
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      Task t;
      while (q.pop_local(ctx, t)) {}
      // 10 unclaimed shared remain; acquire must succeed despite the
      // pending completion of the stolen block.
      ASSERT_TRUE(q.try_acquire(ctx));
      std::uint32_t n = 0;
      while (q.pop_local(ctx, t)) ++n;
      EXPECT_EQ(n, 5u);  // acquired half of the 10 unclaimed
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, ThiefHittingLockedQueueRetries) {
  // Park the locked sentinel in the stealval (as retire_allotment does
  // mid-reset) and verify a thief backs off with kRetry without claiming.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0)
      ctx.fabric().amo_set(0, 0, q.stealval_ptr().off, locked_sentinel());
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q.steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kRetry);
      EXPECT_TRUE(loot.empty());
      EXPECT_GT(r.retry_after_ns, 0u) << "retry on the owner's poll cadence";
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      // Owner re-publishes; the stray sentinel increments are discarded.
      ctx.fabric().amo_set(0, 0, q.stealval_ptr().off,
                           StealVal{0, 0, 0, 0}.encode());
      EXPECT_EQ(q.owner_stealval(ctx).asteals, 0u);
    }
    ctx.barrier();
  });
}

// SwsQueue's damping slack: an empty target's fetch-add that returns
// asteals >= slack (the 9th failed attempt) flips it to empty-mode.
constexpr int kDampingSlack = 8;

TEST(SwsQueue, DampingMovesExhaustedTargetsToProbeMode) {
  pgas::Runtime rt(rcfg(2));
  SwsConfig c;
  c.damping = true;
  SwsQueue q(rt, qcfg(), c);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      // Hammer an empty target: after slack failures it flips to
      // empty-mode, where attempts become read-only probes.
      for (int i = 0; i < kDampingSlack + 3; ++i)
        EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
      EXPECT_EQ(q.op_stats(1).damping_probes, 2u);
      // asteals stopped growing once probing started.
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, DampingProbesStopInflatingAsteals) {
  pgas::Runtime rt(rcfg(2));
  SwsConfig c;
  c.damping = true;
  SwsQueue q(rt, qcfg(), c);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      for (int i = 0; i < 50; ++i) (void)q.steal(ctx, 0, loot);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      // Without damping asteals would be 50; with it, growth stops one
      // past the slack threshold.
      EXPECT_EQ(q.owner_stealval(ctx).asteals, kDampingSlack + 1u);
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, DampedTargetRecoversWhenWorkAppears) {
  pgas::Runtime rt(rcfg(2));
  SwsConfig c;
  c.damping = true;
  SwsQueue q(rt, qcfg(), c);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      for (int i = 0; i < kDampingSlack + 3; ++i)
        (void)q.steal(ctx, 0, loot);  // → empty-mode
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 20; ++i) (void)q.push_local(ctx, mk(i));
      ASSERT_TRUE(q.try_release(ctx));
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      const StealResult r = q.steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kSuccess)
          << "probe must detect new work and claim it";
      EXPECT_EQ(r.ntasks, 5u);
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, DampingOffAstealsGrowsUnbounded) {
  pgas::Runtime rt(rcfg(2));
  SwsConfig c;
  c.damping = false;
  SwsQueue q(rt, qcfg(), c);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      for (int i = 0; i < 30; ++i) (void)q.steal(ctx, 0, loot);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(q.owner_stealval(ctx).asteals, 30u);
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, CapacityBeyondITasksFieldRejected) {
  pgas::Runtime rt(rcfg(1));
  EXPECT_THROW(SwsQueue(rt, QueueConfig{kMaxITasks + 1, 32}),
               std::invalid_argument);
}

TEST(SwsQueue, WrappedStealPreservesContent) {
  // Cycle work through a small ring until a released allotment straddles
  // the wrap point, then verify the wrapped steal copies the right tasks.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg(/*capacity=*/32));
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    // One cycle: owner exposes half, the thief drains the allotment fully,
    // the owner consumes its local half and reclaims the ring space.
    auto cycle = [&](std::uint32_t n, bool check_wrap) {
      if (ctx.pe() == 0) {
        for (std::uint32_t i = 0; i < n; ++i)
          ASSERT_TRUE(q.push_local(ctx, mk(i)));
        ASSERT_TRUE(q.try_release(ctx));
      }
      ctx.barrier();
      if (ctx.pe() == 1) {
        std::vector<Task> loot;
        bool first = true;
        for (;;) {
          loot.clear();
          const auto gets_before =
              ctx.fabric().stats(1).ops[static_cast<int>(net::OpKind::kGet)];
          const StealResult r = q.steal(ctx, 0, loot);
          if (r.outcome != StealOutcome::kSuccess) break;
          if (first && check_wrap) {
            EXPECT_EQ(ctx.fabric().stats(1).ops[static_cast<int>(
                          net::OpKind::kGet)] -
                          gets_before,
                      2u)
                << "first block should straddle the ring boundary";
          }
          if (first) {
            // Stolen block is the oldest prefix of the exposed half.
            for (std::uint32_t i = 0; i < r.ntasks; ++i)
              EXPECT_EQ(id_of(loot[i]), i);
          }
          first = false;
        }
        ctx.quiet();
      }
      ctx.barrier();
      if (ctx.pe() == 0) {
        Task t;
        while (q.pop_local(ctx, t)) {}
        q.progress(ctx);
      }
      ctx.barrier();
    };
    // Ring walk: 32 + 24 advance head to absolute 52; the third exposure
    // [28, 40) straddles slot 32 → wrapped first block.
    cycle(32, false);
    cycle(24, false);
    cycle(24, true);
  });
}

TEST(SwsQueue, AStealsWraparoundCannotDoubleClaim) {
  // Regression for the 24-bit asteals wrap: a probe storm that carries the
  // counter past 2^24 makes a late thief's fetched prior alias block 0 of
  // an allotment whose blocks were all claimed long ago — the same tasks
  // get copied twice. The guards (thief soft cap + owner renewal) must
  // keep every task unique and the owner must renew at least once.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg(256));
  std::vector<Task> loot;              // thief-side (PE 1 only)
  std::vector<std::uint32_t> drained;  // owner-side (PE 0 only)
  constexpr std::uint32_t kTasks = 150;
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < kTasks; ++i)
        ASSERT_TRUE(q.push_local(ctx, mk(i)));
      ASSERT_TRUE(q.try_release(ctx));  // exposes 75 tasks = 8 blocks
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      // Claim the whole allotment legitimately: 8 blocks, asteals ends at 8.
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      // Simulate the probe storm: raw-inject failed-steal increments until
      // the counter sits 4 below the wrap point.
      ctx.fabric().amo_fetch_add(
          1, 0, q.stealval_ptr().off,
          AStealsField::unit() * (((1u << 24) - 4) - 8));
      // Unguarded, attempt 5 of this loop wraps the counter to 0 and the
      // following attempts re-claim blocks 0..7. Guarded, attempt 1 sees
      // the saturated prior, refuses, and flips to probe-first mode.
      for (int i = 0; i < 16; ++i) {
        const StealResult r = q.steal(ctx, 0, loot);
        EXPECT_NE(r.outcome, StealOutcome::kSuccess)
            << "steal past a saturated counter claimed a stale block";
      }
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      // The saturated counter is the owner's renewal trigger.
      q.progress(ctx);
      EXPECT_GE(q.op_stats(0).renews, 1u)
          << "owner never renewed the saturated allotment";
      Task t;
      for (int guard = 0; guard < 64; ++guard) {
        q.progress(ctx);
        while (q.pop_local(ctx, t)) drained.push_back(id_of(t));
        if (!q.shared_available(ctx)) break;
        (void)q.try_acquire(ctx);
      }
    }
    ctx.barrier();
  });
  // Every id surfaced exactly once, somewhere.
  std::set<std::uint32_t> seen;
  std::size_t total = drained.size();
  for (std::uint32_t id : drained) EXPECT_TRUE(seen.insert(id).second) << id;
  for (const Task& t : loot) {
    ++total;
    EXPECT_TRUE(seen.insert(id_of(t)).second)
        << "task " << id_of(t) << " stolen twice after counter wrap";
  }
  EXPECT_EQ(total, kTasks);
  EXPECT_EQ(seen.size(), kTasks);
}

TEST(SwsQueue, BulkStealClaimsContiguousBlocksInOneComm) {
  // Bulk mode: one fetch-add claims up to `claim_size` contiguous
  // steal-half blocks, copied with a single coalesced get plus one cheap
  // completion add per block. The thief's claim size is AIMD: it starts at
  // 1 and doubles on every success, so against a 75-task allotment
  // (blocks {37,19,9,5,2,1,1,1}) the steal sequence is 1, 2, 4, then 1
  // leftover block — and the loot must be the allotment in order.
  pgas::Runtime rt(rcfg(2));
  SwsConfig scfg;
  scfg.bulk_claim_max = 4;
  SwsQueue q(rt, qcfg(), scfg);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 150; ++i) ASSERT_TRUE(q.push_local(ctx, mk(i)));
      ASSERT_TRUE(q.try_release(ctx));  // exposes 75 tasks = 8 blocks
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      struct Expect {
        std::uint32_t blocks, ntasks, gets;
      };
      // want grows 1 -> 2 -> 4 -> 4 (capped); the last claim finds only
      // block 7 left. No claim wraps the ring, so each is a single get.
      const Expect steps[] = {{1, 37, 1}, {2, 28, 1}, {4, 9, 1}, {1, 1, 1}};
      std::uint32_t blocks = 0, bulk = 0;
      for (const Expect& e : steps) {
        const net::FabricStats before = ctx.fabric().stats(1);
        const StealResult r = q.steal(ctx, 0, loot);
        ASSERT_EQ(r.outcome, StealOutcome::kSuccess);
        EXPECT_EQ(r.blocks, e.blocks);
        EXPECT_EQ(r.ntasks, e.ntasks);
        blocks += r.blocks;
        bulk += r.blocks > 1 ? 1 : 0;
        const net::FabricStats d = delta(ctx.fabric().stats(1), before);
        EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kAmoFetchAdd)], 1u)
            << "a bulk claim is still one discover+claim AMO";
        EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kGet)], e.gets)
            << "contiguous blocks must coalesce into one get";
        EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kNbiAmoAdd)], e.blocks)
            << "one completion add per claimed block";
        EXPECT_EQ(d.blocking_ops(), 1u + e.gets)
            << "completion adds must stay non-blocking";
      }
      EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
      // The four claims drained the allotment contiguously, in order.
      ASSERT_EQ(loot.size(), 75u);
      for (std::uint32_t i = 0; i < 75; ++i) EXPECT_EQ(id_of(loot[i]), i);
      EXPECT_EQ(bulk, 2u);    // the 2- and 4-block claims
      EXPECT_EQ(blocks, 8u);  // 1 + 2 + 4 + 1
      ctx.quiet();
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, BulkClaimEndingPastSoftCapRefuses) {
  // Regression (bulk counterpart of AStealsWraparoundCannotDoubleClaim):
  // the refuse threshold must account for the claim *size*, not just the
  // fetched prior. A 4-block claim whose prior sits 2 below the soft cap
  // would end 2 past it — checking `prior >= cap` alone lets it through
  // to the claim path, eroding the wraparound headroom bound (each thief
  // may overshoot by at most one claim). Pre-fix this returned kEmpty via
  // the exhausted-allotment path; the fix refuses with kRetry and flips
  // the thief to read-only probes.
  pgas::Runtime rt(rcfg(2));
  SwsConfig scfg;
  scfg.bulk_claim_max = 4;
  SwsQueue q(rt, qcfg(256), scfg);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 150; ++i) ASSERT_TRUE(q.push_local(ctx, mk(i)));
      ASSERT_TRUE(q.try_release(ctx));  // exposes 75 tasks = 8 blocks
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      // Two successes grow the adaptive claim size to 4 (asteals: 0 -> 3).
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      // Raw-inject failed-steal increments until the counter sits 2 below
      // the soft cap — within one 4-unit claim of crossing it.
      ctx.fabric().amo_fetch_add(1, 0, q.stealval_ptr().off,
                                 AStealsField::unit() * (kAStealsSoftCap - 2 - 3));
      const net::FabricStats before = ctx.fabric().stats(1);
      const StealResult r = q.steal(ctx, 0, loot);
      EXPECT_EQ(r.outcome, StealOutcome::kRetry)
          << "claim ending past the soft cap must refuse, not claim";
      EXPECT_EQ(r.ntasks, 0u);
      EXPECT_EQ(r.blocks, 0u);
      const net::FabricStats d = delta(ctx.fabric().stats(1), before);
      EXPECT_EQ(d.ops[static_cast<int>(net::OpKind::kGet)], 0u)
          << "a refused claim must not copy tasks";
      // The refused fetch-add is the thief's one allowed overshoot; the
      // counter must sit within kMaxBulkClaim of the cap, far from wrap.
      const StealVal after = StealVal::decode(
          ctx.fabric().amo_fetch(1, 0, q.stealval_ptr().off));
      EXPECT_LE(after.asteals, kAStealsSoftCap + kMaxBulkClaim);
      // Follow-up attempts are read-only probes: they stop feeding the
      // counter entirely while the owner has not renewed.
      const std::uint64_t probes_before = q.op_stats(1).damping_probes;
      EXPECT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kEmpty);
      EXPECT_EQ(q.op_stats(1).damping_probes, probes_before + 1);
      const StealVal after2 = StealVal::decode(
          ctx.fabric().amo_fetch(1, 0, q.stealval_ptr().off));
      EXPECT_EQ(after2.asteals, after.asteals);
      ctx.quiet();
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, RejectsCapacityBeyondStealvalFields) {
  // A ring deeper than the 19-bit itasks/tail fields could publish an
  // allotment the stealval cannot describe; construction must refuse it
  // up front rather than truncate at release time.
  pgas::Runtime rt(rcfg(2));
  EXPECT_THROW(SwsQueue(rt, qcfg(kMaxITasks + 1)), std::invalid_argument);
  SwsQueue ok(rt, qcfg(1024));  // sane capacity still constructs
}

TEST(SwsQueue, RejectsBulkClaimBeyondCompletionDepth) {
  // A claim wider than the completion array (kMaxBulkClaim slots per
  // epoch) could never notify all its blocks; 0 would make every steal a
  // no-op fetch-add. Both are configuration bugs, refused up front.
  pgas::Runtime rt(rcfg(2));
  SwsConfig bad;
  bad.bulk_claim_max = kMaxBulkClaim + 1;
  EXPECT_THROW(SwsQueue(rt, qcfg(), bad), std::invalid_argument);
  bad.bulk_claim_max = 0;
  EXPECT_THROW(SwsQueue(rt, qcfg(), bad), std::invalid_argument);
}

TEST(SwsQueue, StealPressureEnlargesNextRelease) {
  // Owner half of bulk mode: progress() tracks the asteals delta against
  // the live allotment; once it crosses the pressure threshold, the next
  // release exposes 3/4 of the local portion instead of half, feeding a
  // hot allotment to the thieves instead of drip-releasing.
  pgas::Runtime rt(rcfg(2));
  SwsConfig scfg;
  scfg.bulk_claim_max = 4;
  SwsQueue q(rt, qcfg(), scfg);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 160; ++i)
        ASSERT_TRUE(q.push_local(ctx, mk(i)));
      ASSERT_TRUE(q.try_release(ctx));
      EXPECT_EQ(q.owner_stealval(ctx).itasks, 80u);  // ordinary half
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      // Drain the allotment; the AIMD claim sizes (1, 2, 4, 4) plus one
      // empty probe advance asteals well past the pressure threshold.
      std::vector<Task> loot;
      while (q.steal(ctx, 0, loot).outcome == StealOutcome::kSuccess) {}
      EXPECT_EQ(loot.size(), 80u);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      for (int i = 0; i < 64 && q.shared_available(ctx); ++i) q.progress(ctx);
      q.progress(ctx);  // samples the steal pressure off the stealval
      ASSERT_TRUE(q.try_release(ctx));
      EXPECT_EQ(q.owner_stealval(ctx).itasks, 60u)
          << "a pressured release must expose 3/4 of the 80 local tasks";
      EXPECT_EQ(q.op_stats(0).pressure_releases, 1u);
    }
    ctx.barrier();
  });
}

TEST(SwsQueue, AuditStaysGreenThroughProtocol) {
  // audit() is the Explorer's invariant hook; it must hold between any two
  // owner-side operations of an ordinary release/steal/acquire exchange.
  pgas::Runtime rt(rcfg(2));
  SwsQueue q(rt, qcfg());
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    EXPECT_EQ(q.audit(ctx), "");
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 40; ++i) (void)q.push_local(ctx, mk(i));
      EXPECT_EQ(q.audit(ctx), "");
      ASSERT_TRUE(q.try_release(ctx));
      EXPECT_EQ(q.audit(ctx), "");
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<Task> loot;
      ASSERT_EQ(q.steal(ctx, 0, loot).outcome, StealOutcome::kSuccess);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      q.progress(ctx);
      EXPECT_EQ(q.audit(ctx), "");
      (void)q.try_acquire(ctx);
      EXPECT_EQ(q.audit(ctx), "");
      Task t;
      while (q.pop_local(ctx, t)) {}
      q.progress(ctx);
      EXPECT_EQ(q.audit(ctx), "");
    }
    ctx.barrier();
  });
}

}  // namespace
}  // namespace sws::core
