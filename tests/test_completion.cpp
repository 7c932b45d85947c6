// Completion arrays and epochs: the Table-1 state machine and the
// longest-finished-prefix reclaim rule.
#include <gtest/gtest.h>

#include "core/completion.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

TEST(Completion, SlotsStartUnclaimed) {
  pgas::Runtime rt(rcfg(1));
  CompletionSpace cs(rt.heap());
  rt.run([&](pgas::PeContext& ctx) {
    for (std::uint32_t e = 0; e < kNumEpochs; ++e)
      for (std::uint32_t i = 0; i < CompletionSpace::kSlotsPerEpoch; ++i)
        EXPECT_EQ(cs.read(ctx, e, i), 0u);
  });
}

TEST(Completion, NotifyDeliversAfterQuiet) {
  pgas::Runtime rt(rcfg(2));
  CompletionSpace cs(rt.heap());
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 1) {
      cs.notify_finished(ctx, /*victim=*/0, /*epoch=*/0, /*idx=*/3,
                         /*ntasks=*/19);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(cs.read(ctx, 0, 3), 19u);
      EXPECT_EQ(cs.read(ctx, 0, 2), 0u);
      EXPECT_EQ(cs.read(ctx, 1, 3), 0u) << "other epoch untouched";
    }
    ctx.barrier();
  });
}

TEST(Completion, NotificationIsAsynchronous) {
  // The owner must NOT see the completion at issue time — it arrives when
  // virtual time passes the delivery deadline. This is the asynchrony
  // completion epochs exist to tolerate.
  pgas::Runtime rt(rcfg(2));
  CompletionSpace cs(rt.heap());
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 1) {
      cs.notify_finished(ctx, 0, 0, 0, 5);
      EXPECT_EQ(ctx.fabric().pending(1), 1) << "effect still in flight";
      ctx.quiet();
      EXPECT_EQ(ctx.fabric().pending(1), 0);
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(cs.read(ctx, 0, 0), 5u);
    }
    ctx.barrier();
  });
}

TEST(Completion, FinishedPrefixStopsAtFirstPending) {
  pgas::Runtime rt(rcfg(2));
  CompletionSpace cs(rt.heap());
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 1) {
      // Blocks 0, 1, 3 finished; block 2 still claimed.
      cs.notify_finished(ctx, 0, 0, 0, 75);
      cs.notify_finished(ctx, 0, 0, 1, 37);
      cs.notify_finished(ctx, 0, 0, 3, 9);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      EXPECT_EQ(cs.finished_prefix(ctx, 0, 9), 2u);
      EXPECT_EQ(cs.read(ctx, 0, 3), 9u) << "finished past the gap";
    }
    ctx.barrier();
  });
}

TEST(Completion, ClearEpochResetsOnlyThatEpoch) {
  pgas::Runtime rt(rcfg(2));
  CompletionSpace cs(rt.heap());
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 1) {
      cs.notify_finished(ctx, 0, 0, 0, 1);
      cs.notify_finished(ctx, 0, 1, 0, 2);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 0) {
      cs.clear_epoch(ctx, 0);
      EXPECT_EQ(cs.read(ctx, 0, 0), 0u);
      EXPECT_EQ(cs.read(ctx, 1, 0), 2u);
    }
    ctx.barrier();
  });
}

TEST(Completion, AllotmentRecordClaimedEnd) {
  // 150-task allotment with 3 claimed blocks {75,37,19}: reclaim target is
  // base + 131.
  const AllotmentRecord rec{0, 1000, 150, 3};
  EXPECT_EQ(rec.claimed_end_abs(), 1000u + 75 + 37 + 19);
  const AllotmentRecord all{0, 0, 150, steal_block_count(150)};
  EXPECT_EQ(all.claimed_end_abs(), 150u);
  const AllotmentRecord none{1, 77, 150, 0};
  EXPECT_EQ(none.claimed_end_abs(), 77u);
}

}  // namespace
}  // namespace sws::core
