// The counter termination detector: safety (never fire early) and
// liveness (always fire once quiescent).
#include <gtest/gtest.h>

#include "core/termination.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

TEST(CounterTermination, EmptySystemTerminatesImmediately) {
  pgas::Runtime rt(rcfg(4));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    ctx.barrier();
    // Nothing was ever created: detection must fire within bounded polls.
    bool done = false;
    for (int i = 0; i < 200 && !done; ++i) {
      done = det.check(ctx);
      if (!done) ctx.compute(500);
    }
    EXPECT_TRUE(done);
  });
}

TEST(CounterTermination, OutstandingWorkBlocksTermination) {
  pgas::Runtime rt(rcfg(4));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) {
      det.count_created(ctx, 3);
      det.task_boundary(ctx);  // flush the positive delta
    }
    ctx.barrier();
    for (int i = 0; i < 20; ++i) {
      EXPECT_FALSE(det.check(ctx)) << "tasks outstanding on PE 0";
      ctx.compute(500);
    }
    ctx.barrier();
    // Complete the work; everyone must now detect termination.
    if (ctx.pe() == 0) {
      det.count_completed(ctx, 3);
      det.task_boundary(ctx);
    }
    ctx.barrier();
    bool done = false;
    for (int i = 0; i < 500 && !done; ++i) {
      done = det.check(ctx);
      if (!done) ctx.compute(500);
    }
    EXPECT_TRUE(done);
  });
}

TEST(CounterTermination, CrossPeCreationAndCompletionBalances) {
  // PE 0 "creates" tasks that PE 1..3 "execute" (the steal pattern).
  pgas::Runtime rt(rcfg(4));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) {
      det.count_created(ctx, 9);
      det.task_boundary(ctx);
    }
    ctx.barrier();
    if (ctx.pe() != 0) {
      det.count_completed(ctx, 3);
      det.task_boundary(ctx);
    }
    ctx.barrier();
    bool done = false;
    for (int i = 0; i < 500 && !done; ++i) {
      done = det.check(ctx);
      if (!done) ctx.compute(500);
    }
    EXPECT_TRUE(done);
  });
}

TEST(CounterTermination, WorksOnSinglePe) {
  pgas::Runtime rt(rcfg(1));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    det.count_created(ctx, 2);
    det.task_boundary(ctx);
    EXPECT_FALSE(det.check(ctx));
    det.count_completed(ctx, 2);
    bool done = false;
    for (int i = 0; i < 50 && !done; ++i) done = det.check(ctx);
    EXPECT_TRUE(done);
  });
}

TEST(CounterTermination, ResetsCleanlyBetweenRuns) {
  pgas::Runtime rt(rcfg(2));
  CounterTermination det(rt);
  for (int run = 0; run < 3; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      det.reset_pe(ctx);
      ctx.barrier();
      if (ctx.pe() == 0) {
        det.count_created(ctx, 1);
        det.task_boundary(ctx);
      }
      ctx.barrier();
      EXPECT_FALSE(det.check(ctx));
      ctx.barrier();
      if (ctx.pe() == 0) det.count_completed(ctx, 1);
      ctx.barrier();
      bool done = false;
      for (int i = 0; i < 500 && !done; ++i) {
        done = det.check(ctx);
        if (!done) ctx.compute(500);
      }
      EXPECT_TRUE(done);
    });
  }
}

TEST(CounterTermination, NegativeDeltasBatchUntilCheck) {
  // Completions may sit locally (the counter only over-estimates), but a
  // check() must flush them.
  pgas::Runtime rt(rcfg(2));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) {
      det.count_created(ctx, 5);
      det.task_boundary(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      det.count_completed(ctx, 5);
      // No boundary flush needed — the delta is negative.
      EXPECT_TRUE(det.check(ctx));
    }
    ctx.barrier();
  });
}

TEST(CounterTermination, PositiveDeltaFlushesAtBoundary) {
  pgas::Runtime rt(rcfg(2));
  CounterTermination det(rt);
  rt.run([&](pgas::PeContext& ctx) {
    det.reset_pe(ctx);
    ctx.barrier();
    if (ctx.pe() == 0) {
      det.count_created(ctx, 2);
      det.count_completed(ctx, 1);
      det.task_boundary(ctx);  // net +1 must flush here
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      EXPECT_FALSE(det.check(ctx))
          << "PE 1 must see the outstanding task immediately after PE 0's "
             "boundary";
    }
    ctx.barrier();
  });
}

}  // namespace
}  // namespace sws::core
