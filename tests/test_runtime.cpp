// Runtime SPMD execution, PeContext sugar, and the collectives built on
// one-sided ops.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pgas/runtime.hpp"

namespace sws::pgas {
namespace {

RuntimeConfig cfg(int npes) {
  RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

TEST(Runtime, RunsBodyOnEveryPe) {
  Runtime rt(cfg(8));
  int count = 0;
  int pe_mask = 0;
  rt.run([&](PeContext& ctx) {
    ++count;
    pe_mask |= 1 << ctx.pe();
    EXPECT_EQ(ctx.npes(), 8);
  });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(pe_mask, 0xff);
}

TEST(Runtime, ComputeAdvancesOnlyThisPesClock) {
  Runtime rt(cfg(2));
  rt.run([&](PeContext& ctx) {
    if (ctx.pe() == 0) ctx.compute(5000);
    ctx.barrier();
  });
  EXPECT_GE(rt.time().now(0), 5000u);
}

TEST(Runtime, LastRunDurationIsMaxPeTime) {
  Runtime rt(cfg(3));
  rt.run([&](PeContext& ctx) {
    ctx.compute(static_cast<net::Nanos>(1000) * (ctx.pe() + 1));
  });
  EXPECT_GE(rt.last_run_duration(), 3000u);
}

TEST(Runtime, OneSidedSugarRoundTrips) {
  Runtime rt(cfg(2));
  const SymPtr p = rt.heap().alloc(64);
  rt.run([&](PeContext& ctx) {
    if (ctx.pe() == 0) {
      const std::uint64_t v = 0xabcdef;
      ctx.put(1, p, 0, &v, 8);
      std::uint64_t back = 0;
      ctx.get(1, p, 0, &back, 8);
      EXPECT_EQ(back, 0xabcdefu);
      EXPECT_EQ(ctx.fetch_add(1, p, 1), 0xabcdefu);
      EXPECT_EQ(ctx.fetch(1, p), 0xabcdf0u);
      EXPECT_EQ(ctx.compare_swap(1, p, 0xabcdf0, 9), 0xabcdf0u);
      EXPECT_EQ(ctx.fetch(1, p), 9u);
      ctx.set(1, p, 0);
      EXPECT_EQ(ctx.fetch(1, p), 0u);
    }
  });
}

TEST(Runtime, LocalLoadSeesOwnArena) {
  Runtime rt(cfg(2));
  const SymPtr p = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    ctx.set(ctx.pe(), p, static_cast<std::uint64_t>(ctx.pe()) + 10);
    EXPECT_EQ(ctx.local_load(p), static_cast<std::uint64_t>(ctx.pe()) + 10);
  });
}

TEST(Runtime, NbiAddsCompleteAtQuiet) {
  Runtime rt(cfg(2));
  const SymPtr word = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    if (ctx.pe() == 0) {
      for (int i = 0; i < 4; ++i) ctx.nbi_add(1, word, 1);
      ctx.quiet();
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      EXPECT_EQ(ctx.local_load(word), 4u);
    }
    ctx.barrier();
  });
}

TEST(Runtime, PingPongThroughRemoteSets) {
  // Bounce a counter between two PEs: each waits on its own word for the
  // other's remote set, polling with compute so virtual time advances.
  Runtime rt(cfg(2));
  const SymPtr flag = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    const int other = 1 - ctx.pe();
    for (std::uint64_t round = 1; round <= 10; ++round) {
      if (ctx.pe() == static_cast<int>(round % 2)) {
        ctx.set(other, flag, round);
      } else {
        while (ctx.local_load(flag) < round) ctx.compute(200);
      }
    }
    ctx.barrier();
  });
}

TEST(Runtime, PesResumeInVirtualTimeOrder) {
  // Virtual-time PEs share one host thread as fibers: after unequal
  // computes they resume in virtual-time order, each with its own context.
  Runtime rt(cfg(4));
  const SymPtr word = rt.heap().alloc(8);
  std::vector<int> resumed;
  rt.run([&](PeContext& ctx) {
    // Shorter compute for higher ids: they resume in reverse order.
    ctx.compute(static_cast<net::Nanos>(100 + 10 * (3 - ctx.pe())));
    resumed.push_back(ctx.pe());
    // Each PE owns the word on its successor: put, then read it back.
    const int next = (ctx.pe() + 1) % ctx.npes();
    const std::uint64_t mine = 1000 + static_cast<std::uint64_t>(ctx.pe());
    ctx.put(next, word, 0, &mine, sizeof(mine));
    std::uint64_t back = 0;
    ctx.get(next, word, 0, &back, sizeof(back));
    EXPECT_EQ(back, mine);
  });
  EXPECT_EQ(resumed, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Runtime, ExceptionInOnePePropagates) {
  Runtime rt(cfg(4));
  EXPECT_THROW(rt.run([&](PeContext& ctx) {
    if (ctx.pe() == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(Runtime, RngStreamsDifferAcrossPes) {
  Runtime rt(cfg(2));
  std::uint64_t first[2];
  rt.run([&](PeContext& ctx) { first[ctx.pe()] = ctx.rng().next(); });
  EXPECT_NE(first[0], first[1]);
}

TEST(Runtime, RngIsDeterministicAcrossRuns) {
  Runtime rt(cfg(2));
  std::uint64_t a[2], b[2];
  rt.run([&](PeContext& ctx) { a[ctx.pe()] = ctx.rng().next(); });
  rt.run([&](PeContext& ctx) { b[ctx.pe()] = ctx.rng().next(); });
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

// ------------------------------------------------------------ collectives

TEST(Collectives, BarrierSeparatesPhases) {
  // Every PE writes its slot, barriers, then reads all slots: each must
  // see everyone's write — the fundamental barrier guarantee.
  Runtime rt(cfg(8));
  const SymPtr slots = rt.heap().alloc(8 * 8);
  rt.run([&](PeContext& ctx) {
    // All PEs publish to PE 0.
    ctx.set(0, SymPtr{slots.off + static_cast<std::uint64_t>(ctx.pe()) * 8},
            static_cast<std::uint64_t>(ctx.pe()) + 1);
    ctx.barrier();
    std::uint64_t sum = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      ctx.get(0, slots, static_cast<std::uint64_t>(i) * 8, &v, 8);
      sum += v;
    }
    EXPECT_EQ(sum, 36u);
  });
}

TEST(Collectives, RepeatedBarriersStayInLockstep) {
  Runtime rt(cfg(4));
  const SymPtr counter = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      if (ctx.pe() == 0) ctx.set(0, counter, static_cast<std::uint64_t>(round));
      ctx.barrier();
      std::uint64_t v = 0;
      ctx.get(0, counter, 0, &v, 8);
      ASSERT_EQ(v, static_cast<std::uint64_t>(round));
      ctx.barrier();
    }
  });
}

TEST(Collectives, SumReducesAcrossPes) {
  Runtime rt(cfg(7));
  rt.run([&](PeContext& ctx) {
    const std::uint64_t total =
        ctx.sum_u64(static_cast<std::uint64_t>(ctx.pe()) + 1);
    EXPECT_EQ(total, 28u);  // 1+2+...+7
  });
}

TEST(Collectives, WorkWithSinglePe) {
  Runtime rt(cfg(1));
  rt.run([&](PeContext& ctx) {
    ctx.barrier();
    EXPECT_EQ(ctx.sum_u64(5), 5u);
  });
}

TEST(Collectives, SequentialRunsDontLeakBarrierState) {
  Runtime rt(cfg(4));
  for (int run = 0; run < 3; ++run) {
    rt.run([&](PeContext& ctx) {
      for (int i = 0; i < 5; ++i) ctx.barrier();
      EXPECT_EQ(ctx.sum_u64(1), 4u);
    });
  }
  // Reductions after a run that reduced larger values return this run's.
  for (const std::uint64_t base : {1000u, 10u}) {
    rt.run([&](PeContext& ctx) {
      const auto v = base + static_cast<std::uint64_t>(ctx.pe());
      EXPECT_EQ(ctx.sum_u64(v), 4 * base + 6);
    });
  }
}

/// Runs a seeded mix of compute and remote AMOs `runs` times on one
/// Runtime; returns the runtime.sequencer_switches gauge after each run.
std::vector<std::uint64_t> sequencer_switches(int npes, int runs) {
  RuntimeConfig c = cfg(npes);
  c.seed = 7;
  c.metrics = true;
  Runtime rt(c);
  const SymPtr word = rt.heap().alloc(8, 8);
  std::vector<std::uint64_t> out;
  for (int r = 0; r < runs; ++r) {
    rt.run([&](PeContext& ctx) {
      for (int i = 0; i < 30; ++i) {
        ctx.compute(100 + ctx.rng().next() % 400);
        ctx.fetch_add(static_cast<int>(ctx.rng().next() %
                                       static_cast<std::uint64_t>(npes)),
                      word, 1);
      }
    });
    const auto snap = rt.metrics().snapshot();
    const auto* e = snap.find("runtime.sequencer_switches");
    EXPECT_NE(e, nullptr);
    out.push_back(e != nullptr ? e->total() : ~std::uint64_t{0});
  }
  return out;
}

TEST(Runtime, SequencerSwitchesGaugeRepeatsForASeed) {
  // Each run restarts the per-PE RNG streams, so both runs are the same
  // schedule: the gauge counts the last run only and repeats exactly.
  const std::vector<std::uint64_t> s = sequencer_switches(8, 2);
  EXPECT_GT(s[0], 0u);
  EXPECT_EQ(s[1], s[0]);
  EXPECT_EQ(sequencer_switches(1, 1)[0], 0u);  // one PE never hands off
}

}  // namespace
}  // namespace sws::pgas
