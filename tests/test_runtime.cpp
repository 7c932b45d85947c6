// Runtime SPMD execution, PeContext sugar, and the collectives built on
// one-sided ops.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
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

TEST(Runtime, PesIssueRemoteOpsInVirtualTimeOrder) {
  // Virtual-time PEs share one host thread as fibers: after unequal
  // computes they issue their first remote op in virtual-time order, each
  // with its own context. The computes themselves may finish out of that
  // order (PeContext::compute runs ahead of the time floor), but a remote
  // op rejoins the (vtime, pe) order before it issues.
  Runtime rt(cfg(4));
  const SymPtr word = rt.heap().alloc(8);
  std::vector<int> issued;
  rt.run([&](PeContext& ctx) {
    // Shorter compute for higher ids: they issue in reverse order.
    const auto dt = static_cast<net::Nanos>(100 + 10 * (3 - ctx.pe()));
    ctx.compute(dt);
    EXPECT_EQ(ctx.now(), dt);
    // Each PE owns the word on its successor: put, then read it back.
    const int next = (ctx.pe() + 1) % ctx.npes();
    const std::uint64_t mine = 1000 + static_cast<std::uint64_t>(ctx.pe());
    ctx.put(next, word, 0, &mine, sizeof(mine));
    issued.push_back(ctx.pe());
    std::uint64_t back = 0;
    ctx.get(next, word, 0, &back, sizeof(back));
    EXPECT_EQ(back, mine);
  });
  EXPECT_EQ(issued, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Runtime, ExceptionInOnePePropagates) {
  Runtime rt(cfg(4));
  EXPECT_THROW(rt.run([&](PeContext& ctx) {
    if (ctx.pe() == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
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
/// Runtime; returns the metrics snapshot taken after each run.
std::vector<obs::MetricsSnapshot> run_snapshots(int npes, int runs) {
  RuntimeConfig c = cfg(npes);
  c.seed = 7;
  c.metrics = true;
  Runtime rt(c);
  const SymPtr word = rt.heap().alloc(8, 8);
  std::vector<obs::MetricsSnapshot> out;
  for (int r = 0; r < runs; ++r) {
    rt.run([&](PeContext& ctx) {
      Xoshiro256 rng(c.seed, static_cast<std::uint64_t>(ctx.pe()));
      for (int i = 0; i < 30; ++i) {
        ctx.compute(100 + rng.next() % 400);
        ctx.fetch_add(static_cast<int>(rng.next() %
                                       static_cast<std::uint64_t>(npes)),
                      word, 1);
      }
    });
    out.push_back(rt.metrics().snapshot());
  }
  return out;
}

std::uint64_t total_of(const obs::MetricsSnapshot& snap,
                       const std::string& name) {
  const auto* e = snap.find(name);
  EXPECT_NE(e, nullptr) << name;
  return e != nullptr ? e->total() : ~std::uint64_t{0};
}

std::vector<std::string> names_of(const obs::MetricsSnapshot& snap) {
  std::vector<std::string> names;
  for (const auto& e : snap.entries) names.push_back(e.name);
  return names;
}

TEST(Runtime, SequencerSwitchesGaugeRepeatsForASeed) {
  // Each run restarts its per-PE random streams, so both runs are the same
  // schedule: the gauge counts the last run only and repeats exactly.
  const std::vector<obs::MetricsSnapshot> s = run_snapshots(8, 2);
  const std::uint64_t first = total_of(s[0], "runtime.sequencer_switches");
  EXPECT_GT(first, 0u);
  EXPECT_EQ(total_of(s[1], "runtime.sequencer_switches"), first);
  // Re-publishing overwrites in place: the run count accumulates, and
  // the second run's names come out in the first run's order.
  EXPECT_EQ(total_of(s[1], "runtime.runs"), 2u);
  EXPECT_EQ(names_of(s[1]), names_of(s[0]));
  // One PE never hands off.
  EXPECT_EQ(total_of(run_snapshots(1, 1)[0], "runtime.sequencer_switches"),
            0u);
}

}  // namespace
}  // namespace sws::pgas
