// TaskPool end-to-end: correct task counts, both queue kinds, stats
// plausibility, reuse across runs, detector choices, victim policies.
#include <gtest/gtest.h>

#include <atomic>

#include "core/scheduler.hpp"

namespace sws::core {
namespace {

pgas::RuntimeConfig rcfg(int npes, std::uint64_t seed = 42) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 2 << 20;
  c.seed = seed;
  return c;
}

PoolConfig pcfg(QueueKind kind) {
  PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 4096;
  c.queue.slot_bytes = 32;
  return c;
}

/// Register a fan-out task: spawns `fanout` children until depth 0.
struct FanOut {
  TaskFnId fn = 0;
  std::uint32_t fanout;

  FanOut(TaskRegistry& reg, std::uint32_t fanout_, net::Nanos task_ns)
      : fanout(fanout_) {
    fn = reg.register_fn("fan", [this, task_ns](Worker& w,
                                                std::span<const std::byte> b) {
      std::uint32_t depth;
      std::memcpy(&depth, b.data(), 4);
      w.compute(task_ns);
      if (depth == 0) return;
      for (std::uint32_t i = 0; i < fanout; ++i)
        w.spawn(Task::of(fn, depth - 1));
    });
  }

  std::uint64_t expected(std::uint32_t depth) const {
    std::uint64_t total = 0, layer = 1;
    for (std::uint32_t d = 0; d <= depth; ++d) {
      total += layer;
      layer *= fanout;
    }
    return total;
  }
};

class SchedulerBoth : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SchedulerBoth, ExecutesEveryTaskExactlyOnce) {
  pgas::Runtime rt(rcfg(8));
  TaskRegistry reg;
  FanOut fan(reg, 4, 10'000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{5}));
    });
  });
  const PoolRunReport r = pool.report();
  EXPECT_EQ(r.total.tasks_executed, fan.expected(5));
  EXPECT_EQ(r.total.tasks_spawned, fan.expected(5));
  EXPECT_GT(r.total.steals_ok, 0u) << "8 PEs must have stolen something";
}

TEST_P(SchedulerBoth, SinglePeRunsWithoutStealing) {
  pgas::Runtime rt(rcfg(1));
  TaskRegistry reg;
  FanOut fan(reg, 3, 1000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      w.spawn(Task::of(fan.fn, std::uint32_t{4}));
    });
  });
  const PoolRunReport r = pool.report();
  EXPECT_EQ(r.total.tasks_executed, fan.expected(4));
  EXPECT_EQ(r.total.steals_ok, 0u);
  EXPECT_EQ(r.total.steal_attempts, 0u);
}

TEST_P(SchedulerBoth, EmptySeedTerminates) {
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [](Worker&) {});
  });
  EXPECT_EQ(pool.report().total.tasks_executed, 0u);
}

TEST_P(SchedulerBoth, SeedsFromEveryPe) {
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  FanOut fan(reg, 2, 2000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      w.spawn(Task::of(fan.fn, std::uint32_t{3}));  // every PE seeds one
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, 4 * fan.expected(3));
}

TEST_P(SchedulerBoth, PoolIsReusableAcrossRuns) {
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  FanOut fan(reg, 3, 1000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  for (int run = 0; run < 3; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](Worker& w) {
        if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{4}));
      });
    });
    EXPECT_EQ(pool.report().total.tasks_executed, fan.expected(4))
        << "run " << run;
  }
}

TEST_P(SchedulerBoth, DeterministicUnderVirtualTime) {
  TaskRegistry reg1, reg2;
  FanOut fan1(reg1, 4, 5000), fan2(reg2, 4, 5000);
  std::uint64_t steals[2], runtimes[2];
  for (int trial = 0; trial < 2; ++trial) {
    pgas::Runtime rt(rcfg(6, /*seed=*/7));
    TaskRegistry& reg = trial ? reg2 : reg1;
    FanOut& fan = trial ? fan2 : fan1;
    TaskPool pool(rt, reg, pcfg(GetParam()));
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](Worker& w) {
        if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{5}));
      });
    });
    steals[trial] = pool.report().total.steals_ok;
    runtimes[trial] = pool.report().total.run_time_ns;
  }
  EXPECT_EQ(steals[0], steals[1]) << "virtual-time runs must be identical";
  EXPECT_EQ(runtimes[0], runtimes[1]);
}

TEST_P(SchedulerBoth, RoundRobinVictimsAlsoWork) {
  pgas::Runtime rt(rcfg(4));
  TaskRegistry reg;
  FanOut fan(reg, 4, 2000);
  PoolConfig pc = pcfg(GetParam());
  pc.victim.policy = VictimPolicy::kRoundRobin;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{4}));
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, fan.expected(4));
}

TEST_P(SchedulerBoth, StatsAreInternallyConsistent) {
  pgas::Runtime rt(rcfg(8));
  TaskRegistry reg;
  FanOut fan(reg, 4, 8000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{5}));
    });
  });
  const PoolRunReport r = pool.report();
  EXPECT_LE(r.total.steals_ok, r.total.steal_attempts);
  EXPECT_LE(r.total.tasks_stolen, r.total.tasks_executed);
  EXPECT_GT(r.total.run_time_ns, 0u);
  // Per-PE executed totals sum to the whole.
  EXPECT_EQ(static_cast<std::uint64_t>(r.per_pe_executed.sum()),
            r.total.tasks_executed);
  // Every PE's run time is at most the pool run time.
  for (int pe = 0; pe < 8; ++pe)
    EXPECT_LE(pool.worker_stats(pe).run_time_ns, r.total.run_time_ns);
}

TEST_P(SchedulerBoth, TinyQueueFallsBackToInlineExecution) {
  // Capacity far below the spawn burst: push_local fails and the worker
  // executes inline; no task may be lost.
  pgas::Runtime rt(rcfg(2));
  TaskRegistry reg;
  FanOut fan(reg, 8, 500);
  PoolConfig pc = pcfg(GetParam());
  pc.queue.capacity = 16;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{3}));
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, fan.expected(3));
}

TEST_P(SchedulerBoth, RealTimeModeCompletes) {
  pgas::RuntimeConfig rc = rcfg(4);
  rc.mode = pgas::TimeMode::kReal;
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  FanOut fan(reg, 3, 5000);
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{4}));
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, fan.expected(4));
}

INSTANTIATE_TEST_SUITE_P(BothQueues, SchedulerBoth,
                         ::testing::Values(QueueKind::kSdc, QueueKind::kSws),
                         [](const auto& info) {
                           return info.param == QueueKind::kSdc ? "SDC" : "SWS";
                         });

TEST(Scheduler, SwsAndSdcExecuteIdenticalTaskCounts) {
  std::uint64_t counts[2];
  for (int k = 0; k < 2; ++k) {
    pgas::Runtime rt(rcfg(6));
    TaskRegistry reg;
    FanOut fan(reg, 4, 5000);
    TaskPool pool(rt, reg,
                  pcfg(k == 0 ? QueueKind::kSdc : QueueKind::kSws));
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](Worker& w) {
        if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{5}));
      });
    });
    counts[k] = pool.report().total.tasks_executed;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

}  // namespace
}  // namespace sws::core
