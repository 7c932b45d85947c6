// TaskPool end-to-end: correct task counts, both queue kinds, stats
// plausibility, reuse across runs, detector choices, victim policies.
#include <gtest/gtest.h>

#include <atomic>

#include "core/scheduler.hpp"
#include "workloads/uts.hpp"

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

/// Per-PE values of the pool's published metric `name` (queue.*).
std::vector<std::uint64_t> queue_metric(const TaskPool& pool, int npes,
                                        const std::string& name) {
  obs::MetricsRegistry reg(npes);
  pool.publish_metrics(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricsSnapshot::Entry* e = snap.find(name);
  EXPECT_NE(e, nullptr) << name;
  return e != nullptr ? e->per_pe
                      : std::vector<std::uint64_t>(
                            static_cast<std::size_t>(npes), 0);
}

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

// Owner-poll census (docs/performance.md, "Owner polls"). The work loop
// re-runs progress(), the inbox drain and the shared-half read only after
// a remote effect landed on the PE or the PE ran a shared-half op of its
// own. Nothing lands on a lone PE, so it polls at start-up, after each of
// its releases and acquire attempts, and once in its final search.
TEST_P(SchedulerBoth, LonePePollsOnlyAfterItsOwnSharedHalfOps) {
  pgas::Runtime rt(rcfg(1));
  TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, workloads::UtsParams{});
  TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) { uts.seed(w); });
  });
  const WorkerStats& s = pool.worker_stats(0);
  EXPECT_EQ(s.tasks_executed,
            workloads::uts_sequential_count(workloads::UtsParams{}).nodes);
  EXPECT_GT(s.owner_polls, 0u);
  EXPECT_LE(s.owner_polls, 2 + queue_metric(pool, 1, "queue.releases")[0] +
                               queue_metric(pool, 1, "queue.acquires")[0]);
  EXPECT_LT(100 * s.owner_polls, s.tasks_executed) << "polled per task";
}

// A release runs only when the last poll saw the shared half exhausted,
// so every one succeeds. A poll skipped after the PE's own release would
// leave that view stale and re-run the release against the allotment it
// just published, tracing a failed release span.
TEST_P(SchedulerBoth, EveryTracedReleaseSucceeds) {
  pgas::Runtime rt(rcfg(8));
  TaskRegistry reg;
  FanOut fan(reg, 4, 10'000);
  PoolConfig pc = pcfg(GetParam());
  pc.trace.enable = true;
  pc.trace.events = 1 << 16;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fan.fn, std::uint32_t{5}));
    });
  });
  std::uint64_t spans = 0;
  std::uint64_t releases = 0;
  for (const std::uint64_t n : queue_metric(pool, rt.npes(), "queue.releases"))
    releases += n;
  for (int pe = 0; pe < rt.npes(); ++pe) {
    for (const TraceEvent& e : pool.tracer().events(pe)) {
      if (e.kind != TraceKind::kReleaseSpan || e.phase != TracePhase::kEnd)
        continue;
      ++spans;
      EXPECT_EQ(e.a, 1u) << "failed release on PE " << pe << " at " << e.time;
    }
  }
  EXPECT_GT(releases, 0u);
  EXPECT_EQ(spans, releases);
}

// Crash mode polls on every pass: SDC's stall trackers and SWS's fencing
// in progress() are paced by time, not by landings. A crash planned past
// the end of the run arms crash mode without killing anyone; every task
// popped in a pass then follows a poll.
TEST_P(SchedulerBoth, CrashModePollsEveryPass) {
  std::uint64_t polls[2] = {};
  for (const bool crash_mode : {false, true}) {
    pgas::RuntimeConfig c = rcfg(8);
    if (crash_mode)
      for (int pe = 0; pe < c.npes; ++pe)
        c.net.faults.crashes.push_back({pe, net::Nanos{1} << 50});
    pgas::Runtime rt(c);
    TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, workloads::UtsParams{});
    TaskPool pool(rt, reg, pcfg(GetParam()));
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](Worker& w) { uts.seed(w); });
    });
    ASSERT_EQ(pool.report().total.tasks_executed,
              workloads::uts_sequential_count(workloads::UtsParams{}).nodes);
    for (int pe = 0; crash_mode && pe < c.npes; ++pe) {
      const WorkerStats& s = pool.worker_stats(pe);
      EXPECT_GE(s.owner_polls, s.tasks_executed) << "PE " << pe;
    }
    polls[crash_mode] = pool.report().total.owner_polls;
  }
  EXPECT_LT(polls[0], polls[1]) << "crash-free runs skip polls";
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
