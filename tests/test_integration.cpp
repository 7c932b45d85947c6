// Cross-module integration: the paper's headline properties verified
// end-to-end — per-steal communication counts under a full pool run,
// SWS-vs-SDC steal-time advantage, task conservation at scale, and the
// epochs/damping ablations.
#include <gtest/gtest.h>

#include "sws.hpp"

namespace sws {
namespace {

pgas::RuntimeConfig rcfg(int npes, std::uint64_t seed = 42) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 4 << 20;
  c.seed = seed;
  return c;
}

core::PoolConfig pcfg(core::QueueKind kind) {
  core::PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 8192;
  c.queue.slot_bytes = 64;
  return c;
}

struct RunOutcome {
  core::PoolRunReport report;
  net::FabricStats fabric;
  net::Nanos duration = 0;
};

RunOutcome run_uts(core::QueueKind kind, int npes,
                   const workloads::UtsParams& p) {
  pgas::Runtime rt(rcfg(npes));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, pcfg(kind));
  rt.fabric().reset_stats();
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  return {pool.report(), rt.fabric().total_stats(), rt.last_run_duration()};
}

workloads::UtsParams uts_params() {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 10;
  p.node_compute_ns = 150;
  return p;
}

TEST(Integration, BothQueuesVisitTheSameTree) {
  const auto truth = workloads::uts_sequential_count(uts_params());
  const RunOutcome sdc = run_uts(core::QueueKind::kSdc, 8, uts_params());
  const RunOutcome sws = run_uts(core::QueueKind::kSws, 8, uts_params());
  EXPECT_EQ(sdc.report.total.tasks_executed, truth.nodes);
  EXPECT_EQ(sws.report.total.tasks_executed, truth.nodes);
}

TEST(Integration, SwsStealsUseHalfTheCommunication) {
  // The paper's core claim, measured over a whole benchmark run: average
  // remote blocking ops per successful steal ≈ 5 (SDC) vs 2 (SWS).
  const RunOutcome sdc = run_uts(core::QueueKind::kSdc, 8, uts_params());
  const RunOutcome sws = run_uts(core::QueueKind::kSws, 8, uts_params());
  ASSERT_GT(sdc.report.total.steals_ok, 10u);
  ASSERT_GT(sws.report.total.steals_ok, 10u);

  // Isolate steal traffic is impossible from totals alone (collectives and
  // termination also communicate), so compare the per-steal *time*, which
  // the pool attributes precisely.
  const double sdc_per_steal =
      static_cast<double>(sdc.report.total.steal_time_ns) /
      static_cast<double>(sdc.report.total.steals_ok);
  const double sws_per_steal =
      static_cast<double>(sws.report.total.steal_time_ns) /
      static_cast<double>(sws.report.total.steals_ok);
  EXPECT_LT(sws_per_steal, 0.75 * sdc_per_steal)
      << "SWS steals must be substantially cheaper (paper: ~2x)";
}

TEST(Integration, SwsSearchIsCheaperPerAttempt) {
  // Failed discovery: one 64-bit AMO (SWS) vs lock + metadata fetch (SDC).
  const RunOutcome sdc = run_uts(core::QueueKind::kSdc, 8, uts_params());
  const RunOutcome sws = run_uts(core::QueueKind::kSws, 8, uts_params());
  const auto failed = [](const RunOutcome& r) {
    return static_cast<double>(r.report.total.steal_attempts -
                               r.report.total.steals_ok);
  };
  if (failed(sdc) > 20 && failed(sws) > 20) {
    const double sdc_cost =
        static_cast<double>(sdc.report.total.search_time_ns) / failed(sdc);
    const double sws_cost =
        static_cast<double>(sws.report.total.search_time_ns) / failed(sws);
    EXPECT_LT(sws_cost, sdc_cost);
  }
}

TEST(Integration, TaskConservationAtScale) {
  // 32 PEs, a 98,109-node tree: every node visited exactly once, on both
  // queues, with heavy concurrent stealing.
  workloads::UtsParams p;
  p.b0 = 6;
  p.gen_mx = 9;
  p.root_seed = 3;
  p.node_compute_ns = 100;
  const auto truth = workloads::uts_sequential_count(p);
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    const RunOutcome r = run_uts(kind, 32, p);
    EXPECT_EQ(r.report.total.tasks_executed, truth.nodes);
    EXPECT_GT(r.report.total.steals_ok, 30u);
  }
}

TEST(Integration, VirtualRuntimeAccountsForAllCompute) {
  // Ideal lower bound: total charged compute / P ≤ measured runtime.
  workloads::BpcParams bp;
  bp.consumers_per_producer = 16;
  bp.depth = 8;
  bp.consumer_ns = 100'000;
  bp.producer_ns = 10'000;
  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  workloads::BpcBenchmark bpc(reg, bp);
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });
  const core::PoolRunReport r = pool.report();
  EXPECT_GE(r.total.run_time_ns, bp.total_compute_ns() / 4);
  EXPECT_EQ(r.total.compute_time_ns, bp.total_compute_ns());
}

TEST(Integration, EpochsAblationBothComplete) {
  // §4.2: epochs off forces acquire to wait for in-flight steals; both
  // configurations must still be correct.
  const auto truth = workloads::uts_sequential_count(uts_params());
  for (const bool epochs : {true, false}) {
    pgas::Runtime rt(rcfg(8));
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, uts_params());
    core::PoolConfig pc = pcfg(core::QueueKind::kSws);
    pc.sws.epochs = epochs;
    core::TaskPool pool(rt, reg, pc);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes)
        << "epochs=" << epochs;
  }
}

TEST(Integration, DampingAblationBothComplete) {
  const auto truth = workloads::uts_sequential_count(uts_params());
  for (const bool damping : {true, false}) {
    pgas::Runtime rt(rcfg(8));
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, uts_params());
    core::PoolConfig pc = pcfg(core::QueueKind::kSws);
    pc.sws.damping = damping;
    core::TaskPool pool(rt, reg, pc);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes)
        << "damping=" << damping;
  }
}

}  // namespace
}  // namespace sws
