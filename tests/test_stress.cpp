// Stress and failure-injection: hostile fabric parameters (zero latency,
// huge latency, long-delayed completion notifications), replay
// determinism down to the fabric counters, and a large-PE smoke run.
#include <gtest/gtest.h>

#include "sws.hpp"

namespace sws {
namespace {

core::PoolConfig pcfg(core::QueueKind kind) {
  core::PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 8192;
  c.queue.slot_bytes = 48;
  return c;
}

workloads::UtsParams small_tree() {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 150;
  return p;
}

std::uint64_t run_uts(const pgas::RuntimeConfig& rcfg,
                      const core::PoolConfig& pc,
                      const workloads::UtsParams& p) {
  pgas::Runtime rt(rcfg);
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  return pool.report().total.tasks_executed;
}

class HostileFabric : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(HostileFabric, ZeroLatencyFabric) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 4;
  rcfg.heap_bytes = 4 << 20;
  auto& link = rcfg.net.link(1);
  link.amo_latency = 0;
  link.get_latency = 0;
  link.put_latency = 0;
  link.nbi_delay = 0;
  link.target_occupancy = 0;
  rcfg.net.local_overhead = 0;
  rcfg.net.nbi_issue_overhead = 0;
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pcfg(GetParam()), small_tree()), truth.nodes);
}

TEST_P(HostileFabric, ExtremeLatencyFabric) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 4;
  rcfg.heap_bytes = 4 << 20;
  rcfg.net = rcfg.net.scaled(50.0);  // ~75 µs AMOs
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pcfg(GetParam()), small_tree()), truth.nodes);
}

TEST_P(HostileFabric, VeryLateCompletionNotifications) {
  // Completion notifications delayed ~0.5 ms — hundreds of steals can be
  // claimed-but-unfinished at once. Exercises epoch waiting, reclaim
  // prefixes, and the owner's ability to keep operating meanwhile.
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 8;
  rcfg.heap_bytes = 4 << 20;
  rcfg.net.link(1).nbi_delay = 500'000;
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pcfg(GetParam()), small_tree()), truth.nodes);
}

TEST_P(HostileFabric, LateCompletionsWithEpochsOff) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 8;
  rcfg.heap_bytes = 4 << 20;
  rcfg.net.link(1).nbi_delay = 200'000;
  core::PoolConfig pc = pcfg(GetParam());
  pc.sws.epochs = false;  // ignored by SDC
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pc, small_tree()), truth.nodes);
}

TEST_P(HostileFabric, TwoLevelFabricWithTieredVictims) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 16;
  rcfg.heap_bytes = 4 << 20;
  rcfg.net = net::NetworkParams::tiered(net::TopologySpec::parse("*x4"));
  core::PoolConfig pc = pcfg(GetParam());
  pc.victim.policy = core::VictimPolicy::kTiered;
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pc, small_tree()), truth.nodes);
}

TEST_P(HostileFabric, ThreeTierFabricWithDistanceWeightedVictims) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 16;
  rcfg.heap_bytes = 4 << 20;
  rcfg.net = net::NetworkParams::tiered(net::TopologySpec::parse("2x2x4"));
  core::PoolConfig pc = pcfg(GetParam());
  pc.victim.policy = core::VictimPolicy::kDistanceWeighted;
  const auto truth = workloads::uts_sequential_count(small_tree());
  EXPECT_EQ(run_uts(rcfg, pc, small_tree()), truth.nodes);
}

INSTANTIATE_TEST_SUITE_P(BothQueues, HostileFabric,
                         ::testing::Values(core::QueueKind::kSdc,
                                           core::QueueKind::kSws),
                         [](const auto& info) {
                           return info.param == core::QueueKind::kSdc ? "SDC"
                                                                      : "SWS";
                         });

TEST(Replay, IdenticalSeedsGiveIdenticalFabricTraffic) {
  // Determinism stronger than equal task counts: the *entire* fabric
  // op census must match between two runs with the same seed.
  net::FabricStats census[2];
  for (int trial = 0; trial < 2; ++trial) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = 8;
    rcfg.seed = 1234;
    rcfg.heap_bytes = 4 << 20;
    pgas::Runtime rt(rcfg);
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, small_tree());
    core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    census[trial] = rt.fabric().total_stats();
  }
  for (std::size_t i = 0; i < net::kNumOpKinds; ++i)
    EXPECT_EQ(census[0].ops[i], census[1].ops[i])
        << net::op_kind_name(static_cast<net::OpKind>(i));
  EXPECT_EQ(census[0].bytes_put, census[1].bytes_put);
  EXPECT_EQ(census[0].bytes_got, census[1].bytes_got);
  EXPECT_EQ(census[0].blocking_ns, census[1].blocking_ns);
}

TEST(Scale, OneHundredTwentyEightPes) {
  // Sweep headroom: the full PE count the benches may use, small tree.
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 128;
  rcfg.heap_bytes = 1 << 20;
  core::PoolConfig pc;
  pc.queue.capacity = 2048;
  pc.queue.slot_bytes = 48;
  workloads::UtsParams p = small_tree();
  p.gen_mx = 11;
  const auto truth = workloads::uts_sequential_count(p);
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    pc.kind = kind;
    EXPECT_EQ(run_uts(rcfg, pc, p), truth.nodes)
        << (kind == core::QueueKind::kSdc ? "SDC" : "SWS");
  }
}

TEST(Scale, ManySmallRunsDontLeakState) {
  // 10 back-to-back runs on one Runtime+pool: heap allocations, epochs,
  // inboxes, collectives and detectors must all reset cleanly.
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 8;
  rcfg.heap_bytes = 4 << 20;
  pgas::Runtime rt(rcfg);
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, small_tree());
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
  const auto truth = workloads::uts_sequential_count(small_tree());
  for (int run = 0; run < 10; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    ASSERT_EQ(pool.report().total.tasks_executed, truth.nodes)
        << "run " << run;
  }
}

}  // namespace
}  // namespace sws
