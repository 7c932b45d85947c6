// "Everything on" integration: the full feature surface engaged at once —
// two-level fabric, NIC occupancy, distance-weighted victims, remote
// spawning, tracing, completion epochs, damping — on both queue protocols.
// If feature interactions break anything, this is where it shows.
#include <gtest/gtest.h>

#include "sws.hpp"

namespace sws {
namespace {

class EverythingOn : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EverythingOn, FullFeatureRunIsCorrect) {
  const core::QueueKind kind = GetParam();

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.geo_shape = workloads::UtsParams::GeoShape::kCyclic;
  p.node_compute_ns = 5000;
  const auto truth = workloads::uts_sequential_count(p);
  ASSERT_GT(truth.nodes, 50u);

  pgas::RuntimeConfig rcfg;
  rcfg.npes = 12;
  rcfg.heap_bytes = 4 << 20;
  // Two-level fabric: nodes of 4 PEs, so 3 nodes.
  rcfg.net = net::NetworkParams::tiered(net::TopologySpec::parse("*x4"));
  for (net::Tier t = 1; t <= 2; ++t) {
    rcfg.net.link(t).target_occupancy = 250;
    rcfg.net.link(t).nbi_delay = 20'000;  // lazy completions stress the epochs
  }
  pgas::Runtime rt(rcfg);

  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  // A side-channel task exercising remote spawning during the search.
  core::TaskFnId hop_fn = 0;
  hop_fn = reg.register_fn(
      "hop", [&](core::Worker& w, std::span<const std::byte> b) {
        std::uint32_t hops;
        std::memcpy(&hops, b.data(), 4);
        w.compute(1000);
        if (hops > 0)
          w.spawn_on((w.pe() + 5) % w.npes(), core::Task::of(hop_fn, hops - 1));
      });

  core::PoolConfig pc;
  pc.kind = kind;
  pc.queue.capacity = 8192;
  pc.queue.slot_bytes = 48;
  pc.victim.policy = core::VictimPolicy::kDistanceWeighted;
  pc.trace.enable = true;
  pc.trace.events = 1 << 15;
  pc.sws.damping = true;
  core::TaskPool pool(rt, reg, pc);

  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      uts.seed(w);
      if (w.pe() == 1) w.spawn(core::Task::of(hop_fn, std::uint32_t{24}));
    });
  });

  const core::PoolRunReport r = pool.report();
  EXPECT_EQ(r.total.tasks_executed, truth.nodes + 25)
      << "UTS nodes + 25 hop tasks, each exactly once";
  EXPECT_GT(r.total.steals_ok, 0u);
  // Per-tier steal accounting covers every successful steal.
  EXPECT_EQ(r.total.steals_ok_by_tier[0] + r.total.steals_ok_by_tier[1],
            r.total.steals_ok);
  // The trace agrees with the stats even with every feature engaged: the
  // rings must not wrap, so every event recorded is retained and counted.
  EXPECT_FALSE(pool.tracer().truncated());
  EXPECT_EQ(pool.tracer().count(core::TraceKind::kTaskExec),
            r.total.tasks_executed);
  EXPECT_EQ(pool.tracer().count(core::TraceKind::kTerminated), 12u);
}

std::string name(const ::testing::TestParamInfo<core::QueueKind>& info) {
  return info.param == core::QueueKind::kSdc ? "SDC_virtual" : "SWS_virtual";
}

INSTANTIATE_TEST_SUITE_P(Matrix, EverythingOn,
                         ::testing::Values(core::QueueKind::kSws,
                                           core::QueueKind::kSdc),
                         name);

}  // namespace
}  // namespace sws
