// Chaos suite for the fault-injection subsystem: injector unit semantics,
// fabric-level fault effects, and full-pool runs under a fault-plan
// matrix (drops + duplicates, latency spikes, slow windows) on both queue
// protocols and both time backends. The invariant everywhere: every task
// executes exactly once and termination never misfires, no matter what
// the fabric does to individual messages.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "net/topology.hpp"
#include "obs/trace_analysis.hpp"
#include "sws.hpp"

namespace sws {
namespace {

using net::FaultInjector;
using net::FaultPlan;
using net::Nanos;
using net::OpKind;
using net::Topology;
using net::TopologySpec;

// ---------------------------------------------------------------- plans

FaultPlan drop_dup_plan() {
  FaultPlan f;
  f.drop_rate = 0.10;
  f.dup_rate = 0.10;
  f.retransmit_ns = 20'000;
  f.dup_delay_ns = 5'000;
  return f;
}

FaultPlan slow_pe_plan(Nanos until_ns) {
  FaultPlan f;
  f.slow_windows.push_back({/*pe=*/1, /*from_ns=*/0, until_ns,
                            /*factor=*/8.0});
  return f;
}

FaultPlan combined_plan() {
  FaultPlan f = drop_dup_plan();
  f.spike_rate = 0.10;
  f.spike_factor = 10.0;
  f.jitter = 0.5;
  f.slow_windows.push_back({1, 0, 2'000'000, 4.0});
  return f;
}

// ------------------------------------------------------- injector units

TEST(FaultPlanTest, DefaultPlanIsInert) {
  const FaultPlan f;
  EXPECT_FALSE(f.enabled());
  EXPECT_FALSE(f.spikes_enabled());
  EXPECT_FALSE(f.delivery_faults_enabled());
  EXPECT_FALSE(f.duplicates_possible());
}

TEST(FaultPlanTest, EachKnobEnablesThePlan) {
  FaultPlan f;
  f.spike_rate = 0.1;
  EXPECT_TRUE(f.enabled());
  f = FaultPlan{};
  f.drop_rate = 0.1;
  EXPECT_TRUE(f.enabled());
  f = FaultPlan{};
  f.dup_rate = 0.1;
  EXPECT_TRUE(f.enabled());
  EXPECT_TRUE(f.duplicates_possible());
  f = FaultPlan{};
  f.jitter = 0.1;
  EXPECT_TRUE(f.enabled());
  f = FaultPlan{};
  f.slow_windows.push_back({0, 0, 100, 2.0});
  EXPECT_TRUE(f.enabled());
}

TEST(FaultInjectorTest, CertainSpikeChargesFactorMinusOne) {
  FaultPlan f;
  f.spike_rate = 1.0;
  f.spike_factor = 10.0;
  FaultInjector inj(f, 2);
  const Nanos base = 1000;
  EXPECT_EQ(inj.charge_penalty(0, 1, OpKind::kGet, 0, base), 9 * base);
  EXPECT_EQ(inj.stats(0).spikes, 1u);
  EXPECT_EQ(inj.stats(0).spike_extra_ns, 9000u);
}

TEST(FaultInjectorTest, SpikeMaskAndTargetFilter) {
  FaultPlan f;
  f.spike_rate = 1.0;
  f.spike_op_mask = net::op_bit(OpKind::kGet);
  f.spike_target = 1;
  FaultInjector inj(f, 3);
  EXPECT_GT(inj.charge_penalty(0, 1, OpKind::kGet, 0, 1000), 0);
  EXPECT_EQ(inj.charge_penalty(0, 1, OpKind::kPut, 0, 1000), 0);
  EXPECT_EQ(inj.charge_penalty(0, 2, OpKind::kGet, 0, 1000), 0);
}

TEST(FaultInjectorTest, SlowWindowAppliesOnlyInsideItsInterval) {
  FaultInjector inj(slow_pe_plan(/*until_ns=*/10'000), 2);
  // Wrong PE: no penalty.
  EXPECT_EQ(inj.charge_penalty(0, 1, OpKind::kGet, 500, 1000), 0);
  // Right PE, inside the window: (factor - 1) * base.
  EXPECT_EQ(inj.charge_penalty(1, 0, OpKind::kGet, 500, 1000), 7000);
  // Right PE, after the window closed.
  EXPECT_EQ(inj.charge_penalty(1, 0, OpKind::kGet, 10'000, 1000), 0);
  EXPECT_EQ(inj.stats(1).slow_hits, 1u);
}

TEST(FaultInjectorTest, PartitionPenalizesOnlyCrossingOps) {
  // Node 1 of a 2x2 machine ({2, 3}) is cut off for [0, 100us).
  const Topology topo(TopologySpec::two_level(2), 4);
  const FaultPlan plan = net::partitioned_node_plan(topo, 1, 0, 100'000);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_TRUE(plan.enabled());
  FaultInjector inj(plan, 4);
  const double factor = plan.partitions[0].charge_factor;
  // Crossing the cut, both directions: (charge_factor - 1) * base.
  EXPECT_EQ(inj.charge_penalty(0, 2, OpKind::kGet, 50, 1000),
            static_cast<Nanos>((factor - 1.0) * 1000));
  EXPECT_EQ(inj.charge_penalty(3, 1, OpKind::kGet, 50, 1000),
            static_cast<Nanos>((factor - 1.0) * 1000));
  // Entirely inside / entirely outside the group: untouched.
  EXPECT_EQ(inj.charge_penalty(2, 3, OpKind::kGet, 50, 1000), 0);
  EXPECT_EQ(inj.charge_penalty(0, 1, OpKind::kGet, 50, 1000), 0);
  // After the window closes: untouched.
  EXPECT_EQ(inj.charge_penalty(0, 2, OpKind::kGet, 100'000, 1000), 0);
  // Crossing deliveries land late, deterministically (no random draw).
  const auto d = inj.delivery_verdict(0, 2, OpKind::kNbiAmoAdd, 50, 1'800);
  EXPECT_EQ(d.extra_delay, plan.partitions[0].delivery_extra_ns);
  const auto inside = inj.delivery_verdict(2, 3, OpKind::kNbiAmoAdd, 50, 1'800);
  EXPECT_EQ(inside.extra_delay, 0);
  EXPECT_GE(inj.total_stats().partition_hits, 3u);
}

TEST(FaultInjectorTest, SlowGroupCoversEveryMemberOfTheGroup) {
  // slow_rack on the outermost tier of "2x4": rack 1 = PEs {4..7}.
  const Topology topo(TopologySpec::parse("2x4"), 8);
  const FaultPlan plan = net::slow_rack_plan(topo, 1, 0, 10'000, 8.0);
  EXPECT_EQ(plan.slow_windows.size(), 4u);
  FaultInjector inj(plan, 8);
  for (int pe = 4; pe < 8; ++pe)
    EXPECT_EQ(inj.charge_penalty(pe, 0, OpKind::kGet, 500, 1000), 7000)
        << "pe " << pe;
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_EQ(inj.charge_penalty(pe, 5, OpKind::kGet, 500, 1000), 0)
        << "pe " << pe;
}

TEST(FaultInjectorTest, CertainDropPaysRetransmitDelays) {
  FaultPlan f;
  f.drop_rate = 1.0;  // every transmission lost: pays the full bound
  f.retransmit_ns = 1000;
  f.max_retransmits = 5;
  FaultInjector inj(f, 1);
  const auto d = inj.delivery_verdict(0, 0, OpKind::kNbiAmoAdd, 100, 1'800);
  EXPECT_EQ(d.extra_delay, 5 * 1000);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(inj.stats(0).drops, 5u);
}

TEST(FaultInjectorTest, CertainDupFlagsADuplicate) {
  FaultPlan f;
  f.dup_rate = 1.0;
  f.dup_delay_ns = 777;
  FaultInjector inj(f, 1);
  const auto d = inj.delivery_verdict(0, 0, OpKind::kNbiAmoSet, 100, 1'800);
  EXPECT_TRUE(d.duplicate);
  EXPECT_EQ(d.dup_extra_delay, 777);
  EXPECT_EQ(inj.stats(0).dups, 1u);
}

TEST(FaultInjectorTest, DeliveryMaskExemptsOpKinds) {
  FaultPlan f;
  f.drop_rate = 1.0;
  f.dup_rate = 1.0;
  f.delivery_op_mask = net::op_bit(OpKind::kNbiPut);
  FaultInjector inj(f, 1);
  const auto d = inj.delivery_verdict(0, 0, OpKind::kNbiAmoAdd, 100, 1'800);
  EXPECT_EQ(d.extra_delay, 0);
  EXPECT_FALSE(d.duplicate);
}

TEST(FaultInjectorTest, NewRunReproducesTheDecisionSequence) {
  FaultInjector inj(combined_plan(), 4);
  std::vector<Nanos> first;
  for (int i = 0; i < 64; ++i) {
    const auto d = inj.delivery_verdict(2, 0, OpKind::kNbiAmoAdd, 500, 1'800);
    first.push_back(d.extra_delay + (d.duplicate ? 1 : 0));
  }
  inj.new_run();
  for (int i = 0; i < 64; ++i) {
    const auto d = inj.delivery_verdict(2, 0, OpKind::kNbiAmoAdd, 500, 1'800);
    EXPECT_EQ(first[static_cast<std::size_t>(i)],
              d.extra_delay + (d.duplicate ? 1 : 0))
        << "draw " << i;
  }
}

TEST(FaultInjectorTest, PerPeStreamsAreIndependent) {
  // Interleaving PE 1's draws must not perturb PE 0's sequence.
  FaultInjector a(drop_dup_plan(), 2);
  FaultInjector b(drop_dup_plan(), 2);
  for (int i = 0; i < 32; ++i) {
    const auto da = a.delivery_verdict(0, 1, OpKind::kNbiAmoAdd, 500, 1'800);
    (void)b.delivery_verdict(1, 0, OpKind::kNbiAmoAdd, 500, 1'800);
    const auto db = b.delivery_verdict(0, 1, OpKind::kNbiAmoAdd, 500, 1'800);
    EXPECT_EQ(da.extra_delay, db.extra_delay) << "draw " << i;
    EXPECT_EQ(da.duplicate, db.duplicate) << "draw " << i;
  }
}

TEST(FaultInjectorTest, TotalStatsMergesAllPes) {
  FaultPlan f;
  f.dup_rate = 1.0;
  FaultInjector inj(f, 3);
  (void)inj.delivery_verdict(0, 1, OpKind::kNbiAmoAdd, 100, 1'800);
  (void)inj.delivery_verdict(2, 1, OpKind::kNbiAmoAdd, 100, 1'800);
  EXPECT_EQ(inj.total_stats().dups, 2u);
}

// ------------------------------------------------------- fabric effects

class FaultFabricTest : public ::testing::Test {
 protected:
  static constexpr int kPes = 2;
  static constexpr std::size_t kArena = 4096;

  void build(const FaultPlan& plan) {
    net::NetworkParams params;
    params.faults = plan;
    time_ = std::make_unique<net::VirtualTimeModel>(kPes);
    fabric_ = std::make_unique<net::Fabric>(*time_, net::NetworkModel(params),
                                            kPes);
    arenas_.clear();
    for (int pe = 0; pe < kPes; ++pe) {
      arenas_.emplace_back(kArena, std::byte{0});
      fabric_->register_arena(pe, arenas_.back().data(), kArena);
    }
  }

  void run(const std::function<void(int)>& body) {
    time_->run_pes(kPes, body);
  }

  std::uint64_t word_at(int pe, std::uint64_t off) {
    std::uint64_t v;
    std::memcpy(&v, arenas_[static_cast<std::size_t>(pe)].data() + off, 8);
    return v;
  }

  std::unique_ptr<net::VirtualTimeModel> time_;
  std::vector<std::vector<std::byte>> arenas_;
  std::unique_ptr<net::Fabric> fabric_;
};

TEST_F(FaultFabricTest, DisabledPlanInstantiatesNoInjector) {
  build(FaultPlan{});
  EXPECT_FALSE(fabric_->faults_enabled());
  EXPECT_EQ(fabric_->fault_injector(), nullptr);
  EXPECT_EQ(fabric_->fault_stats().drops, 0u);
}

TEST_F(FaultFabricTest, CertainSpikeStretchesBlockingCharge) {
  FaultPlan f;
  f.spike_rate = 1.0;
  f.spike_factor = 10.0;
  f.spike_op_mask = net::op_bit(OpKind::kGet);
  build(f);
  const net::NetworkModel model{};
  run([&](int pe) {
    if (pe != 0) return;
    const Nanos t0 = time_->now(0);
    std::uint64_t v = 0;
    fabric_->get(0, 1, 0, &v, 8);
    EXPECT_EQ(time_->now(0) - t0, 10 * model.cost(OpKind::kGet, 8, 1));
  });
  EXPECT_EQ(fabric_->fault_stats().spikes, 1u);
}

TEST_F(FaultFabricTest, DroppedNbiIsRetransmittedNotLost) {
  FaultPlan f;
  f.drop_rate = 1.0;  // always pays the full retransmit bound
  f.retransmit_ns = 50'000;
  f.max_retransmits = 3;
  build(f);
  const net::NetworkModel model{};
  run([&](int pe) {
    if (pe != 0) return;
    fabric_->nbi_amo_add(0, 1, 40, 9);
    EXPECT_EQ(fabric_->pending(0), 1);
    // The clean deadline passes: still in flight (being retransmitted).
    time_->advance(0, model.delivery_delay(8, 1) + 1);
    EXPECT_EQ(fabric_->pending(0), 1);
    EXPECT_EQ(word_at(1, 40), 0u);
    // quiet() must cover the retransmit tail and deliver exactly once.
    fabric_->quiet(0);
    EXPECT_EQ(fabric_->pending(0), 0);
    EXPECT_EQ(word_at(1, 40), 9u);
  });
  EXPECT_EQ(fabric_->fault_stats().drops, 3u);
}

TEST_F(FaultFabricTest, DuplicatedNbiAddDeliversItsEffectTwice) {
  FaultPlan f;
  f.dup_rate = 1.0;
  build(f);
  run([&](int pe) {
    if (pe != 0) return;
    fabric_->nbi_amo_add(0, 1, 48, 5);
    EXPECT_EQ(fabric_->pending(0), 2) << "both copies count as pending";
    EXPECT_EQ(fabric_->pending_to(1), 2);
    fabric_->quiet(0);
    EXPECT_EQ(fabric_->pending_to(1), 0);
    EXPECT_EQ(word_at(1, 48), 10u) << "a duplicated add lands twice";
  });
  EXPECT_EQ(fabric_->fault_stats().dups, 1u);
}

TEST_F(FaultFabricTest, DuplicatedNbiSetIsIdempotent) {
  FaultPlan f;
  f.dup_rate = 1.0;
  build(f);
  run([&](int pe) {
    if (pe != 0) return;
    fabric_->nbi_amo_set(0, 1, 56, 42);
    EXPECT_EQ(fabric_->pending(0), 2);
    fabric_->quiet(0);
    EXPECT_EQ(word_at(1, 56), 42u) << "set twice is still the value";
  });
}

TEST_F(FaultFabricTest, NewRunReproducesFaultyDeliverySchedule) {
  build(combined_plan());
  std::vector<std::uint64_t> first, second;
  auto storm = [&](std::vector<std::uint64_t>& log) {
    run([&](int pe) {
      if (pe != 0) return;
      for (int i = 0; i < 100; ++i) fabric_->nbi_amo_add(0, 1, 64, 1);
      fabric_->quiet(0);
      log.push_back(static_cast<std::uint64_t>(time_->now(0)));
    });
    log.push_back(word_at(1, 64));
  };
  storm(first);
  EXPECT_GE(first.back(), 100u) << "every add lands at least once";
  fabric_->new_run();
  std::memset(arenas_[1].data(), 0, kArena);
  storm(second);
  EXPECT_EQ(first, second) << "same plan + new_run => same virtual schedule";
}

// ------------------------------------------------- full-pool chaos runs

pgas::RuntimeConfig chaos_rcfg(int npes, const FaultPlan& plan,
                               pgas::TimeMode mode) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 8 << 20;
  c.seed = 42;
  c.mode = mode;
  c.net.faults = plan;
  return c;
}

core::PoolConfig chaos_pcfg(core::QueueKind kind) {
  core::PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 16384;
  c.queue.slot_bytes = 48;
  return c;
}

struct ChaosOutcome {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  net::FaultStats faults;
  net::Nanos duration = 0;
};

ChaosOutcome run_uts_chaos(core::QueueKind kind, pgas::TimeMode mode,
                           const FaultPlan& plan,
                           const workloads::UtsParams& p) {
  pgas::Runtime rt(chaos_rcfg(mode == pgas::TimeMode::kVirtual ? 8 : 4, plan,
                              mode));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(kind));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  const auto r = pool.report();
  return {r.total.tasks_executed, r.total.steals_ok, rt.fabric().fault_stats(),
          rt.last_run_duration()};
}

ChaosOutcome run_bpc_chaos(core::QueueKind kind, pgas::TimeMode mode,
                           const FaultPlan& plan, const workloads::BpcParams& p) {
  pgas::Runtime rt(chaos_rcfg(mode == pgas::TimeMode::kVirtual ? 8 : 4, plan,
                              mode));
  core::TaskRegistry reg;
  workloads::BpcBenchmark bpc(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(kind));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });
  const auto r = pool.report();
  return {r.total.tasks_executed, r.total.steals_ok, rt.fabric().fault_stats(),
          rt.last_run_duration()};
}

/// ~1e5-node tree for the acceptance-scale chaos runs (virtual backend).
workloads::UtsParams big_uts() {
  workloads::UtsParams p;
  p.b0 = 5;
  p.gen_mx = 12;  // 95,651 nodes with root_seed 19
  p.node_compute_ns = 110;
  return p;
}

/// Smaller tree for the real-time backend (latencies are real sleeps).
workloads::UtsParams small_uts() {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 500;
  return p;
}

workloads::BpcParams chaos_bpc() {
  workloads::BpcParams p;
  p.consumers_per_producer = 32;
  p.depth = 30;
  p.consumer_ns = 50'000;
  p.producer_ns = 10'000;
  return p;
}

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<core::QueueKind, bool>> {
 protected:
  core::QueueKind kind() const { return std::get<0>(GetParam()); }
  pgas::TimeMode mode() const {
    return std::get<1>(GetParam()) ? pgas::TimeMode::kVirtual
                                   : pgas::TimeMode::kReal;
  }
  bool is_virtual() const { return std::get<1>(GetParam()); }
};

TEST_P(ChaosMatrix, UtsSurvivesDropsDuplicatesAndSpikes) {
  // The acceptance bar: >= 10% drop + 10% dup and 10x spikes, zero lost
  // or double-executed tasks.
  FaultPlan plan = drop_dup_plan();
  plan.spike_rate = 0.10;
  plan.spike_factor = 10.0;
  const workloads::UtsParams p = is_virtual() ? big_uts() : small_uts();
  const auto truth = workloads::uts_sequential_count(p);
  const ChaosOutcome r = run_uts_chaos(kind(), mode(), plan, p);
  EXPECT_EQ(r.tasks, truth.nodes)
      << "lost or double-executed tasks under drop+dup+spikes";
  EXPECT_GT(r.steals, 0u);
  EXPECT_GT(r.faults.drops + r.faults.dups + r.faults.spikes, 0u)
      << "the plan must actually have fired";
}

TEST_P(ChaosMatrix, BpcSurvivesDropsDuplicatesAndSpikes) {
  FaultPlan plan = drop_dup_plan();
  plan.spike_rate = 0.10;
  plan.spike_factor = 10.0;
  const workloads::BpcParams p = chaos_bpc();
  const ChaosOutcome r = run_bpc_chaos(kind(), mode(), plan, p);
  EXPECT_EQ(r.tasks, p.expected_tasks());
  EXPECT_GT(r.faults.drops + r.faults.dups + r.faults.spikes, 0u);
}

TEST_P(ChaosMatrix, UtsSurvivesCombinedPlanWithSlowWindows) {
  const workloads::UtsParams p = small_uts();
  const auto truth = workloads::uts_sequential_count(p);
  const ChaosOutcome r = run_uts_chaos(kind(), mode(), combined_plan(), p);
  EXPECT_EQ(r.tasks, truth.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    QueuesAndBackends, ChaosMatrix,
    ::testing::Combine(::testing::Values(core::QueueKind::kSws,
                                         core::QueueKind::kSdc),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == core::QueueKind::kSws
                             ? "Sws"
                             : "Sdc") +
             (std::get<1>(info.param) ? "Virtual" : "Real");
    });

// ----------------------------------------- topology-preset chaos runs

ChaosOutcome run_uts_on_net(core::QueueKind kind, const net::NetworkParams& net,
                            const workloads::UtsParams& p) {
  pgas::RuntimeConfig c;
  c.npes = 8;
  c.heap_bytes = 8 << 20;
  c.seed = 42;
  c.net = net;
  pgas::Runtime rt(c);
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(kind));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  const auto r = pool.report();
  return {r.total.tasks_executed, r.total.steals_ok, rt.fabric().fault_stats(),
          rt.last_run_duration()};
}

TEST(ChaosTopologyPresets, UtsDegradesGracefullyUnderSlowRack) {
  // Node 1 of a two-level 8-PE machine runs 4x slow for its first 2 ms.
  // Graceful degradation = every task still executes exactly once and the
  // preset demonstrably fired; work shifts away, nothing is lost.
  const workloads::UtsParams p = small_uts();
  const auto truth = workloads::uts_sequential_count(p);
  const Topology topo(TopologySpec::two_level(4), 8);
  net::NetworkParams net = net::NetworkParams::two_level(4);
  net.faults = net::slow_rack_plan(topo, 1, 0, 2'000'000);
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome r = run_uts_on_net(kind, net, p);
    EXPECT_EQ(r.tasks, truth.nodes);
    EXPECT_GT(r.faults.slow_hits, 0u) << "the slow window never fired";
    EXPECT_GT(r.faults.slow_extra_ns, 0u);
  }
}

TEST(ChaosTopologyPresets, UtsDegradesGracefullyUnderPartitionedNode) {
  // Node 1 is cut off from the rest of the machine for [0, 1.5 ms): ops
  // crossing the cut pay 8x and deliveries land 40 us late, yet the run
  // still executes the full tree.
  const workloads::UtsParams p = small_uts();
  const auto truth = workloads::uts_sequential_count(p);
  const Topology topo(TopologySpec::two_level(4), 8);
  net::NetworkParams net = net::NetworkParams::two_level(4);
  net.faults = net::partitioned_node_plan(topo, 1, 0, 1'500'000);
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome r = run_uts_on_net(kind, net, p);
    EXPECT_EQ(r.tasks, truth.nodes);
    EXPECT_GT(r.faults.partition_hits, 0u) << "the partition never fired";
  }
}

TEST(ChaosTopologyPresets, PresetRunsAreBitReproducible) {
  const workloads::UtsParams p = small_uts();
  const Topology topo(TopologySpec::two_level(4), 8);
  net::NetworkParams net = net::NetworkParams::two_level(4);
  net.faults = net::partitioned_node_plan(topo, 1, 0, 1'500'000);
  const ChaosOutcome a = run_uts_on_net(core::QueueKind::kSws, net, p);
  const ChaosOutcome b = run_uts_on_net(core::QueueKind::kSws, net, p);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.faults.partition_hits, b.faults.partition_hits);
  EXPECT_EQ(a.faults.partition_extra_ns, b.faults.partition_extra_ns);
}

TEST(ChaosDeterminism, FaultyVirtualRunsAreBitReproducible) {
  // Faulty runs must be exactly as deterministic as clean ones: same
  // plan, same seed, same virtual duration and fault counts, twice.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome a =
        run_uts_chaos(kind, pgas::TimeMode::kVirtual, combined_plan(), p);
    const ChaosOutcome b =
        run_uts_chaos(kind, pgas::TimeMode::kVirtual, combined_plan(), p);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.faults.drops, b.faults.drops);
    EXPECT_EQ(a.faults.dups, b.faults.dups);
    EXPECT_EQ(a.faults.spikes, b.faults.spikes);
  }
}

TEST(ChaosDeterminism, FaultsOffMatchesPlainRunExactly) {
  // A default FaultPlan must not change a single virtual nanosecond.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome off =
        run_uts_chaos(kind, pgas::TimeMode::kVirtual, FaultPlan{}, p);
    pgas::RuntimeConfig c;
    c.npes = 8;
    c.heap_bytes = 8 << 20;
    c.seed = 42;
    pgas::Runtime rt(c);  // no faults field touched at all
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, p);
    core::TaskPool pool(rt, reg, chaos_pcfg(kind));
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    EXPECT_EQ(off.duration, rt.last_run_duration());
    EXPECT_EQ(off.tasks, pool.report().total.tasks_executed);
  }
}

TEST(ChaosTracing, SpanLifecycleSurvivesFaultInjection) {
  // Every steal/release/acquire span opened under the combined fault plan
  // (drops + dups + spikes + jitter + a slow PE) must still close exactly
  // once, and every traced fabric op must land inside an open span —
  // retransmits and duplicate deliveries never leak span state.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    pgas::Runtime rt(
        chaos_rcfg(8, combined_plan(), pgas::TimeMode::kVirtual));
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, p);
    core::PoolConfig pcfg = chaos_pcfg(kind);
    pcfg.trace.enable = true;
    pcfg.trace.events = std::size_t{1} << 18;  // must not wrap: no orphans
    core::TaskPool pool(rt, reg, pcfg);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });

    const core::Tracer& t = pool.tracer();
    ASSERT_FALSE(t.truncated());
    for (const auto k : {core::TraceKind::kStealSpan,
                         core::TraceKind::kReleaseSpan,
                         core::TraceKind::kAcquireSpan})
      EXPECT_EQ(t.count(k, core::TracePhase::kBegin),
                t.count(k, core::TracePhase::kEnd));

    std::ostringstream os;
    pool.dump_trace_json(os);
    std::istringstream is(os.str());
    const obs::RunTrace trace = obs::parse_chrome_trace(is);
    EXPECT_EQ(trace.orphan_begins, 0u);
    EXPECT_EQ(trace.orphan_ends, 0u);
    EXPECT_EQ(trace.orphan_ops, 0u) << "fabric op outside any span";
    const obs::AnalyzeReport r = obs::analyze(trace);
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_EQ(r.steals_ok, pool.report().total.steals_ok);
    EXPECT_GT(r.steals_ok, 0u);
  }
}

TEST(ChaosReRun, PoolSurvivesBackToBackFaultyRuns) {
  // Fabric::new_run() must clear injector state and leak no pending ops
  // between runs; the second run must match the first exactly.
  const workloads::UtsParams p = small_uts();
  const auto truth = workloads::uts_sequential_count(p);
  pgas::Runtime rt(chaos_rcfg(8, drop_dup_plan(), pgas::TimeMode::kVirtual));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(core::QueueKind::kSws));
  net::Nanos first = 0;
  for (int run = 0; run < 2; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes)
        << "run " << run;
    if (run == 0)
      first = rt.last_run_duration();
    else
      EXPECT_EQ(rt.last_run_duration(), first)
          << "new_run must reseed the fault streams";
  }
}

}  // namespace
}  // namespace sws
