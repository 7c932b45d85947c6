// Chaos suite for the fault-injection subsystem: injector unit semantics,
// fabric-level fault effects, and full-pool runs under a fault-plan
// matrix (drops + duplicates, latency spikes) on both queue
// protocols. The invariant everywhere: every task
// executes exactly once and termination never misfires, no matter what
// the fabric does to individual messages.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"
#include "sws.hpp"

namespace sws {
namespace {

using net::FaultInjector;
using net::FaultPlan;
using net::Nanos;
using net::OpKind;

// ---------------------------------------------------------------- plans

FaultPlan drop_dup_plan() {
  FaultPlan f;
  f.drop_rate = 0.10;
  f.dup_rate = 0.10;
  return f;
}

/// Every random fault class at once: 10% drop + 10% dup, 10% 10x spikes.
FaultPlan combined_plan() {
  FaultPlan f = drop_dup_plan();
  f.spike_rate = 0.10;
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
}

TEST(FaultInjectorTest, CertainSpikeChargesFactorMinusOne) {
  FaultPlan f;
  f.spike_rate = 1.0;
  FaultInjector inj(f, 2);
  const Nanos base = 1000;
  EXPECT_EQ(inj.charge_penalty(0, base), 9 * base);
  EXPECT_EQ(inj.stats(0).spikes, 1u);
  EXPECT_EQ(inj.stats(0).spike_extra_ns, 9000u);
}

TEST(FaultInjectorTest, CertainDropPaysRetransmitDelays) {
  FaultPlan f;
  f.drop_rate = 1.0;  // every transmission lost: pays the full bound
  FaultInjector inj(f, 1);
  const auto d = inj.delivery_verdict(0);
  EXPECT_EQ(d.extra_delay, net::kMaxRetransmits * net::kRetransmitNs);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(inj.stats(0).drops, net::kMaxRetransmits);
}

TEST(FaultInjectorTest, CertainDupFlagsADuplicate) {
  FaultPlan f;
  f.dup_rate = 1.0;
  FaultInjector inj(f, 1);
  const auto d = inj.delivery_verdict(0);
  EXPECT_TRUE(d.duplicate);
  EXPECT_EQ(d.dup_extra_delay, net::kDupDelayNs);
  EXPECT_EQ(inj.stats(0).dups, 1u);
}

TEST(FaultInjectorTest, NewRunReproducesTheDecisionSequence) {
  FaultInjector inj(combined_plan(), 4);
  std::vector<Nanos> first;
  for (int i = 0; i < 64; ++i) {
    const auto d = inj.delivery_verdict(2);
    first.push_back(d.extra_delay + (d.duplicate ? 1 : 0));
  }
  inj.new_run();
  for (int i = 0; i < 64; ++i) {
    const auto d = inj.delivery_verdict(2);
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
    const auto da = a.delivery_verdict(0);
    (void)b.delivery_verdict(1);
    const auto db = b.delivery_verdict(0);
    EXPECT_EQ(da.extra_delay, db.extra_delay) << "draw " << i;
    EXPECT_EQ(da.duplicate, db.duplicate) << "draw " << i;
  }
}

TEST(FaultInjectorTest, StatsArePerInitiatingPe) {
  FaultPlan f;
  f.dup_rate = 1.0;
  FaultInjector inj(f, 3);
  (void)inj.delivery_verdict(0);
  (void)inj.delivery_verdict(2);
  EXPECT_EQ(inj.stats(0).dups, 1u);
  EXPECT_EQ(inj.stats(1).dups, 0u);
  EXPECT_EQ(inj.stats(2).dups, 1u);
}

// ------------------------------------------------------- fabric effects

/// What `fab` publishes under fabric.* (the metrics ablation_faults
/// reports).
obs::MetricsSnapshot published(const net::Fabric& fab) {
  obs::MetricsRegistry reg(fab.npes());
  fab.publish_metrics(reg);
  return reg.snapshot();
}

/// Run total of the published counter fabric.faults.<name>; 0 when the
/// fabric has no injector and so publishes no fault counters.
std::uint64_t fault_total(const net::Fabric& fab, const std::string& name) {
  const obs::MetricsSnapshot m = published(fab);
  const auto* e = m.find("fabric.faults." + name);
  return e ? e->total() : 0;
}

class FaultFabricTest : public ::testing::Test {
 protected:
  static constexpr int kPes = 2;
  static constexpr std::size_t kArena = 4096;

  void build(const FaultPlan& plan) {
    net::NetworkParams params;
    params.faults = plan;
    time_ = std::make_unique<net::VirtualTimeModel>(kPes);
    fabric_ = std::make_unique<net::Fabric>(*time_, params, kPes);
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
  EXPECT_FALSE(fabric_->fault_duplicates_possible());
  const obs::MetricsSnapshot m = published(*fabric_);
  for (const auto& e : m.entries)
    EXPECT_NE(e.name.rfind("fabric.faults.", 0), 0u)
        << e.name << " published without an injector";
}

TEST_F(FaultFabricTest, CertainSpikeStretchesBlockingCharge) {
  FaultPlan f;
  f.spike_rate = 1.0;
  build(f);
  const net::NetworkModel model{};
  run([&](int pe) {
    if (pe != 0) return;
    const Nanos t0 = time_->now(0);
    std::uint64_t v = 0;
    fabric_->get(0, 1, 0, &v, 8);
    EXPECT_EQ(time_->now(0) - t0, 10 * model.cost(OpKind::kGet, 8, 1));
  });
  EXPECT_EQ(fault_total(*fabric_, "spikes"), 1u);
}

TEST_F(FaultFabricTest, DroppedNbiIsRetransmittedNotLost) {
  FaultPlan f;
  f.drop_rate = 1.0;  // always pays the full retransmit bound
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
  EXPECT_EQ(fault_total(*fabric_, "drops"), net::kMaxRetransmits);
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
  EXPECT_EQ(fault_total(*fabric_, "dups"), 1u);
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

pgas::RuntimeConfig chaos_rcfg(int npes, const FaultPlan& plan) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 8 << 20;
  c.seed = 42;
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
  std::uint64_t drops = 0, dups = 0, spikes = 0;  ///< fabric.faults.* totals
  net::Nanos duration = 0;
};

ChaosOutcome run_uts_chaos(core::QueueKind kind, const FaultPlan& plan,
                           const workloads::UtsParams& p) {
  pgas::Runtime rt(chaos_rcfg(8, plan));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(kind));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  const auto r = pool.report();
  return {r.total.tasks_executed, r.total.steals_ok,
          fault_total(rt.fabric(), "drops"), fault_total(rt.fabric(), "dups"),
          fault_total(rt.fabric(), "spikes"), rt.last_run_duration()};
}

ChaosOutcome run_bpc_chaos(core::QueueKind kind, const FaultPlan& plan,
                           const workloads::BpcParams& p) {
  pgas::Runtime rt(chaos_rcfg(8, plan));
  core::TaskRegistry reg;
  workloads::BpcBenchmark bpc(reg, p);
  core::TaskPool pool(rt, reg, chaos_pcfg(kind));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });
  const auto r = pool.report();
  return {r.total.tasks_executed, r.total.steals_ok,
          fault_total(rt.fabric(), "drops"), fault_total(rt.fabric(), "dups"),
          fault_total(rt.fabric(), "spikes"), rt.last_run_duration()};
}

/// ~1e5-node tree for the acceptance-scale chaos runs.
workloads::UtsParams big_uts() {
  workloads::UtsParams p;
  p.b0 = 5;
  p.gen_mx = 12;  // 95,651 nodes with root_seed 19
  p.node_compute_ns = 110;
  return p;
}

/// Smaller tree for the repeated-run determinism checks.
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

class ChaosMatrix : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(ChaosMatrix, UtsSurvivesDropsDuplicatesAndSpikes) {
  // The acceptance bar: >= 10% drop + 10% dup and 10x spikes, zero lost
  // or double-executed tasks.
  const workloads::UtsParams p = big_uts();
  const auto truth = workloads::uts_sequential_count(p);
  const ChaosOutcome r = run_uts_chaos(GetParam(), combined_plan(), p);
  EXPECT_EQ(r.tasks, truth.nodes)
      << "lost or double-executed tasks under drop+dup+spikes";
  EXPECT_GT(r.steals, 0u);
  EXPECT_GT(r.drops + r.dups + r.spikes, 0u)
      << "the plan must actually have fired";
}

TEST_P(ChaosMatrix, BpcSurvivesDropsDuplicatesAndSpikes) {
  const workloads::BpcParams p = chaos_bpc();
  const ChaosOutcome r = run_bpc_chaos(GetParam(), combined_plan(), p);
  EXPECT_EQ(r.tasks, p.expected_tasks());
  EXPECT_GT(r.drops + r.dups + r.spikes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    QueuesAndBackends, ChaosMatrix,
    ::testing::Values(core::QueueKind::kSws, core::QueueKind::kSdc),
    [](const auto& info) {
      return info.param == core::QueueKind::kSws ? "SwsVirtual"
                                                 : "SdcVirtual";
    });

TEST(ChaosDeterminism, FaultyVirtualRunsAreBitReproducible) {
  // Faulty runs must be exactly as deterministic as clean ones: same
  // plan, same seed, same virtual duration and fault counts, twice.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome a = run_uts_chaos(kind, combined_plan(), p);
    const ChaosOutcome b = run_uts_chaos(kind, combined_plan(), p);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.dups, b.dups);
    EXPECT_EQ(a.spikes, b.spikes);
  }
}

TEST(ChaosDeterminism, FaultsOffMatchesPlainRunExactly) {
  // A default FaultPlan must not change a single virtual nanosecond.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const ChaosOutcome off = run_uts_chaos(kind, FaultPlan{}, p);
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
  // (drops + dups + spikes) must still close exactly
  // once, and every traced fabric op must land inside an open span —
  // retransmits and duplicate deliveries never leak span state.
  const workloads::UtsParams p = small_uts();
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    pgas::Runtime rt(chaos_rcfg(8, combined_plan()));
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
  pgas::Runtime rt(chaos_rcfg(8, drop_dup_plan()));
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
