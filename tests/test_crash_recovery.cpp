// Crash-stop recovery, end to end (docs/resilience.md).
//
// Four regression shapes that hang without the recovery machinery — a
// thief dying mid-steal, a victim dying under its thieves, an SDC lock
// holder dying, and a PE dying with spawn_on traffic in its inbox — plus
// the acceptance runs: UTS and BPC at 16 PEs surviving 1–3 planned
// crashes on both protocols with run-twice-identical recovery schedules.
//
// The watchdog: every run also plans a crash for EVERY PE at a virtual
// instant far beyond any legitimate completion. A PE that finishes
// disarms its own watchdog at pool teardown, so passing runs never see
// it; a recovery deadlock instead kills the whole job at the watchdog
// instant, the run returns, and the duration assertion fails loudly —
// a hang becomes a readable test failure, in virtual time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "net/fault.hpp"
#include "obs/trace_analysis.hpp"
#include "sws.hpp"

namespace sws {
namespace {

/// Far beyond any passing run in this file (longest ≈ 4 ms virtual).
constexpr net::Nanos kWatchdogNs = 50'000'000;

/// CI's chaos-soak sweeps the base RNG seed (victim selection order, and
/// through it which steals are in flight when each crash fires) without
/// recompiling: SWS_CRASH_SEED=n overrides the default. Every assertion
/// in this file is seed-independent — determinism checks compare two runs
/// of the same seed, and task-count bounds hold for any schedule.
std::uint64_t base_seed() {
  const char* s = std::getenv("SWS_CRASH_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 42;
}

pgas::RuntimeConfig crash_rcfg(int npes,
                               const std::vector<net::CrashEvent>& crashes,
                               std::uint64_t seed = 0) {
  if (seed == 0) seed = base_seed();
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 4 << 20;
  c.seed = seed;
  for (const net::CrashEvent& e : crashes) c.net.faults.crashes.push_back(e);
  for (int pe = 0; pe < npes; ++pe)
    c.net.faults.crashes.push_back({pe, kWatchdogNs});
  return c;
}

core::PoolConfig pcfg(core::QueueKind kind) {
  core::PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 8192;
  c.queue.slot_bytes = 64;
  return c;
}

/// The 98,109-node tree from Integration.TaskConservationAtScale, slowed to
/// 500 ns per node so a 16-PE run lasts >= 800 µs and every planned crash
/// in this file lands mid-run, well after the startup barriers.
workloads::UtsParams crash_uts_params() {
  workloads::UtsParams p;
  p.b0 = 6;
  p.gen_mx = 9;
  p.root_seed = 3;
  p.node_compute_ns = 500;
  return p;
}

/// Comparable per-PE fingerprint: identical across two identical runs iff
/// the recovery schedule (who detected, fenced, re-executed, rerouted
/// what) replayed exactly.
struct PeSig {
  std::uint64_t executed = 0;
  std::uint64_t spawned = 0;
  std::uint64_t stolen = 0;
  std::uint64_t steals_ok = 0;
  std::uint64_t attempts = 0;
  std::uint64_t reexecuted = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t deaths = 0;

  bool operator==(const PeSig&) const = default;
};

struct CrashRun {
  core::PoolRunReport report;
  std::vector<PeSig> per_pe;
  net::Nanos duration = 0;
  int ndead = 0;
};

/// The last run of `pool` on `rt`.
CrashRun snapshot(pgas::Runtime& rt, const core::TaskPool& pool) {
  CrashRun r;
  r.report = pool.report();
  for (int pe = 0; pe < rt.npes(); ++pe) {
    const core::WorkerStats& s = pool.worker_stats(pe);
    r.per_pe.push_back({s.tasks_executed, s.tasks_spawned, s.tasks_stolen,
                        s.steals_ok, s.steal_attempts, s.tasks_reexecuted,
                        s.tasks_rerouted, s.deaths_witnessed});
  }
  r.duration = rt.last_run_duration();
  r.ndead = rt.fabric().num_dead();
  return r;
}

/// Runs UTS `runs` times on one Runtime and pool; every run replays the
/// same crash plan. Returns one CrashRun per run.
std::vector<CrashRun> run_uts_crash(core::QueueKind kind, int npes,
                                    const std::vector<net::CrashEvent>& crashes,
                                    int runs) {
  pgas::Runtime rt(crash_rcfg(npes, crashes));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, crash_uts_params());
  core::TaskPool pool(rt, reg, pcfg(kind));
  std::vector<CrashRun> out;
  for (int run = 0; run < runs; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    out.push_back(snapshot(rt, pool));
  }
  return out;
}

CrashRun run_uts_crash(core::QueueKind kind, int npes,
                       const std::vector<net::CrashEvent>& crashes) {
  return run_uts_crash(kind, npes, crashes, 1)[0];
}

/// Determinism: same seed + same fault plan => identical survivor work,
/// identical recovery actions, identical virtual duration.
void expect_same_run(const CrashRun& a, const CrashRun& b) {
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.ndead, b.ndead);
  ASSERT_EQ(a.per_pe.size(), b.per_pe.size());
  for (std::size_t pe = 0; pe < a.per_pe.size(); ++pe)
    EXPECT_TRUE(a.per_pe[pe] == b.per_pe[pe])
        << "pe " << pe << " diverged between identical runs";
}

/// The watchdog check every crash test runs: the job finished on its own
/// (no PE was still stuck when the watchdog instant arrived) and exactly
/// the planned deaths happened.
void expect_clean_finish(const CrashRun& r, int expected_dead) {
  EXPECT_LT(r.duration, kWatchdogNs)
      << "run only ended because the watchdog killed it — recovery hung";
  EXPECT_EQ(r.ndead, expected_dead);
}

// ------------------------------------------------------- death registry

// The registry's P x P knowledge bitset, driven directly. Five PEs, so
// observer rows straddle byte boundaries of the packed bits.
TEST(DeathRegistry, KnowledgeIsPerObserverAndResetsByRow) {
  pgas::RuntimeConfig rc;
  rc.npes = 5;
  rc.heap_bytes = 1 << 20;
  pgas::Runtime rt(rc);
  core::DeathRegistry reg;
  reg.init(rt, core::RecoveryConfig{});
  rt.run([&](pgas::PeContext& ctx) { reg.reset_pe(ctx); });

  EXPECT_TRUE(reg.note_dead(1, 0));   // news
  EXPECT_FALSE(reg.note_dead(1, 0));  // a repeat is not
  EXPECT_TRUE(reg.note_dead(1, 2));
  EXPECT_EQ(reg.known_count(1), 2);   // distinct deaths only
  EXPECT_TRUE(reg.known_dead(1, 0));
  EXPECT_TRUE(reg.known_dead(1, 2));
  EXPECT_FALSE(reg.known_dead(1, 3));
  EXPECT_EQ(reg.lowest_live(1), 1);   // skips the known-dead PE 0

  // Observers learn independently; the neighbouring rows of observer 1.
  EXPECT_EQ(reg.known_count(3), 0);
  EXPECT_FALSE(reg.known_dead(3, 0));
  EXPECT_TRUE(reg.note_dead(0, 4));
  EXPECT_TRUE(reg.note_dead(2, 0));
  EXPECT_TRUE(reg.note_dead(2, 1));
  EXPECT_EQ(reg.lowest_live(2), 2);
  EXPECT_EQ(reg.lowest_live(0), 0);

  // A per-run reset clears only the resetting observer's row.
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 1) reg.reset_pe(ctx);
  });
  EXPECT_EQ(reg.known_count(1), 0);
  EXPECT_FALSE(reg.known_dead(1, 0));
  EXPECT_FALSE(reg.known_dead(1, 2));
  EXPECT_EQ(reg.lowest_live(1), 0);
  EXPECT_TRUE(reg.known_dead(0, 4));
  EXPECT_EQ(reg.known_count(0), 1);
  EXPECT_TRUE(reg.known_dead(2, 0));
  EXPECT_TRUE(reg.known_dead(2, 1));
  EXPECT_EQ(reg.known_count(2), 2);
  EXPECT_TRUE(reg.note_dead(1, 0));   // news again after the reset
}

// ------------------------------------------------- regression: hang shapes

// A thief dies mid-run with claims open against the owner. Without lease
// fencing the owner waits on the dead thief's completion words forever.
TEST(CrashRecovery, ThiefCrashMidStealSws) {
  const CrashRun r =
      run_uts_crash(core::QueueKind::kSws, 4, {{3, 400'000}});
  expect_clean_finish(r, 1);
  EXPECT_GT(r.report.total.tasks_executed, 0u);
  EXPECT_GE(r.report.total.deaths_witnessed, 1u);
}

/// A UTS run whose node task tallies every execution by payload (digest +
/// depth, unique per node). The tally wraps the workload's own task
/// host-side, so the schedule is the plain UTS run's; so is the trace,
/// which is observation-only and kept when `trace` is set.
struct TalliedRun {
  CrashRun run;
  obs::RunTrace trace;
  std::map<std::string, int> visits;
  std::vector<std::uint64_t> recovered;  ///< queue.tasks_recovered per PE
};

/// A 4-ary, depth-9 tree: small enough that tracing all of it is cheap.
workloads::UtsParams small_uts_params() {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 200;
  return p;
}

TalliedRun run_tallied_uts(core::QueueKind kind, int npes,
                           const std::vector<net::CrashEvent>& crashes,
                           bool trace) {
  pgas::Runtime rt(crash_rcfg(npes, crashes));
  core::TaskRegistry uts_reg;
  workloads::UtsBenchmark uts(uts_reg, small_uts_params());
  TalliedRun out;
  // UTS registers one function, id 0; the wrapper takes that id here, so
  // every spawned node runs through it.
  core::TaskRegistry reg;
  reg.register_fn("uts.node.tallied",
                  [&](core::Worker& w, std::span<const std::byte> b) {
                    ++out.visits[std::string(
                        reinterpret_cast<const char*>(b.data()), b.size())];
                    uts_reg.fn(0)(w, b);
                  });
  core::PoolConfig pc = pcfg(kind);
  pc.trace.enable = trace;
  pc.trace.events = std::size_t{1} << 16;
  core::TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  out.run = snapshot(rt, pool);
  for (int pe = 0; pe < npes; ++pe)
    out.recovered.push_back(pool.queue().op_stats(pe).tasks_recovered);
  if (trace) {
    EXPECT_FALSE(pool.tracer().truncated()) << "trace ring wrapped";
    std::stringstream json;
    pool.dump_trace_json(json);
    out.trace = obs::parse_chrome_trace(json);
  }
  return out;
}

// The at-least-once re-execution path, shown firing: a thief dies with its
// claim open, after the claim and before the task copy. A traced run with
// only the watchdog planned finds the first successful steal of a non-seed
// PE; the rerun crashes that thief at the end of the op just before the
// steal's task-copy get — the fetch-add claim (SWS) or the unlock (SDC).
// Both runs are identical up to that instant, so the thief dies at the
// copy and the victim must fence the claim and re-run its tasks.
TEST(CrashRecovery, ThiefDiesInsideClaimIsReexecuted) {
  constexpr int kNpes = 8;
  const auto truth = workloads::uts_sequential_count(small_uts_params());
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const bool sws = kind == core::QueueKind::kSws;
    SCOPED_TRACE(sws ? "SWS" : "SDC");
    const TalliedRun clean = run_tallied_uts(kind, kNpes, {}, true);
    expect_clean_finish(clean.run, 0);

    const char* claim_op = sws ? "amo_fetch_add" : "amo_set";
    const obs::Span* steal = nullptr;
    net::Nanos crash_at = 0;
    for (const obs::Span& s : clean.trace.spans) {
      if (s.kind != "steal" || s.pe == 0 || s.outcome() != 0) continue;
      for (std::size_t i = 1; i < s.ops.size(); ++i) {
        if (s.ops[i].op == "get" && s.ops[i - 1].op == claim_op) {
          crash_at = s.ops[i - 1].ts_ns + s.ops[i - 1].dur_ns;
          break;
        }
      }
      steal = &s;
      break;
    }
    ASSERT_NE(steal, nullptr) << "no successful steal by a non-seed PE";
    ASSERT_GT(crash_at, 0u) << "steal span shows no claim-then-copy ops";

    const TalliedRun r =
        run_tallied_uts(kind, kNpes, {{steal->pe, crash_at}}, false);
    expect_clean_finish(r.run, 1);
    EXPECT_GT(r.run.report.total.tasks_reexecuted, 0u);
    EXPECT_GT(r.recovered[static_cast<std::size_t>(steal->victim())], 0u)
        << "victim PE " << steal->victim();
    EXPECT_EQ(r.visits.size(), truth.nodes) << "a UTS node never ran";
    for (const auto& [node, n] : r.visits)
      EXPECT_LE(n, 2) << "a UTS node ran more than twice";
  }
}

// The victim (and seed owner, and initial termination coordinator) dies
// under its thieves: steal handshakes against it return poison, and the
// coordinator role must fail over to the next live PE.
TEST(CrashRecovery, VictimCrashMidRunSws) {
  const CrashRun r =
      run_uts_crash(core::QueueKind::kSws, 4, {{0, 400'000}});
  expect_clean_finish(r, 1);
  EXPECT_GT(r.report.total.tasks_executed, 0u);
  EXPECT_GE(r.report.total.deaths_witnessed, 1u);
}

// SDC: a PE that dies can take the per-queue lock with it. Three crash
// instants sample different protocol stages; each must break the dead
// holder's lease rather than spin on the lock forever.
// Each plan also runs a second time on the same pool: the rerun starts
// from reset claim-intent and completion rings and must replay run 1.
TEST(CrashRecovery, LockHolderCrashSdc) {
  for (const net::Nanos at : {200'000, 350'000, 500'000}) {
    const std::vector<CrashRun> runs =
        run_uts_crash(core::QueueKind::kSdc, 4, {{2, at}}, 2);
    const CrashRun& r = runs[0];
    expect_clean_finish(r, 1);
    EXPECT_GT(r.report.total.tasks_executed, 0u) << "crash at " << at;
    EXPECT_GE(r.report.total.deaths_witnessed, 1u) << "crash at " << at;
    expect_same_run(r, runs[1]);
  }
}

// A victim dies under an SDC thief's deferred copy: the get returns the
// fabric's all-ones filler, which must be dropped, not parsed as task
// slots ("corrupt task slot"). The configuration is the SDC run of
// ablation_faults' two-crash row at its fifth default seed (--npes 8
// --depth 9, 48-byte slots, PEs 2 and 5 dying at 150 and 270 us).
TEST(CrashRecovery, VictimDiesUnderDeferredCopySdc) {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 200;
  const auto truth = workloads::uts_sequential_count(p);
  pgas::Runtime rt(
      crash_rcfg(8, {{2, 150'000}, {5, 270'000}}, 42 + 4 * 1'000'003));
  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::PoolConfig pc = pcfg(core::QueueKind::kSdc);
  pc.queue.slot_bytes = 48;
  core::TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  const CrashRun r = snapshot(rt, pool);
  expect_clean_finish(r, 2);
  EXPECT_GT(r.report.total.tasks_executed, 0u);
  EXPECT_LE(r.report.total.tasks_executed, 2 * truth.nodes);
  EXPECT_GE(r.report.total.deaths_witnessed, 1u);
}

// A PE dies with spawn_on traffic aimed at it: ring chains push through
// every PE continuously, so the dead PE's inbox has undrained tasks and
// senders mid-push against it. Senders must reroute or re-home those
// tasks; without that, chains stall and termination never fires. A
// second run on the same pool starts from cleared sender ledgers and
// must replay the first.
TEST(CrashRecovery, InboxCrashWithPendingTasks) {
  constexpr int kNpes = 8;
  pgas::Runtime rt(crash_rcfg(kNpes, {{3, 300'000}}));
  core::TaskRegistry reg;
  core::TaskFnId fn = 0;
  fn = reg.register_fn(
      "ring-hop", [&fn](core::Worker& w, std::span<const std::byte> b) {
        std::uint32_t hops;
        std::memcpy(&hops, b.data(), 4);
        w.compute(5000);
        if (hops == 0) return;
        w.spawn_on((w.pe() + 1) % w.npes(), core::Task::of(fn, hops - 1));
      });
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
  std::vector<CrashRun> runs;
  for (int run = 0; run < 2; ++run) {
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) {
        for (std::uint32_t c = 0; c < 4; ++c)
          w.spawn(core::Task::of(fn, std::uint32_t{64}));
      });
    });
    runs.push_back(snapshot(rt, pool));
  }
  expect_clean_finish(runs[0], 1);
  const core::PoolRunReport& r = runs[0].report;
  EXPECT_GT(r.total.tasks_executed, 0u);
  EXPECT_GE(r.total.deaths_witnessed, 1u);
  expect_same_run(runs[0], runs[1]);
}

// A sampled crash-mode run: the dead PE's record must stay readable after
// its fiber unwinds. Every window's phase deltas sum to the elapsed delta,
// and the sampled task count ends at what report() counts — including the
// dead PE's pre-crash executions, which it finalizes on the way out.
TEST(CrashRecovery, SampledRunKeepsDeadPeRecord) {
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    pgas::Runtime rt(crash_rcfg(8, {{3, 300'000}}));
    core::TaskRegistry reg;
    workloads::UtsBenchmark uts(reg, crash_uts_params());
    core::PoolConfig pc = pcfg(kind);
    pc.trace.sample_interval_ns = 10'000;
    core::TaskPool pool(rt, reg, pc);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });
    const CrashRun r = snapshot(rt, pool);
    expect_clean_finish(r, 1);
    EXPECT_GT(r.per_pe[3].executed, 0u) << "dead PE's pre-crash work";

    std::stringstream json;
    pool.dump_timeseries_json(json);
    const obs::TimeSeriesData ts = obs::parse_timeseries(json);
    ASSERT_GT(ts.t.size(), 1u);
    ASSERT_NE(ts.find("acct.elapsed_ns"), nullptr);
    for (const std::string& err : obs::check_accounting(ts))
      ADD_FAILURE() << err;
    const obs::TimeSeriesData::Series* executed =
        ts.find("pool.tasks_executed");
    ASSERT_NE(executed, nullptr);
    std::int64_t sum = 0;
    for (const std::int64_t d : executed->v) sum += d;
    EXPECT_EQ(static_cast<std::uint64_t>(sum),
              r.report.total.tasks_executed);
  }
}

// --------------------------------------------- acceptance: 16-PE survival

// Both protocols, 1 and 3 planned crashes, 16 PEs: survivors finish, the
// re-execution bound holds (every task runs at most twice, so the total
// can never exceed 2x the tree), and the whole run — including the
// recovery schedule — replays byte-identically from the same seed + plan.
TEST(CrashRecovery, UtsSurvivorsDeterministic) {
  const auto truth = workloads::uts_sequential_count(crash_uts_params());
  const std::vector<std::vector<net::CrashEvent>> plans = {
      {{5, 250'000}},
      {{3, 200'000}, {7, 280'000}, {11, 360'000}},
  };
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    for (const auto& plan : plans) {
      const CrashRun a = run_uts_crash(kind, 16, plan);
      const CrashRun b = run_uts_crash(kind, 16, plan);
      expect_clean_finish(a, static_cast<int>(plan.size()));
      EXPECT_GT(a.report.total.tasks_executed, 0u);
      EXPECT_LE(a.report.total.tasks_executed, 2 * truth.nodes)
          << "at-least-once multiplicity bound breached";
      EXPECT_GE(a.report.total.deaths_witnessed, 1u);
      expect_same_run(a, b);
    }
  }
}

TEST(CrashRecovery, BpcSurvivorsDeterministic) {
  workloads::BpcParams bp;
  bp.consumers_per_producer = 16;
  bp.depth = 20;
  bp.consumer_ns = 100'000;
  bp.producer_ns = 10'000;
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    std::vector<CrashRun> runs;
    for (int rep = 0; rep < 2; ++rep) {
      pgas::Runtime rt(crash_rcfg(16, {{2, 300'000}}));
      core::TaskRegistry reg;
      workloads::BpcBenchmark bpc(reg, bp);
      core::TaskPool pool(rt, reg, pcfg(kind));
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
      });
      runs.push_back(snapshot(rt, pool));
    }
    expect_clean_finish(runs[0], 1);
    EXPECT_GT(runs[0].report.total.tasks_executed, 0u);
    EXPECT_LE(runs[0].report.total.tasks_executed, 2 * bp.expected_tasks());
    expect_same_run(runs[0], runs[1]);
  }
}

// A plan whose crashes all postdate completion (the watchdog alone): the
// crash-mode machinery is fully armed — resilient termination, claim
// intents, sender ledgers — yet nothing fires, and the run must still
// visit every node exactly once. Recovery must not distort a run it
// never acts on.
TEST(CrashRecovery, ArmedButUnfiredPlanStaysExact) {
  const auto truth = workloads::uts_sequential_count(crash_uts_params());
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    const CrashRun r = run_uts_crash(kind, 8, {});
    expect_clean_finish(r, 0);
    EXPECT_EQ(r.report.total.tasks_executed, truth.nodes);
    EXPECT_EQ(r.report.total.tasks_reexecuted, 0u);
    EXPECT_EQ(r.report.total.deaths_witnessed, 0u);
  }
}

// Node-granularity failure through the topology preset: a 2x4 job loses
// one full node (all four of its PEs) at once — the shape the CI smoke
// runs.
TEST(CrashRecovery, NodeFailurePlanKillsWholeNode) {
  const net::Topology topo(net::TopologySpec::two_level(4), 8);
  net::NetworkParams netp = net::NetworkParams::two_level(4);
  netp.faults = net::node_failure_plan(topo, /*node=*/1, /*at_ns=*/300'000);
  for (int pe = 0; pe < 8; ++pe)
    netp.faults.crashes.push_back({pe, kWatchdogNs});
  pgas::RuntimeConfig c;
  c.npes = 8;
  c.heap_bytes = 4 << 20;
  c.seed = base_seed();
  c.net = netp;
  core::TaskRegistry reg;
  pgas::Runtime rt(c);
  workloads::UtsBenchmark uts(reg, crash_uts_params());
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  EXPECT_LT(rt.last_run_duration(), kWatchdogNs);
  EXPECT_EQ(rt.fabric().num_dead(), 4);
  EXPECT_GT(pool.report().total.tasks_executed, 0u);
}

}  // namespace
}  // namespace sws
