// Ablation: SWS bulk claims under steal storms, two regimes.
//
// (1) Single-victim storm: one owner feeds a fixed batch of tasks through
// release after release while every other PE steals as fast as it can —
// the protocol microbenchmark, maximal contention on one stealval.
// (2) Scheduler storm: an imbalanced UTS tree with microsecond tasks on
// the full pool — the end-to-end regime the paper measures, where every
// PE is both victim and thief and steal granularity sets how much work
// one round trip acquires.
//
// Sweeping `bulk_claim_max` in {1, 2, 4, 8} shows what claiming N
// contiguous steal-half blocks with a single fetch-add buys: fewer fabric
// ops per stolen task (one AMO + one coalesced get + N cheap nbi
// completion adds amortize over N blocks) and higher steal throughput, at
// byte-identical protocol behaviour when the knob is 1.
//
//   ./ablation_bulk [--npes 64] [--tasks 6000] [--task-ns 2000]
//                   [--depth 13] [--reps 3] [--csv]
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

namespace {

struct StormResult {
  Summary drain_ms;           ///< virtual time to drain the batch
  std::uint64_t steals = 0;   ///< successful steal operations
  std::uint64_t stolen = 0;   ///< tasks moved by those steals
  std::uint64_t blocks = 0;   ///< steal-half blocks claimed
  std::uint64_t thief_ops = 0;  ///< thief-side remote fabric ops
  std::uint64_t releases = 0;
  std::uint64_t pressure_releases = 0;
  std::uint64_t full_claims = 0;  ///< whole multi-block allotments claimed

  double steals_per_s() const {
    const double s = drain_ms.sum() / 1e3;
    return s > 0 ? static_cast<double>(steals) / s : 0;
  }
  double tasks_per_s() const {
    const double s = drain_ms.sum() / 1e3;
    return s > 0 ? static_cast<double>(stolen) / s : 0;
  }
  double ops_per_task() const {
    return stolen > 0 ? static_cast<double>(thief_ops) /
                            static_cast<double>(stolen)
                      : 0;
  }
  double mean_claim() const {
    return steals > 0
               ? static_cast<double>(blocks) / static_cast<double>(steals)
               : 0;
  }
};

StormResult run_storm(std::uint32_t bulk, int npes, std::uint32_t tasks,
                      net::Nanos task_ns, int reps, std::uint64_t seed) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = npes;
  rcfg.seed = seed;
  rcfg.heap_bytes = 8 << 20;
  pgas::Runtime rt(rcfg);

  const core::QueueConfig qc{/*capacity=*/8192, /*slot_bytes=*/32};
  core::SwsConfig scfg;
  scfg.bulk_claim_max = bulk;
  auto q = std::make_unique<core::SwsQueue>(rt, qc, scfg);
  // Symmetric drain counter on the owner: thieves fetch-add their haul so
  // everyone observes when the batch is gone. Identical traffic at every
  // bulk setting, so it cancels out of the comparison.
  const pgas::SymPtr counter = rt.heap().alloc(8, 8);

  StormResult out;
  rt.fabric().reset_stats();
  rt.run([&](pgas::PeContext& ctx) {
    for (int rep = 0; rep < reps; ++rep) {
      q->reset_pe(ctx);
      if (ctx.pe() == 0)
        ctx.fabric().amo_set(0, 0, counter.off, 0);
      ctx.barrier();
      const net::Nanos t0 = ctx.now();
      if (ctx.pe() == 0) {
        // Feed the storm in small refills so allotments stay fine-grained
        // (a handful of steal-half blocks each) — the regime where claim
        // granularity, not allotment size, decides throughput. Keep
        // exposing work whenever the shared portion drains, until the
        // counter proves every task escaped.
        constexpr std::uint32_t kRefill = 64;
        std::uint32_t fed = 0;
        while (ctx.local_load(counter) < tasks) {
          q->progress(ctx);
          if (!q->shared_available(ctx)) {
            while (q->local_count(ctx) < kRefill && fed < tasks) {
              if (!q->push_local(ctx, core::Task(0, nullptr, 0))) break;
              ++fed;
            }
            if (q->local_count(ctx) >= 2) {
              (void)q->try_release(ctx);
            } else if (fed == tasks) {
              // Remainder too small to expose: drain it locally so the
              // storm terminates (release requires >= 2 local tasks).
              core::Task leftover;
              std::uint64_t popped = 0;
              while (q->pop_local(ctx, leftover)) ++popped;
              if (popped > 0)
                ctx.fabric().amo_fetch_add(0, 0, counter.off, popped);
            }
          }
          ctx.compute(400);
        }
        out.drain_ms.add(static_cast<double>(ctx.now() - t0) / 1e6);
      } else {
        std::vector<core::Task> loot;
        while (true) {
          loot.clear();
          const core::StealResult r = q->steal(ctx, 0, loot);
          if (r.outcome == core::StealOutcome::kSuccess) {
            // Execute the haul before restealing: the steal's fabric cost
            // amortizes over task work, and a thief busy with a bulk claim
            // leaves the next allotment to its peers.
            ctx.compute(task_ns * r.ntasks);
            ctx.fabric().amo_fetch_add(ctx.pe(), 0, counter.off, r.ntasks);
            continue;
          }
          if (ctx.fabric().amo_fetch(ctx.pe(), 0, counter.off) >= tasks)
            break;
          ctx.compute(r.retry_after_ns > 0 ? r.retry_after_ns : 400);
        }
        ctx.quiet();  // settle completion notifications before the barrier
      }
      ctx.barrier();
    }
  });
  for (int pe = 0; pe < npes; ++pe) {
    const core::QueueOpStats& s = q->op_stats(pe);
    out.steals += s.steals_ok;
    out.stolen += s.tasks_stolen;
    out.blocks += s.blocks_claimed;
    out.releases += s.releases;
    out.pressure_releases += s.pressure_releases;
    out.full_claims += s.full_claims;
    if (pe != 0) out.thief_ops += rt.fabric().stats(pe).remote_ops;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  const int npes =
      static_cast<int>(opt.get("npes", std::int64_t{64}));
  const auto tasks =
      static_cast<std::uint32_t>(opt.get("tasks", std::int64_t{6000}));
  const auto task_ns =
      static_cast<net::Nanos>(opt.get("task-ns", std::int64_t{2000}));
  // The scheduler storm's tree (part 2 below).
  workloads::UtsParams p;
  p.shape = workloads::UtsParams::Shape::kGeometric;
  p.b0 = 4;
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{13}));
  p.root_seed =
      static_cast<std::uint32_t>(opt.get("tree-seed", std::int64_t{19}));
  p.node_compute_ns =
      static_cast<net::Nanos>(opt.get("node-ns", std::int64_t{400}));
  opt.exit_if_unknown();
  const int reps = std::max(settings.reps, 1);

  Table t("Ablation — SWS bulk claims: steal storm, " +
          std::to_string(npes - 1) + " thieves, " + std::to_string(tasks) +
          " tasks/rep");
  t.set_header({"bulk", "drain ms", "steals/s", "tasks/s", "ops/task",
                "bytes/steal", "mean claim", "releases", "pressure rel"});
  double base_tasks_per_s = 0;
  double base_steals_per_s = 0;
  double base_ops_per_task = 0;
  double best_tasks_per_s = 0;
  double best_steals_per_s = 0;
  double best_ops_per_task = 0;
  for (const std::uint32_t bulk : {1u, 2u, 4u, 8u}) {
    const StormResult r =
        run_storm(bulk, npes, tasks, task_ns, reps, settings.seed);
    if (bulk == 1) {
      base_tasks_per_s = r.tasks_per_s();
      base_steals_per_s = r.steals_per_s();
      base_ops_per_task = r.ops_per_task();
    } else {
      best_tasks_per_s = std::max(best_tasks_per_s, r.tasks_per_s());
      best_steals_per_s = std::max(best_steals_per_s, r.steals_per_s());
      best_ops_per_task = best_ops_per_task == 0
                              ? r.ops_per_task()
                              : std::min(best_ops_per_task, r.ops_per_task());
    }
    const double bytes_per_steal =
        r.steals > 0 ? static_cast<double>(r.stolen) * 32.0 /
                           static_cast<double>(r.steals)
                     : 0;
    t.add_row({Table::num(std::int64_t{bulk}),
               Table::num(r.drain_ms.mean(), 2),
               Table::num(r.steals_per_s(), 0),
               Table::num(r.tasks_per_s(), 0),
               Table::num(r.ops_per_task(), 2),
               Table::num(bytes_per_steal, 0),
               Table::num(r.mean_claim(), 2), Table::num(r.releases),
               Table::num(r.pressure_releases)});
    std::cerr << "  [bulk] bulk_claim_max=" << bulk
              << " done (full claims " << r.full_claims << "/" << r.steals
              << " steals)\n";
    // Regression gate for the observed-allotment cap: in this single-victim
    // storm the victim releases small multi-block allotments, so without
    // the cap a warmed-up thief's adaptive claim swallows whole allotments
    // and every other thief serializes behind the owner's renewal cadence.
    // With the cap (claim <= half the last observed allotment), whole-
    // allotment grabs should be a rare cold-start event, not the norm.
    if (bulk >= 4 && r.full_claims * 10 > r.steals) {
      std::cerr << "FAIL: bulk=" << bulk << " storm took " << r.full_claims
                << " whole multi-block allotments across " << r.steals
                << " steals (>10%); the observed-allotment claim cap has "
                   "regressed\n";
      return 1;
    }
  }
  bench::emit(t, settings);
  std::cout << "single-victim storm, best bulk vs N=1: stolen tasks/s x"
            << Table::num(best_tasks_per_s / base_tasks_per_s, 2)
            << " (raw steal ops/s x"
            << Table::num(best_steals_per_s / base_steals_per_s, 2)
            << "), fabric ops per stolen task x"
            << Table::num(best_ops_per_task / base_ops_per_task, 2) << "\n";

  // (2) Scheduler storm: the end-to-end regime. An imbalanced geometric
  // UTS tree with microsecond tasks keeps every PE stealing hard; here a
  // bulk claim's amortization shows up as whole-program throughput.
  bench::PoolTweaks tweaks;
  tweaks.queue.slot_bytes = 48;
  tweaks.queue.capacity = 16384;

  Table t2("Ablation — SWS bulk claims: UTS scheduler storm, " +
           std::to_string(npes) + " PEs, geo depth " +
           std::to_string(p.gen_mx));
  t2.set_header({"bulk", "runtime ms", "tasks/s", "steal ops/s",
                 "stolen tasks/s", "ops/stolen", "bytes/steal",
                 "mean claim"});
  double base2_stolen_per_s = 0, base2_ops_per_stolen = 0;
  double best2_stolen_per_s = 0, best2_ops_per_stolen = 0;
  for (const std::uint32_t bulk : {1u, 2u, 4u, 8u}) {
    tweaks.sws.bulk_claim_max = bulk;
    const bench::ConfigResult r = bench::run_config(
        core::QueueKind::kSws, npes, settings, tweaks,
        [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
          auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
          return [uts](core::Worker& w) { uts->seed(w); };
        });
    const double secs = r.runtime_ms.sum() / 1e3;
    const double steal_ops_per_s =
        secs > 0 ? static_cast<double>(r.steals) / secs : 0;
    const double stolen_per_s =
        secs > 0 ? static_cast<double>(r.tasks_stolen) / secs : 0;
    const double ops_per_stolen =
        r.tasks_stolen > 0 ? static_cast<double>(r.remote_ops) /
                                 static_cast<double>(r.tasks_stolen)
                           : 0;
    const double bytes_per_steal =
        r.steals > 0 ? static_cast<double>(r.bytes_stolen) /
                           static_cast<double>(r.steals)
                     : 0;
    const double mean_claim =
        r.steals > 0 ? static_cast<double>(r.tasks_stolen) /
                           static_cast<double>(r.steals)
                     : 0;
    if (bulk == 1) {
      base2_stolen_per_s = stolen_per_s;
      base2_ops_per_stolen = ops_per_stolen;
    } else {
      best2_stolen_per_s = std::max(best2_stolen_per_s, stolen_per_s);
      best2_ops_per_stolen =
          best2_ops_per_stolen == 0
              ? ops_per_stolen
              : std::min(best2_ops_per_stolen, ops_per_stolen);
    }
    t2.add_row({Table::num(std::int64_t{bulk}),
                Table::num(r.runtime_ms.mean(), 2),
                Table::num(r.throughput.mean(), 0),
                Table::num(steal_ops_per_s, 0), Table::num(stolen_per_s, 0),
                Table::num(ops_per_stolen, 2),
                Table::num(bytes_per_steal, 0),
                Table::num(mean_claim, 2)});
    std::cerr << "  [bulk-uts] bulk_claim_max=" << bulk << " done\n";
  }
  bench::emit(t2, settings);
  std::cout << "bulk claims amortize the fused discover+claim AMO across N "
               "contiguous steal-half blocks: one fetch-add, one coalesced "
               "get, N cheap completion adds.\n";
  if (base2_stolen_per_s > 0 && best2_stolen_per_s > 0)
    std::cout << "UTS storm, best bulk vs N=1: steal throughput (tasks "
                 "acquired/s) x"
              << Table::num(best2_stolen_per_s / base2_stolen_per_s, 2)
              << ", fabric ops per stolen task x"
              << Table::num(best2_ops_per_stolen / base2_ops_per_stolen, 2)
              << "\n";
  return 0;
}
