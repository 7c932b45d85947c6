// Engine scaling: end-to-end UTS (SWS queue) wall-clock across PE counts
// on the fiber sequencer. Virtual-time results are deterministic, so the
// wall clock prices the simulator itself: sequencer handoffs, fabric ops,
// the scheduler loop and the SHA-1 task bodies.
//
// Output: one JSON object per PE count on stdout,
// aligned human summary on stderr — scripts/bench_report.py folds the
// JSON into BENCH_*.json. Each row's peak_rss_mib is the process's peak
// RSS so far: process-wide and monotone, so with ascending --pes each row
// reports the peak of its own PE count. `switches` is the last rep's
// runtime.sequencer_switches (deterministic for a seed) and
// `switches_per_task` that over its tasks: the host events the sequencer
// spends per simulated task.
#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  if (opt.get("pes", std::string("")).empty()) settings.pe_counts = {256, 1024};

  workloads::UtsParams p;
  p.shape = opt.get("shape", std::string("geo")) == "bin"
                ? workloads::UtsParams::Shape::kBinomial
                : workloads::UtsParams::Shape::kGeometric;
  p.b0 = static_cast<std::uint32_t>(opt.get("b0", std::int64_t{4}));
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{15}));
  p.bin_q = opt.get("bin-q", p.bin_q);
  p.bin_m = static_cast<std::uint32_t>(
      opt.get("bin-m", std::int64_t{p.bin_m}));
  const std::string gs = opt.get("geo-shape", std::string("linear"));
  p.geo_shape = gs == "fixed"    ? workloads::UtsParams::GeoShape::kFixed
                : gs == "expdec" ? workloads::UtsParams::GeoShape::kExpDec
                : gs == "cyclic" ? workloads::UtsParams::GeoShape::kCyclic
                                 : workloads::UtsParams::GeoShape::kLinear;
  p.root_seed =
      static_cast<std::uint32_t>(opt.get("tree-seed", std::int64_t{19}));
  p.node_compute_ns =
      static_cast<net::Nanos>(opt.get("node-ns", std::int64_t{400}));

  bench::PoolTweaks tweaks;
  tweaks.queue.slot_bytes = 48;
  tweaks.queue.capacity = 16384;
  tweaks.net = bench::net_from_options(opt);
  opt.exit_if_unknown();

  const auto tree = workloads::uts_sequential_count(p);
  std::cerr << "UTS tree: " << tree.nodes << " nodes, max depth "
            << tree.max_depth << "\n";

  for (const int npes : settings.pe_counts) {
    const auto t0 = std::chrono::steady_clock::now();
    const bench::ConfigResult r = bench::run_config(
        core::QueueKind::kSws, npes, settings, tweaks,
        [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
          auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
          return [uts](core::Worker& w) { uts->seed(w); };
        });
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::cout << "{\"bench\":\"uts_e2e\",\"pes\":" << npes
              << ",\"wall_s\":" << wall_s
              << ",\"virtual_ms\":" << r.runtime_ms.mean()
              << ",\"tasks\":" << r.tasks << ",\"steals\":" << r.steals
              << ",\"switches\":" << r.switches << ",\"switches_per_task\":"
              << static_cast<double>(r.switches) /
                     static_cast<double>(r.tasks > 0 ? r.tasks : 1)
              << ",\"peak_rss_mib\":" << peak_rss_mib << "}\n";
    std::cerr << "  uts_e2e P=" << npes << ": " << wall_s
              << " s wall, virtual " << r.runtime_ms.mean() << " ms, "
              << r.switches << " switches, peak RSS " << peak_rss_mib
              << " MiB\n";
  }
  return 0;
}
