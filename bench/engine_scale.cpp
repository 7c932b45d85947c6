// Engine-threads scaling: end-to-end UTS (SWS queue) wall-clock across
// host engine-thread counts. The schedules are byte-identical at every
// thread count (tests/test_determinism_ab.cpp), so the only thing this
// measures is the sequencer machinery: the serial baton (1 thread) vs the
// sharded windowed engine (>= 2 threads), which releases whole lookahead
// windows of private events per wakeup instead of one baton handoff per
// event.
//
// Output: one JSON object per (pes, engine_threads) config on stdout,
// aligned human summary on stderr — scripts/bench_report.py folds the
// JSON into BENCH_*.json.
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

  const auto tree = workloads::uts_sequential_count(p);
  std::cerr << "UTS tree: " << tree.nodes << " nodes, max depth "
            << tree.max_depth << "\n";

  bench::PoolTweaks tweaks;
  tweaks.queue.slot_bytes = 48;
  tweaks.queue.capacity = 16384;
  tweaks.net = bench::net_from_options(opt);
  // Idle-thief pacing. Every failed probe is a globally ordered AMO that
  // pins the concurrent window shut, so at 1024+ PEs the engine sweep is
  // really measuring probe pressure; a longer backoff ceiling keeps the
  // starved PEs from serializing the busy ones.
  tweaks.steal.backoff_max_ns = static_cast<net::Nanos>(
      opt.get("backoff-max-ns",
              static_cast<std::int64_t>(tweaks.steal.backoff_max_ns)));
  tweaks.steal.term_check_interval = static_cast<std::uint32_t>(opt.get(
      "term-check", std::int64_t{tweaks.steal.term_check_interval}));

  // Same sweep syntax as --pes: comma-separated thread counts.
  std::vector<int> thread_counts;
  {
    std::stringstream ss(opt.get("threads", std::string("1,2,4")));
    std::string item;
    while (std::getline(ss, item, ',')) thread_counts.push_back(std::stoi(item));
  }

  for (const int npes : settings.pe_counts) {
    double base_wall = 0;
    for (const int threads : thread_counts) {
      settings.engine_threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      const bench::ConfigResult r = bench::run_config(
          core::QueueKind::kSws, npes, settings, tweaks,
          [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
            auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
            return [uts](core::Worker& w) { uts->seed(w); };
          });
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_s = std::chrono::duration<double>(t1 - t0).count();
      if (threads == thread_counts.front()) base_wall = wall_s;
      std::cout << "{\"bench\":\"uts_e2e\",\"pes\":" << npes
                << ",\"engine_threads\":" << threads
                << ",\"wall_s\":" << wall_s
                << ",\"virtual_ms\":" << r.runtime_ms.mean()
                << ",\"tasks\":" << r.tasks << ",\"steals\":" << r.steals
                << "}\n";
      std::cerr << "  uts_e2e P=" << npes << " T=" << threads << ": "
                << wall_s << " s wall (x"
                << (wall_s > 0 ? base_wall / wall_s : 0)
                << " vs T=" << thread_counts.front() << "), virtual "
                << r.runtime_ms.mean() << " ms\n";
    }
  }
  return 0;
}
