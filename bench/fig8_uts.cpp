// Figure 8 (a–f): the Unbalanced Tree Search benchmark across the PE
// sweep, SDC vs SWS. UTS's huge population of microsecond-scale tasks is
// the regime where steal latency matters most — the paper reports ~9%
// whole-program improvement and 3–4x lower steal times for SWS here.
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const auto settings = bench::BenchSettings::from_options(opt);

  workloads::UtsParams p;
  p.shape = opt.get("shape", std::string("geo")) == "bin"
                ? workloads::UtsParams::Shape::kBinomial
                : workloads::UtsParams::Shape::kGeometric;
  p.b0 = static_cast<std::uint32_t>(opt.get("b0", std::int64_t{4}));
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{15}));
  p.root_seed =
      static_cast<std::uint32_t>(opt.get("tree-seed", std::int64_t{19}));
  p.node_compute_ns =
      static_cast<net::Nanos>(opt.get("node-ns", std::int64_t{400}));

  bench::PoolTweaks tweaks;
  tweaks.queue.slot_bytes = 48;
  tweaks.queue.capacity = 16384;
  // --topo '*x48' reproduces the paper's 48-core-node cluster shape;
  // --topo 44x48 additionally bounds the node count.
  tweaks.net = bench::net_from_options(opt);
  opt.exit_if_unknown();

  const auto tree = workloads::uts_sequential_count(p);
  std::cerr << "UTS tree: " << tree.nodes << " nodes, max depth "
            << tree.max_depth << "\n";

  bench::run_six_panels(
      "Fig 8", "UTS", settings, tweaks,
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
        auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
        return [uts](core::Worker& w) { uts->seed(w); };
      });
  return 0;
}
