// Figure 7 (a–f): the Bouncing Producer-Consumer benchmark across the PE
// sweep, SDC vs SWS — throughput, relative runtime, parallel efficiency,
// run variation, steal time, and search time.
//
// Scaled from the paper's configuration (depth 500, n=8192, 5 ms/1 ms) to
// the simulated platform; task durations are charged in virtual time so
// the coarse-grained character (compute-dominated) is preserved.
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const auto settings = bench::BenchSettings::from_options(opt);

  workloads::BpcParams p;
  p.consumers_per_producer =
      static_cast<std::uint32_t>(opt.get("n", std::int64_t{256}));
  p.depth = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{40}));
  p.consumer_ns =
      static_cast<net::Nanos>(opt.get("consumer-us", std::int64_t{5000})) *
      1000;
  p.producer_ns =
      static_cast<net::Nanos>(opt.get("producer-us", std::int64_t{1000})) *
      1000;

  bench::PoolTweaks tweaks;
  tweaks.queue.slot_bytes = 32;
  tweaks.queue.capacity = 16384;
  // --topo '*x48' reproduces the paper's 48-core-node cluster shape;
  // --topo 44x48 additionally bounds the node count.
  tweaks.net = bench::net_from_options(opt);
  opt.exit_if_unknown();

  bench::run_six_panels(
      "Fig 7", "BPC", settings, tweaks,
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
        auto bpc = std::make_shared<workloads::BpcBenchmark>(reg, p);
        return [bpc](core::Worker& w) { bpc->seed(w); };
      });
  return 0;
}
