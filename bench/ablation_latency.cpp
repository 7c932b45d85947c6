// Ablation: network latency sweep.
//
// SWS's advantage is round trips saved per steal, so it should grow with
// network latency and vanish as the fabric gets infinitely fast. This
// sweep scales all remote latencies and tracks the SDC/SWS runtime ratio —
// the design-space view behind the paper's single-fabric evaluation.
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  const int npes = static_cast<int>(opt.get("npes", std::int64_t{16}));

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{11}));
  opt.exit_if_unknown();
  p.node_compute_ns = 110;

  const auto factory =
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
    auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
    return [uts](core::Worker& w) { uts->seed(w); };
  };

  const double scales[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

  Table t("Ablation — fabric latency sweep (UTS, P=" + std::to_string(npes) +
          ")");
  t.set_header({"latency_scale", "rtt_us", "SDC_ms", "SWS_ms",
                "SWS_speedup_pct"});
  for (const double scale : scales) {
    bench::PoolTweaks tweaks;
    tweaks.queue.slot_bytes = 48;
    tweaks.net = net::NetworkParams{}.scaled(scale);
    const auto sdc = bench::run_config(core::QueueKind::kSdc, npes, settings,
                                       tweaks, factory);
    const auto sws = bench::run_config(core::QueueKind::kSws, npes, settings,
                                       tweaks, factory);
    t.add_row({Table::num(scale, 2),
               Table::num(
                   static_cast<double>(tweaks.net.link(1).amo_latency) / 1e3,
                   2),
               Table::num(sdc.runtime_ms.mean(), 3),
               Table::num(sws.runtime_ms.mean(), 3),
               Table::num(100.0 * (sdc.runtime_ms.mean() /
                                       sws.runtime_ms.mean() -
                                   1.0),
                          2)});
    std::cerr << "  [latency] scale=" << scale << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "expectation: SWS's edge grows with per-op latency (it saves "
               "round trips) and shrinks on faster fabrics.\n";
  return 0;
}
