// Ablation: completion epochs (paper §4.2).
//
// With epochs disabled, every allotment reset (release/acquire) stalls
// until ALL in-flight steals have signalled completion — the paper's
// initial implementation. With two epochs, resets overlap with steal
// completion. The gap shows up as acquire-poll time and, under churn, as
// whole-program time.
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);

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

  Table t("Ablation — SWS completion epochs on/off (UTS)");
  t.set_header({"npes", "runtime_on_ms", "runtime_off_ms", "overhead_pct"});
  for (const int npes : settings.pe_counts) {
    bench::PoolTweaks on, off;
    on.queue.slot_bytes = off.queue.slot_bytes = 48;
    on.sws.epochs = true;
    off.sws.epochs = false;
    const auto r_on =
        bench::run_config(core::QueueKind::kSws, npes, settings, on, factory);
    const auto r_off =
        bench::run_config(core::QueueKind::kSws, npes, settings, off, factory);
    t.add_row({Table::num(std::int64_t{npes}),
               Table::num(r_on.runtime_ms.mean(), 3),
               Table::num(r_off.runtime_ms.mean(), 3),
               Table::num(100.0 * (r_off.runtime_ms.mean() /
                                       r_on.runtime_ms.mean() -
                                   1.0),
                          2)});
    std::cerr << "  [epochs] P=" << npes << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "epochs let the owner reset the split point without waiting "
               "for in-flight steals (paper §4.2).\n";
  return 0;
}
