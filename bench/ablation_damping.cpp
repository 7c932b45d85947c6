// Ablation: steal damping (paper §4.3).
//
// A sparse endgame — a handful of busy PEs among many idle thieves — makes
// every idle PE hammer empty queues. Damping switches exhausted targets to
// read-only probes, which (a) bounds asteals growth (the 24-bit overflow
// protection) and (b) should cost nothing in runtime (the paper found no
// significant penalty).
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);

  workloads::SparseEndgameParams p;
  p.busy_pes = 2;
  p.tasks_per_busy =
      static_cast<std::uint64_t>(opt.get("tasks", std::int64_t{96}));
  opt.exit_if_unknown();
  p.task_ns = 250'000;
  const int busy = static_cast<int>(p.busy_pes);
  bench::keep_runnable_pes(
      settings, "ablation_damping", [busy](int npes) -> std::string {
        if (npes > busy) return "";
        return "needs idle thieves beside the " + std::to_string(busy) +
               " busy PEs";
      });

  const auto factory =
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
    auto se = std::make_shared<workloads::SparseEndgame>(reg, p);
    return [se](core::Worker& w) { se->seed(w); };
  };

  Table t("Ablation — SWS steal damping on/off (sparse endgame)");
  t.set_header({"npes", "runtime_on_ms", "runtime_off_ms", "penalty_pct",
                "probes_on"});
  for (const int npes : settings.pe_counts) {
    bench::PoolTweaks on, off;
    on.queue.slot_bytes = off.queue.slot_bytes = 32;
    on.sws.damping = true;
    off.sws.damping = false;
    const auto r_on =
        bench::run_config(core::QueueKind::kSws, npes, settings, on, factory);
    const auto r_off =
        bench::run_config(core::QueueKind::kSws, npes, settings, off, factory);
    t.add_row({Table::num(std::int64_t{npes}),
               Table::num(r_on.runtime_ms.mean(), 3),
               Table::num(r_off.runtime_ms.mean(), 3),
               Table::num(100.0 * (r_on.runtime_ms.mean() /
                                       r_off.runtime_ms.mean() -
                                   1.0),
                          2),
               Table::num(r_on.steal_attempts)});
    std::cerr << "  [damping] P=" << npes << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "paper §4.3: damping bounds asteals overflow with no "
               "significant performance penalty.\n";
  return 0;
}
