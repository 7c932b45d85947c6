// Ablation: protocol robustness under an adverse fabric.
//
// The paper evaluates both steal protocols on a healthy InfiniBand
// cluster; this ablation asks how each degrades when the fabric is not
// healthy. A seeded FaultPlan drops and duplicates non-blocking ops and
// spikes blocking latencies at increasing rates; we report each
// protocol's runtime inflation relative to its own faults-off baseline.
//
// Expectation: SDC's steal path holds the victim's lock across three
// blocking round trips, so a latency spike inside the critical section
// stalls every other thief — its inflation grows faster than SWS's,
// whose single fetch-add claim window is an order of magnitude shorter.
#include <iostream>

#include "bench_common.hpp"

using namespace sws;

namespace {

net::FaultPlan plan_at(double rate) {
  net::FaultPlan f;
  f.drop_rate = rate;
  f.dup_rate = rate;
  f.spike_rate = rate;
  return f;
}

/// `s` with `tag` (".rate0.02", ".crash2") appended to every output
/// prefix, so each sweep row writes its own trace, metrics and time-series
/// files instead of overwriting the previous row's.
bench::BenchSettings row_settings(bench::BenchSettings s,
                                  const std::string& tag) {
  for (std::string* prefix : {&s.trace_out, &s.metrics_out, &s.timeseries_out})
    if (!prefix->empty()) *prefix += tag;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  const int npes =
      static_cast<int>(opt.get("npes", std::int64_t{16}));

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{12}));
  opt.exit_if_unknown();
  p.node_compute_ns = 200;

  const auto factory =
      [p](core::TaskRegistry& reg) -> std::function<void(core::Worker&)> {
    auto uts = std::make_shared<workloads::UtsBenchmark>(reg, p);
    return [uts](core::Worker& w) { uts->seed(w); };
  };

  const double rates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

  double base_sdc = 0, base_sws = 0;
  Table t("Ablation — fault injection sweep (UTS, P=" + std::to_string(npes) +
          "; drop = dup = spike rate)");
  t.set_header({"fault_rate", "SDC_ms", "SDC_inflation_pct", "SWS_ms",
                "SWS_inflation_pct", "SWS_speedup_pct"});
  for (const double rate : rates) {
    bench::PoolTweaks tweaks;
    tweaks.queue.slot_bytes = 48;
    tweaks.net.faults = plan_at(rate);
    const auto s2 = row_settings(settings, ".rate" + Table::num(rate, 2));
    const auto sdc =
        bench::run_config(core::QueueKind::kSdc, npes, s2, tweaks, factory);
    const auto sws =
        bench::run_config(core::QueueKind::kSws, npes, s2, tweaks, factory);
    if (rate == 0.0) {
      base_sdc = sdc.runtime_ms.mean();
      base_sws = sws.runtime_ms.mean();
    }
    t.add_row(
        {Table::num(rate, 2), Table::num(sdc.runtime_ms.mean(), 3),
         Table::num(100.0 * (sdc.runtime_ms.mean() / base_sdc - 1.0), 1),
         Table::num(sws.runtime_ms.mean(), 3),
         Table::num(100.0 * (sws.runtime_ms.mean() / base_sws - 1.0), 1),
         Table::num(
             100.0 * (sdc.runtime_ms.mean() / sws.runtime_ms.mean() - 1.0),
             1)});
    std::cerr << "  [faults] rate=" << rate << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "inflation is each protocol's slowdown vs its own clean run; "
               "the gap between the two columns is the cost of holding a "
               "lock across a faulty fabric's round trips.\n";

  // ---- crash-stop sweep --------------------------------------------------
  // Kill 0..3 PEs outright mid-run (docs/resilience.md) and report each
  // protocol's completion-time degradation against its own crash-free
  // baseline plus how many fenced tasks had to be re-executed. Dead PEs'
  // private subtrees are truncated by design, so runtimes can also shrink
  // at high kill counts — the interesting signal is that every run
  // completes and how much re-execution the recovery sweep causes.
  const int max_crash = std::min(3, npes - 1);
  double cbase_sdc = 0, cbase_sws = 0;
  Table ct("Ablation — crash-stop sweep (UTS, P=" + std::to_string(npes) +
           "; k PEs killed mid-run)");
  ct.set_header({"crashed_pes", "SDC_ms", "SDC_degradation_pct", "SDC_reexec",
                 "SWS_ms", "SWS_degradation_pct", "SWS_reexec"});
  for (int k = 0; k <= max_crash; ++k) {
    bench::PoolTweaks tweaks;
    tweaks.queue.slot_bytes = 48;
    for (int i = 0; i < k; ++i)
      tweaks.net.faults.crashes.push_back(
          {(i + 1) * npes / (k + 1), 150'000 + i * net::Nanos{120'000}});
    const auto s2 = row_settings(settings, ".crash" + std::to_string(k));
    const auto sdc =
        bench::run_config(core::QueueKind::kSdc, npes, s2, tweaks, factory);
    const auto sws =
        bench::run_config(core::QueueKind::kSws, npes, s2, tweaks, factory);
    if (k == 0) {
      cbase_sdc = sdc.runtime_ms.mean();
      cbase_sws = sws.runtime_ms.mean();
    }
    ct.add_row(
        {std::to_string(k), Table::num(sdc.runtime_ms.mean(), 3),
         Table::num(100.0 * (sdc.runtime_ms.mean() / cbase_sdc - 1.0), 1),
         std::to_string(sdc.reexec_tasks), Table::num(sws.runtime_ms.mean(), 3),
         Table::num(100.0 * (sws.runtime_ms.mean() / cbase_sws - 1.0), 1),
         std::to_string(sws.reexec_tasks)});
    std::cerr << "  [faults] crashes=" << k << " done\n";
  }
  bench::emit(ct, settings);
  std::cout << "reexec counts sum over reps; a crash-free run re-executes "
               "nothing, and survivors absorb each dead PE's fenced claims "
               "within one detection lease.\n";
  return 0;
}
