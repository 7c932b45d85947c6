// Shared benchmark harness: builds (runtime, registry, pool) per
// configuration, runs repetitions with distinct seeds, and aggregates the
// quantities the paper's figures plot.
//
// Every bench binary accepts:
//   --pes 2,4,8,16,32,64   PE sweep
//   --reps 5               repetitions per configuration
//   --csv                  emit CSV instead of aligned tables
//   --seed 42              base seed
//   --trace-out PREFIX     per config, dump the last repetition's Chrome
//                          trace JSON to PREFIX.<kind>.p<npes>.json
//   --metrics-out PREFIX   per config, write the metrics snapshot merged
//                          across reps to PREFIX.<kind>.p<npes>.json
//   --timeseries-out PREFIX  per config, dump the last repetition's windowed
//                          sws-timeseries JSON to PREFIX.<kind>.p<npes>.json
//   --sample-interval-ns N windowed sampling cadence (default 10000 when
//                          --timeseries-out is given; sampling never
//                          perturbs virtual-time schedules)
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sws.hpp"

namespace sws::bench {

/// Given a registry, register the workload's task functions and return the
/// per-PE seeder. Captured state must stay alive in the closure.
using SeederFactory =
    std::function<std::function<void(core::Worker&)>(core::TaskRegistry&)>;

struct BenchSettings {
  std::vector<int> pe_counts{2, 4, 8, 16, 32, 64};
  int reps = 5;
  bool csv = false;
  std::uint64_t seed = 42;
  /// --trace-out: filename prefix for per-config Chrome trace dumps
  /// ("" = tracing off). Tracing never perturbs virtual-time schedules
  /// (tests/test_determinism_ab.cpp), so traced runs measure real runs.
  std::string trace_out;
  /// --metrics-out: filename prefix for per-config metrics JSON.
  std::string metrics_out;
  /// --timeseries-out: filename prefix for per-config windowed time-series
  /// JSON ("" = sampling off). Like tracing, sampling is observation-only.
  std::string timeseries_out;
  /// --sample-interval-ns: virtual-time sampling cadence; 0 picks the
  /// default (10 µs) when --timeseries-out is set.
  net::Nanos sample_interval_ns = 0;

  static BenchSettings from_options(const Options& opt);
};

/// One configuration's aggregation over repetitions.
struct ConfigResult {
  Summary runtime_ms;        ///< whole-program time (max across PEs)
  Summary throughput;        ///< tasks per second
  Summary steal_ms_per_pe;   ///< mean per-PE successful-steal time
  Summary search_ms_per_pe;  ///< mean per-PE search time
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t tasks_stolen = 0;  ///< tasks moved by successful steals
  std::uint64_t bytes_stolen = 0;  ///< payload bytes those tasks carried
  std::uint64_t remote_ops = 0;    ///< all fabric ops, every PE, all reps
  std::uint64_t switches = 0;  ///< sequencer switches of the last rep
  // Crash-recovery accounting, summed over reps (zero without a crash plan).
  std::uint64_t reexec_tasks = 0;    ///< fenced from dead claims and re-run
  std::uint64_t rerouted_tasks = 0;  ///< inbox pushes re-homed off dead PEs
  std::uint64_t deaths = 0;          ///< planned crashes that fired
  net::Nanos total_compute_ns = 0;  ///< charged compute (for efficiency)
  LogHistogram steal_latency;       ///< per-steal latency across all reps

  double efficiency_pct(int npes) const {
    if (runtime_ms.mean() <= 0) return 0;
    const double ideal_ms =
        static_cast<double>(total_compute_ns) / npes / 1e6;
    return 100.0 * ideal_ms / runtime_ms.mean();
  }
};

struct PoolTweaks {
  core::QueueConfig queue{};
  core::SwsConfig sws{};
  net::NetworkParams net{};
};

/// Drop the requested PE counts a bench cannot run, naming each on stderr
/// with its reason: `why_not(npes)` returns the reason, or "" when `npes`
/// can run. Exits 2 when none is left. Call before any work runs.
void keep_runnable_pes(BenchSettings& settings, const std::string& bench,
                       const std::function<std::string(int)>& why_not);

/// Topology option shared by every bench binary:
///   --topo SPEC        N-tier shape, outermost-first (e.g. "2x4x48", or
///                      "*x48" for unbounded nodes of 48 PEs); links
///                      derived geometrically (NetworkParams::tiered)
/// Absent = the flat single-tier fabric.
net::NetworkParams net_from_options(const Options& opt);

/// Run `reps` independent executions of a workload on `npes` PEs with the
/// given queue kind; aggregate the figures-of-merit.
ConfigResult run_config(core::QueueKind kind, int npes,
                        const BenchSettings& settings,
                        const PoolTweaks& tweaks,
                        const SeederFactory& factory);

/// Emit a table in the format selected by the settings.
void emit(const Table& t, const BenchSettings& settings);

const char* kind_name(core::QueueKind k);

/// The paper's six evaluation panels for one workload (Figs 7a–f / 8a–f).
void run_six_panels(const std::string& figure, const std::string& workload,
                    const BenchSettings& settings, const PoolTweaks& tweaks,
                    const SeederFactory& factory);

}  // namespace sws::bench
