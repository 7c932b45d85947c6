// The task-pool scheduler (paper §2.1): per-PE LIFO processing over a
// split queue, release/acquire split management, random-victim steal-half
// work stealing, and distributed termination detection.
//
// Usage (SPMD):
//   TaskRegistry reg;                       // register task functions
//   TaskPool pool(runtime, reg, cfg);       // allocates symmetric state
//   runtime.run([&](PeContext& ctx) {
//     pool.run_pe(ctx, [&](Worker& w) {     // seed on whichever PEs
//       if (w.pe() == 0) w.spawn(Task::of(fn, Args{...}));
//     });
//   });
//   PoolRunReport r = pool.report();
//
// The pool may be re-run; all queue/termination state resets per run.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>

#include "core/inbox.hpp"
#include "core/pool_stats.hpp"
#include "core/queue.hpp"
#include "core/recovery.hpp"
#include "core/sdc_queue.hpp"
#include "core/sws_queue.hpp"
#include "core/task_registry.hpp"
#include "core/termination.hpp"
#include "core/trace.hpp"
#include "core/victim.hpp"
#include "obs/timeseries.hpp"

namespace sws::core {

/// Steal-search pacing. Failed searches back off exponentially (x2 per
/// failed round) with +-25% jitter, which decorrelates thief convoys under
/// faulty or contended fabrics; kRetry outcomes first get four fast
/// retries paced by the queue's own StealResult::retry_after_ns hint.
struct StealTuning {
  net::Nanos backoff_min_ns = 1000;   ///< first (and post-success) pause
  net::Nanos backoff_max_ns = 64'000; ///< exponential growth cap
};

/// Scheduler event tracing (off by default). Each steal, release and
/// acquire attempt is one span whose end event carries its result (see
/// TraceKind); task executions, spawns, inbox drains and termination
/// checks are instants; queue depth and in-flight nbi ops are counter
/// tracks. Tracing reads clocks but never advances them, so traced runs
/// stay byte-identical to untraced ones.
struct TraceConfig {
  bool enable = false;
  std::size_t events = 4096;  ///< per-PE trace ring size
  /// Windowed time-series sampling interval (virtual ns; 0 = off). When
  /// set, the pool installs a net::SampleHook on the runtime's time model
  /// and snapshots cumulative pool/fabric/accounting state every interval.
  /// Sampling is observation-only: sampled runs stay byte-identical to
  /// unsampled ones (tests/test_determinism_ab.cpp). Independent of
  /// `enable` — a run can sample without event tracing; with both on, the
  /// trace dump gains one Perfetto counter track per sampled series.
  net::Nanos sample_interval_ns = 0;
};

struct PoolConfig {
  QueueKind kind = QueueKind::kSws;
  QueueConfig queue{};              ///< ring geometry, shared by both kinds
  SwsConfig sws{};                  ///< SWS protocol knobs
  SdcConfig sdc{};                  ///< SDC protocol knobs
  /// Victim-selection policy. Locality-aware policies read the machine
  /// shape from the runtime's NetworkParams::topology — the single
  /// source of truth; there is no separate node size to agree with.
  VictimConfig victim{};
  StealTuning steal{};
  TraceConfig trace{};
};

class TaskPool;

/// Per-PE execution handle; task bodies receive it to spawn subtasks and
/// charge compute time.
class Worker {
 public:
  /// `stats` is the pool's per-PE record; the worker accumulates into it.
  Worker(TaskPool& pool, pgas::PeContext& ctx, WorkerStats& stats);

  int pe() const noexcept { return ctx_.pe(); }
  int npes() const noexcept { return ctx_.npes(); }
  pgas::PeContext& ctx() noexcept { return ctx_; }

  /// Add a task to this PE's queue (counts toward termination detection).
  /// Falls back to inline execution if the ring is full.
  void spawn(const Task& t);

  /// Spawn onto another PE's queue via its symmetric inbox (paper §3:
  /// possible "although with more overhead due to communication"). The
  /// whole batch reserves a run of inbox slots with one CAS, ships its
  /// payloads in one vectorized put and publishes with a single completion
  /// tag. Whatever the target inbox cannot take after bounded retries runs
  /// here instead.
  void spawn_on(int target, std::span<const Task> tasks);
  void spawn_on(int target, const Task& t) { spawn_on(target, {&t, 1}); }

  /// Charge task computation time, in virtual ns.
  void compute(net::Nanos dt);

 private:
  friend class TaskPool;
  void execute(const Task& t);
  /// Push `t` onto this PE's local half, or run it here when the ring is
  /// full even after reclaim.
  void push_or_run(const Task& t, bool warn_if_full = false);

  TaskPool& pool_;
  pgas::PeContext& ctx_;
  WorkerStats& stats_;
};

class TaskPool {
 public:
  /// Allocates all symmetric state; construct before Runtime::run. With
  /// tracing enabled the pool also installs itself as the fabric's op
  /// observer, so every fabric op issued inside a steal/release/acquire
  /// span lands in the trace as a child event.
  TaskPool(pgas::Runtime& rt, TaskRegistry& registry, PoolConfig cfg);
  ~TaskPool();

  /// SPMD entry point: call once per PE inside Runtime::run. `seed` runs
  /// after the collective reset (spawn initial tasks from any PE); the
  /// processing loop then runs to global termination. The PE's statistics
  /// stay in the pool: read them with worker_stats() or report() after
  /// the run. A planned crash (net::PeKilled) finalizes this PE's record
  /// at its death time before it propagates.
  void run_pe(pgas::PeContext& ctx, const std::function<void(Worker&)>& seed);

  /// Aggregated statistics of the last completed run, crashed PEs'
  /// pre-crash work included.
  PoolRunReport report() const;
  const WorkerStats& worker_stats(int pe) const;

  /// Replace the termination detector (e.g. the checking harness wrapping
  /// the real detector with a ground-truth cross-check). Must not be
  /// called between run_pe entry and exit.
  void set_detector(std::unique_ptr<TerminationDetector> d) {
    term_ = std::move(d);
  }
  /// Disabled (records nothing) unless PoolConfig::trace is set.
  Tracer& tracer() noexcept { return tracer_; }
  /// Chrome trace-event JSON of the last run, stamped with run metadata
  /// (protocol, npes, slot_bytes) so sws-analyze can validate protocol op
  /// signatures without side channels. With sampling enabled the dump also
  /// carries one counter track per sampled series.
  void dump_trace_json(std::ostream& os) const;
  /// Compact "sws-timeseries" JSON of the sampled windows (final partial
  /// window included). Requires sampling; no-ops (empty object) otherwise.
  void dump_timeseries_json(std::ostream& os) const;
  /// Publish the last run's per-PE worker and queue statistics into `reg`
  /// under the pool.* / queue.* namespaces (docs/observability.md).
  /// Overwrites previously published values.
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  friend class Worker;

  /// One PE's record: its WorkerStats plus the open-phase bookkeeping of
  /// the PoolPhase taxonomy. Owner-written by the PE's fiber (the Worker
  /// accumulates into `stats`; `stats.phase_ns` holds the closed phases);
  /// the sampling hook reads it while every PE fiber is parked. Reset at
  /// run_pe entry; after the PE leaves run_pe — by termination or by a
  /// planned crash — it holds that PE's final stats.
  struct PeSlot {
    WorkerStats stats;
    net::Nanos base = 0;   ///< run_pe entry time
    net::Nanos start = 0;  ///< processing-loop start (run_time_ns origin)
    net::Nanos mark = 0;   ///< start of the open phase
    net::Nanos end = 0;    ///< teardown or death time (valid once !active)
    PoolPhase cur = PoolPhase::kWorking;
    bool active = false;
  };

  /// run_pe's body, from the collective reset through teardown.
  void run_loop(pgas::PeContext& ctx, const std::function<void(Worker&)>& seed,
                PeSlot& ps);
  /// Close `ps`'s open phase at `now` and freeze its accounting.
  static void close_slot(PeSlot& ps, net::Nanos now);

  /// Register the sampled series on timeseries_ (ctor helper).
  void setup_timeseries();
  /// Capture the final partial window at the clocks' max (idempotent).
  void finalize_timeseries() const;

  /// Drain the inbox into the local queue; returns tasks moved.
  std::uint32_t drain_inbox(Worker& w);
  /// Crash mode: pull tasks the queue fenced off dead thieves' claims and
  /// re-publish them locally (already counted created — no recount).
  std::uint32_t drain_recovered(Worker& w);

  pgas::Runtime& rt_;
  TaskRegistry& registry_;
  PoolConfig cfg_;
  std::unique_ptr<TaskQueue> queue_;
  std::unique_ptr<TerminationDetector> term_;
  std::unique_ptr<TaskInbox> inbox_;
  std::unique_ptr<DeathRegistry> recovery_;  ///< crash-mode runs only
  Tracer tracer_;
  std::unique_ptr<obs::TimeSeries> timeseries_;  ///< sampling runs only
  std::vector<PeSlot> slots_;
};

}  // namespace sws::core
