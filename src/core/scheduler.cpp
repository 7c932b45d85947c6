#include "core/scheduler.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace sws::core {

namespace {

// Steal-search pacing (StealTuning describes the scheme).
constexpr double kBackoffJitter = 0.25;       ///< pause scaled by 1 ± this
constexpr std::uint32_t kFastRetries = 4;     ///< hint-paced kRetry attempts
constexpr std::uint32_t kTermCheckEvery = 4;  ///< failed attempts per poll
/// Local tasks needed before release exposes work to thieves.
constexpr std::uint32_t kReleaseThreshold = 2;

/// Args of a span's end event, derived from the spanned op's result.
struct SpanEnd {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

}  // namespace

// ----------------------------------------------------------------- worker

Worker::Worker(TaskPool& pool, pgas::PeContext& ctx, WorkerStats& stats)
    : pool_(pool), ctx_(ctx), stats_(stats) {}

void Worker::spawn(const Task& t) {
  pool_.term_->count_created(ctx_, 1);
  ++stats_.tasks_spawned;
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kSpawn);
  push_or_run(t, /*warn_if_full=*/true);
}

void Worker::push_or_run(const Task& t, bool warn_if_full) {
  if (pool_.queue_->push_local(ctx_, t)) return;
  // Ring full even after reclaim: run the task inline. Depth-first
  // execution keeps this bounded; it only triggers on under-sized queues.
  if (warn_if_full)
    SWS_WARN("PE " << ctx_.pe() << ": task ring full, executing inline");
  execute(t);
}

void Worker::spawn_on(int target, std::span<const Task> tasks) {
  if (tasks.empty()) return;
  if (target == pe() ||
      (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target))) {
    // Self-target, or a target we know is dead: spawn here.
    // Tasks are location-independent, so local execution is always legal.
    for (const Task& t : tasks) spawn(t);
    return;
  }
  pool_.term_->count_created(ctx_, tasks.size());
  stats_.tasks_spawned += tasks.size();
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kSpawnRemote,
                         static_cast<std::uint64_t>(target), tasks.size());
  // Flush the created-delta BEFORE any task escapes to another PE. Once
  // a push lands, the target can execute the task and flush its
  // completion while our +n still sits in the local delta — the global
  // counter then transiently reads zero with this task's *parent* still
  // running, and a termination check in that window ends the run early.
  // (Local spawns are safe without this: the executing parent's own
  // completion is unflushed until after its spawns, anchoring the counter
  // above zero.)
  pool_.term_->task_boundary(ctx_);
  // Bounded retries against a full inbox, then run the remainder here —
  // every task must execute somewhere, and local execution is always
  // legal under the Scioto model (tasks are location-independent).
  std::size_t done = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    done += pool_.inbox_->remote_push(ctx_, target, tasks.subspan(done));
    if (done == tasks.size()) return;
    if (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target)) {
      // The push failed because the target died (poisoned inbox cursor,
      // noted by remote_push). Run the rest here instead.
      for (const Task& t : tasks.subspan(done)) execute(t);
      return;
    }
    ctx_.compute(pool_.cfg_.steal.backoff_min_ns);
  }
  SWS_WARN("PE " << pe() << ": inbox of PE " << target
                 << " stayed full; executing tasks locally");
  for (const Task& t : tasks.subspan(done)) execute(t);
}

void Worker::compute(net::Nanos dt) {
  stats_.compute_time_ns += dt;
  ctx_.compute(dt);
}

void Worker::execute(const Task& t) {
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kTaskExec, t.fn());
  pool_.registry_.fn(t.fn())(*this, t.payload());
  ++stats_.tasks_executed;
  pool_.term_->count_completed(ctx_, 1);
  // Flush policy: never sit on a positive (created-heavy) delta — the
  // counter detector's safety invariant.
  pool_.term_->task_boundary(ctx_);
}

// ------------------------------------------------------------------- pool

TaskPool::TaskPool(pgas::Runtime& rt, TaskRegistry& registry, PoolConfig cfg)
    : rt_(rt),
      registry_(registry),
      cfg_(cfg),
      slots_(static_cast<std::size_t>(rt.npes())) {
  switch (cfg_.kind) {
    case QueueKind::kSws:
      queue_ = std::make_unique<SwsQueue>(rt, cfg_.queue, cfg_.sws);
      break;
    case QueueKind::kSdc:
      queue_ = std::make_unique<SdcQueue>(rt, cfg_.queue, cfg_.sdc);
      break;
  }
  term_ = std::make_unique<CounterTermination>(rt);
  inbox_ = std::make_unique<TaskInbox>(rt, cfg_.inbox_capacity,
                                       cfg_.queue.slot_bytes);
  if (rt.fabric().crashes_planned()) {
    // Crash mode: wire every layer to the shared death registry and swap
    // the termination protocol for the crash-tolerant idle-wave consensus
    // (the counter hangs once a PE dies). None of this exists in a
    // crash-free pool — those runs stay byte-identical to older builds.
    recovery_ = std::make_unique<DeathRegistry>();
    recovery_->init(rt, RecoveryConfig{});
    queue_->attach_recovery(recovery_.get());
    inbox_->attach_recovery(recovery_.get());
    term_ = std::make_unique<ResilientTermination>(rt, std::move(term_),
                                                   recovery_.get());
  }
  if (cfg_.trace.enable) {
    tracer_ = Tracer(rt.npes(), cfg_.trace.events);
    // Every fabric op issued under a nonzero span becomes a child event
    // of that span. The callback runs in the initiating PE's fiber and
    // writes only that PE's trace ring, so it cannot perturb the schedule
    // (it never touches a clock).
    rt_.fabric().set_op_observer([this](const net::OpRecord& r) {
      tracer_.complete(
          r.initiator, r.begin, r.dur, TraceKind::kFabricOp, r.span,
          static_cast<std::uint64_t>(r.kind),
          static_cast<std::uint64_t>(static_cast<unsigned>(r.target)) |
              (static_cast<std::uint64_t>(r.bytes) << 16));
    });
  }
  if (cfg_.trace.sample_interval_ns > 0) {
    timeseries_ =
        std::make_unique<obs::TimeSeries>(cfg_.trace.sample_interval_ns);
    setup_timeseries();
    // The hook fires under the sequencer's serialization every time the
    // global floor crosses a boundary; it only *reads* pool/fabric state,
    // so sampled runs stay byte-identical to unsampled ones.
    rt_.time().set_sample_hook(
        [this](net::Nanos boundary) { timeseries_->sample(boundary); },
        cfg_.trace.sample_interval_ns);
  }
}

TaskPool::~TaskPool() {
  if (cfg_.trace.enable) rt_.fabric().set_op_observer(nullptr);
  if (timeseries_) rt_.time().set_sample_hook(nullptr, 0);
}

void TaskPool::setup_timeseries() {
  obs::TimeSeries& ts = *timeseries_;
  const int npes = rt_.npes();
  ts.add_meta("protocol",
              cfg_.kind == QueueKind::kSws ? "\"sws\"" : "\"sdc\"");
  ts.add_meta("npes", std::to_string(npes));

  // Phase accounting: one series per category, each sampling the accrued
  // time plus the open phase's elapsed — so at *every* sample the
  // categories sum exactly to acct.elapsed_ns (sws-analyze --report and
  // tests/test_obs.cpp check the invariant to the nanosecond).
  for (std::size_t c = 0; c < kNumPoolPhases; ++c) {
    ts.add_series(
        std::string("acct.") + pool_phase_name(static_cast<PoolPhase>(c)),
        [this, c, npes] {
          std::uint64_t sum = 0;
          for (int pe = 0; pe < npes; ++pe) {
            const PeSlot& ps = slots_[static_cast<std::size_t>(pe)];
            sum += ps.stats.phase_ns[c];
            if (ps.active && static_cast<std::size_t>(ps.cur) == c)
              sum += rt_.time().now(pe) - ps.mark;
          }
          return sum;
        });
  }
  ts.add_series("acct.elapsed_ns", [this, npes] {
    std::uint64_t sum = 0;
    for (int pe = 0; pe < npes; ++pe) {
      const PeSlot& ps = slots_[static_cast<std::size_t>(pe)];
      sum += (ps.active ? rt_.time().now(pe) : ps.end) - ps.base;
    }
    return sum;
  });

  const auto add_pool = [&](const char* name,
                            std::uint64_t WorkerStats::*field) {
    ts.add_series(name, [this, npes, field] {
      std::uint64_t sum = 0;
      for (int pe = 0; pe < npes; ++pe)
        sum += slots_[static_cast<std::size_t>(pe)].stats.*field;
      return sum;
    });
  };
  add_pool("pool.tasks_executed", &WorkerStats::tasks_executed);
  add_pool("pool.steals_ok", &WorkerStats::steals_ok);
  add_pool("pool.steal_attempts", &WorkerStats::steal_attempts);

  const auto add_fabric = [&](const char* name,
                              std::uint64_t net::FabricStats::*field) {
    ts.add_series(name, [this, npes, field] {
      std::uint64_t sum = 0;
      for (int pe = 0; pe < npes; ++pe) sum += rt_.fabric().stats(pe).*field;
      return sum;
    });
  };
  add_fabric("fabric.remote_ops", &net::FabricStats::remote_ops);
  add_fabric("fabric.blocking_ns", &net::FabricStats::blocking_ns);
  add_fabric("fabric.occupancy_wait_ns",
             &net::FabricStats::occupancy_wait_ns);
}

void TaskPool::finalize_timeseries() const {
  if (!timeseries_) return;
  // Capture the final partial window at the clocks' max. sample() ignores
  // non-advancing times, so repeated dumps stay idempotent.
  net::Nanos end = 0;
  for (int pe = 0; pe < rt_.npes(); ++pe)
    end = std::max(end, rt_.time().now(pe));
  timeseries_->sample(end);
}

std::uint32_t TaskPool::drain_inbox(Worker& w) {
  const std::uint32_t n = inbox_->drain(w.ctx(), [&](const Task& t) {
    // Already counted as created by the sender.
    w.push_or_run(t);
  });
  if (n > 0 && tracer_.enabled())
    tracer_.record(w.pe(), w.ctx().now(), TraceKind::kInboxDrain, n);
  return n;
}

std::uint32_t TaskPool::drain_recovered(Worker& w) {
  std::vector<Task> rec;
  const std::uint32_t n = queue_->take_recovered(w.ctx(), rec);
  if (n == 0) return 0;
  // These were fenced from a dead thief's open claim: counted created when
  // first spawned, never completed. Re-publish without recounting;
  // execution is at-least-once with bounded multiplicity
  // (docs/resilience.md).
  w.stats_.tasks_reexecuted += n;
  for (const Task& t : rec) w.push_or_run(t);
  return n;
}

void TaskPool::run_pe(pgas::PeContext& ctx,
                      const std::function<void(Worker&)>& seed) {
  // Phase accounting starts before anything can advance this PE's clock:
  // every later nanosecond lands in exactly one PoolPhase bucket. The
  // sampler cannot observe this slot mid-reset — no boundary can be
  // crossed until every PE (including this one) has advanced past it.
  PeSlot& ps = slots_[static_cast<std::size_t>(ctx.pe())];
  ps = PeSlot{};
  ps.base = ps.start = ps.mark = ctx.now();
  ps.active = true;
  try {
    run_loop(ctx, seed, ps);
  } catch (const net::PeKilled&) {
    // A planned crash ends this PE here. Freeze its record at the death
    // time so report() and the sampler count its pre-crash work, then let
    // Runtime::run retire the PE.
    ps.stats.run_time_ns = ctx.now() - ps.start;
    close_slot(ps, ctx.now());
    throw;
  }
}

void TaskPool::close_slot(PeSlot& ps, net::Nanos now) {
  ps.stats.phase_ns[static_cast<std::size_t>(ps.cur)] += now - ps.mark;
  ps.mark = ps.end = now;
  ps.active = false;
  ps.stats.accounted_ns = ps.end - ps.base;
}

void TaskPool::run_loop(pgas::PeContext& ctx,
                        const std::function<void(Worker&)>& seed,
                        PeSlot& ps) {
  Worker w(*this, ctx, ps.stats);
  const auto set_phase = [&](PoolPhase p) {
    const net::Nanos pnow = ctx.now();
    ps.stats.phase_ns[static_cast<std::size_t>(ps.cur)] += pnow - ps.mark;
    ps.mark = pnow;
    ps.cur = p;
  };

  queue_->reset_pe(ctx);
  term_->reset_pe(ctx);
  inbox_->reset_pe(ctx);
  if (recovery_) recovery_->reset_pe(ctx);
  if (ctx.pe() == 0) {
    tracer_.clear();
    if (timeseries_) timeseries_->clear();
  }
  ctx.barrier();

  seed(w);
  term_->task_boundary(ctx);  // flush seed counts before anyone checks
  ctx.barrier();

  ps.start = ctx.now();
  const net::NetworkModel& netm = rt_.fabric().model();
  std::unique_ptr<VictimSelector> victims;
  if (ctx.npes() > 1)
    victims = make_victim_selector(cfg_.victim, netm.topology(), ctx.pe(),
                                   rt_.config().seed);
  const StealTuning& st = cfg_.steal;
  // Dedicated stream for backoff jitter: draws must not perturb the
  // workload's ctx.rng() sequence, or backoff would change task-level
  // results under virtual time.
  Xoshiro256 backoff_rng(rt_.config().seed ^ 0xB0FF'0FF5'0000'0000ULL,
                         static_cast<std::uint64_t>(ctx.pe()));
  std::vector<Task> loot;
  Task t;

  // Crash-mode state. A plan with no crashes never constructs any of the
  // machinery, so crash-free runs take none of these branches.
  const bool crash_mode = recovery_ != nullptr;
  net::Nanos last_fence = 0;
  std::vector<char> death_traced;   ///< kDeathDetected emitted for PE i
  std::vector<char> inbox_rerouted; ///< ledger drained for dead PE i
  if (crash_mode) {
    death_traced.assign(static_cast<std::size_t>(ctx.npes()), 0);
    inbox_rerouted.assign(static_cast<std::size_t>(ctx.npes()), 0);
  }
  const auto trace_new_deaths = [&]() {
    if (!crash_mode || !tracer_.enabled()) return;
    for (int p = 0; p < ctx.npes(); ++p) {
      if (death_traced[static_cast<std::size_t>(p)] ||
          !recovery_->known_dead(ctx.pe(), p))
        continue;
      death_traced[static_cast<std::size_t>(p)] = 1;
      tracer_.record(ctx.pe(), ctx.now(), TraceKind::kDeathDetected,
                     static_cast<std::uint64_t>(p));
    }
  };

  // Span ids are unique per (PE, run): high bits name the PE, low bits
  // count this PE's spans. Restarting per run is fine — the tracer is
  // cleared above.
  std::uint64_t span_seq = 0;
  // Runs `op` inside a traced span of `kind`: begin (carrying `arg`),
  // label the fabric so op's own fabric ops land as child events, run,
  // clear the label, end with the args `close` derives from op's result.
  // Untraced runs just call op.
  const auto in_span = [&](TraceKind kind, std::uint64_t arg, auto&& op,
                           auto&& close) {
    if (!tracer_.enabled()) return op();
    const std::uint64_t span =
        (static_cast<std::uint64_t>(ctx.pe() + 1) << 40) | ++span_seq;
    tracer_.begin(ctx.pe(), ctx.now(), kind, span, arg);
    ctx.fabric().set_span(ctx.pe(), span);
    const auto r = op();
    ctx.fabric().set_span(ctx.pe(), 0);
    const SpanEnd e = close(r);
    tracer_.end(ctx.pe(), ctx.now(), kind, span, e.a, e.b);
    return r;
  };
  const auto ok_end = [](bool ok) { return SpanEnd{ok ? 1u : 0u}; };

  // Poll elision (docs/performance.md, "Owner polls"). progress(), the
  // inbox drain and shared_available() read only this PE's memory, which
  // changes only when a remote effect lands (Fabric::landed) or through
  // the owner's own shared-half ops. So a poll whose landed count matches
  // the last one's, with no own op since, would find nothing new: skip
  // it. `polled_at` covers the loop-top poll, `drained_at` the inbox
  // alone; kRepoll forces the next poll. Release and acquire attempts set
  // it, and an acquire attempt precedes every search, so the pass after a
  // search (steal loot included) polls too. Crash mode polls every time:
  // its stall trackers and fencing in progress() are paced by time.
  constexpr std::uint64_t kRepoll = ~std::uint64_t{0};
  std::uint64_t polled_at = kRepoll;
  std::uint64_t drained_at = kRepoll;
  const auto must_poll = [&](std::uint64_t& at) {
    const std::uint64_t n = ctx.fabric().landed(ctx.pe());
    if (!crash_mode && n == at) return false;
    at = n;
    ++w.stats_.owner_polls;
    return true;
  };
  bool shared = false;  // shared_available() at the last loop-top poll

  bool done = false;
  while (!done) {
    set_phase(PoolPhase::kWorking);
    if (must_poll(polled_at)) {
      queue_->progress(ctx);
      drained_at = polled_at;
      drain_inbox(w);
      // Owner-side fencing inside queue wait loops can surface recovered
      // tasks at any progress point; fold them back in before working.
      if (crash_mode) drain_recovered(w);
      shared = queue_->shared_available(ctx);
    }

    // Release: shared portion exhausted but local work remains (paper §3).
    if (!shared && queue_->local_count(ctx) >= kReleaseThreshold) {
      in_span(TraceKind::kReleaseSpan, 0,
              [&] { return queue_->try_release(ctx); }, ok_end);
      polled_at = kRepoll;
    }

    if (queue_->pop_local(ctx, t)) {
      w.execute(t);
      if (tracer_.enabled()) {
        tracer_.counter(ctx.pe(), ctx.now(), TraceKind::kQueueDepth,
                        queue_->local_count(ctx));
        tracer_.counter(ctx.pe(), ctx.now(), TraceKind::kPendingNbi,
                        static_cast<std::uint64_t>(
                            ctx.fabric().pending(ctx.pe())));
      }
      continue;
    }
    const bool acquired = in_span(
        TraceKind::kAcquireSpan, 0, [&] { return queue_->try_acquire(ctx); },
        ok_end);
    polled_at = kRepoll;
    if (acquired) continue;

    // Out of local and own-shared work: search the system. Successful
    // attempts count as steal time, failures as search time (§5.3).
    // kRetry failures get kFastRetries fast retries paced by the queue's
    // hint; past that (and for empty victims) the pause grows
    // exponentially with jitter, and resets on the next search.
    std::uint32_t fails = 0;
    std::uint32_t fast_retries = 0;
    net::Nanos backoff = st.backoff_min_ns;
    set_phase(PoolPhase::kProbing);
    while (true) {
      // Remotely-spawned tasks may land while we search.
      if (must_poll(drained_at) && drain_inbox(w) > 0) break;

      if (crash_mode && recovery_->known_count(ctx.pe()) > 0) {
        trace_new_deaths();
        // Lease-paced recovery sweep: break orphaned locks / fence dead
        // claims in the queue, and re-route ledgered inbox pushes whose
        // target died. Paced so a pack of idle searchers doesn't hammer
        // the same dead peer's state every attempt.
        if (ctx.now() - last_fence >= recovery_->config().lease_ns) {
          last_fence = ctx.now();
          set_phase(PoolPhase::kRecovering);
          const std::uint32_t recovered = in_span(
              TraceKind::kRecoverySpan, 0,
              [&] {
                queue_->fence_dead(ctx);
                std::uint32_t n_rec = drain_recovered(w);
                for (int p = 0; p < ctx.npes(); ++p) {
                  if (inbox_rerouted[static_cast<std::size_t>(p)] ||
                      !recovery_->known_dead(ctx.pe(), p))
                    continue;
                  inbox_rerouted[static_cast<std::size_t>(p)] = 1;
                  loot.clear();
                  const std::uint32_t n = inbox_->reroute_dead(ctx, p, loot);
                  if (n == 0) continue;
                  w.stats_.tasks_rerouted += n;
                  n_rec += n;
                  if (tracer_.enabled())
                    tracer_.record(ctx.pe(), ctx.now(), TraceKind::kRerouted,
                                   static_cast<std::uint64_t>(p), n);
                  // Already counted created at the original spawn_on.
                  for (const Task& rr : loot) w.push_or_run(rr);
                }
                return n_rec;
              },
              [](std::uint32_t n) { return SpanEnd{n}; });
          set_phase(PoolPhase::kProbing);
          if (recovered > 0 || queue_->local_count(ctx) > 0)
            break;  // recovered work to process
        }
      }

      bool fast = false;
      net::Nanos hint = 0;
      int victim = -1;
      if (ctx.npes() > 1) {
        victim = victims->next();
        if (crash_mode && recovery_->known_count(ctx.pe()) > 0) {
          // Dead victims stay inside the selector — its draw sequence must
          // not depend on when deaths were learned — so resample around
          // them, bounded by npes draws.
          int tries = 0;
          while (recovery_->known_dead(ctx.pe(), victim) &&
                 ++tries <= ctx.npes())
            victim = victims->next();
          if (recovery_->known_dead(ctx.pe(), victim)) victim = -1;
        }
      }
      if (victim >= 0) {
        const net::Nanos t0 = ctx.now();
        loot.clear();
        const net::Tier vtier = netm.tier(ctx.pe(), victim);
        const auto vid = static_cast<std::uint64_t>(victim);
        const StealResult res = in_span(
            TraceKind::kStealSpan, vid,
            [&] { return queue_->steal(ctx, victim, loot); },
            [vid](const StealResult& r) {
              return SpanEnd{vid, static_cast<std::uint64_t>(r.outcome) |
                                      (static_cast<std::uint64_t>(r.ntasks)
                                       << 8)};
            });
        const net::Nanos dt = ctx.now() - t0;
        ++w.stats_.steal_attempts;
        if (vtier >= 1)
          ++w.stats_.steal_attempts_by_tier[static_cast<std::size_t>(vtier -
                                                                     1)];
        victims->report(victim, res.outcome == StealOutcome::kSuccess);
        if (res.outcome == StealOutcome::kSuccess) {
          w.stats_.steal_time_ns += dt;
          ++w.stats_.steals_ok;
          if (vtier >= 1)
            ++w.stats_.steals_ok_by_tier[static_cast<std::size_t>(vtier - 1)];
          w.stats_.tasks_stolen += res.ntasks;
          w.stats_.bytes_stolen += static_cast<std::uint64_t>(res.ntasks) *
                                   cfg_.queue.slot_bytes;
          if (res.blocks > 0) w.stats_.claim_blocks.add(res.blocks);
          w.stats_.steal_latency.add(dt);
          // The attempt accrued as kProbing (its outcome was unknown while
          // it ran); it succeeded, so re-attribute its span to kStealing.
          // Closing first guarantees the probing bucket holds >= dt. A
          // window boundary inside the span can make that window's probing
          // delta locally negative — the exports carry signed deltas.
          set_phase(PoolPhase::kProbing);
          ps.stats.phase_ns[static_cast<std::size_t>(PoolPhase::kProbing)] -=
              dt;
          ps.stats.phase_ns[static_cast<std::size_t>(PoolPhase::kStealing)] +=
              dt;
          set_phase(PoolPhase::kWorking);
          for (const Task& stolen : loot) w.push_or_run(stolen);
          break;  // back to processing
        }
        w.stats_.search_time_ns += dt;
        hint = res.retry_after_ns;
        fast = res.outcome == StealOutcome::kRetry &&
               fast_retries < kFastRetries;
        ++fails;
      } else {
        ++fails;
      }

      // Crash mode: an owner with a claim still open is not idle. A live
      // thief's completion is on its way; a dead thief's claim must be
      // fenced and re-run first, or termination strands its tasks. So
      // reclaim instead of reporting — progress() drains completions and
      // runs the queue's own lease-paced dead-claim checks.
      const bool term_poll = fails % kTermCheckEvery == 0 || ctx.npes() == 1;
      if (term_poll && crash_mode && queue_->claims_open(ctx)) {
        queue_->progress(ctx);
      } else if (term_poll) {
        const net::Nanos t0 = ctx.now();
        set_phase(PoolPhase::kIdleTerm);
        const bool finished = term_->check(ctx);
        w.stats_.term_check_ns += ctx.now() - t0;
        if (tracer_.enabled())
          tracer_.record(ctx.pe(), ctx.now(), TraceKind::kTermCheck,
                         finished ? 1 : 0);
        if (finished) {
          done = true;  // stay in kIdleTerm through teardown
          break;
        }
        set_phase(PoolPhase::kProbing);
      }

      net::Nanos pause;
      if (fast) {
        ++fast_retries;
        pause = hint > 0 ? hint : st.backoff_min_ns;
      } else {
        fast_retries = 0;
        pause = backoff;
        if (pause > 0) {
          // Jitter, then clamp: the scaled pause must stay inside
          // [backoff_min_ns, backoff_max_ns] — jitter decorrelates convoys,
          // it must not grow the pause past the configured cap (or shrink
          // it below the floor).
          const double f =
              1.0 + kBackoffJitter * (2.0 * backoff_rng.uniform() - 1.0);
          double scaled = static_cast<double>(pause) * f;
          scaled = std::min(scaled, static_cast<double>(st.backoff_max_ns));
          scaled = std::max(scaled, static_cast<double>(st.backoff_min_ns));
          pause = static_cast<net::Nanos>(scaled);
        }
        if (hint > pause) pause = hint;
        backoff = std::min(2 * backoff, st.backoff_max_ns);
      }
      const net::Nanos t0 = ctx.now();
      set_phase(PoolPhase::kParked);
      ctx.compute(pause);
      w.stats_.search_time_ns += ctx.now() - t0;
      set_phase(PoolPhase::kProbing);
    }
  }
  if (tracer_.enabled())
    tracer_.record(ctx.pe(), ctx.now(), TraceKind::kTerminated);

  w.stats_.run_time_ns = ctx.now() - ps.start;
  if (crash_mode) {
    // Survivor teardown. A crash scheduled for after termination must not
    // fire during it, and the dead cannot join a barrier — so disarm our
    // own crash, gossip the done flag (a coordinator that died
    // mid-broadcast cannot strand anyone), settle our nbi ops, and drain
    // every effect still inbound to us instead of rendezvousing.
    ctx.fabric().disarm_crash(ctx.pe());
    trace_new_deaths();
    w.stats_.deaths_witnessed =
        static_cast<std::uint64_t>(recovery_->known_count(ctx.pe()));
    term_->on_exit(ctx);
    set_phase(PoolPhase::kBlockedNbi);
    ctx.quiet();
    while (ctx.fabric().pending_to(ctx.pe()) > 0)
      ctx.compute(recovery_->config().probe_backoff_ns);
  } else {
    set_phase(PoolPhase::kBlockedNbi);
    ctx.quiet();  // complete our in-flight completion notifications
    set_phase(PoolPhase::kIdleTerm);
    ctx.barrier();
  }
  // After everyone's quiet (+ the barrier, crash-free), no nbi op of ours
  // may remain — a leak here would carry a stale completion into the next
  // run.
  SWS_ASSERT_MSG(ctx.fabric().pending(ctx.pe()) == 0,
                 "nbi ops still pending after pool teardown quiet");

  close_slot(ps, ctx.now());
}

void TaskPool::dump_trace_json(std::ostream& os) const {
  TraceMeta meta;
  meta.protocol = cfg_.kind == QueueKind::kSws ? "sws" : "sdc";
  meta.npes = rt_.npes();
  meta.slot_bytes = cfg_.queue.slot_bytes;
  meta.topo = rt_.fabric().model().topology().spec().to_string();
  meta.crashes = rt_.fabric().crashes_planned();
  finalize_timeseries();
  tracer_.dump_chrome_json(os, meta, [&](std::ostream& xs) {
    // Sampled series become Perfetto counter tracks alongside the events.
    if (timeseries_) timeseries_->write_chrome_counters(xs);
  });
}

void TaskPool::dump_timeseries_json(std::ostream& os) const {
  if (!timeseries_) {
    os << "{\"schema\":\"sws-timeseries\",\"interval_ns\":0,\"samples\":0,"
          "\"truncated\":0,\"t\":[],\"series\":[]}\n";
    return;
  }
  finalize_timeseries();
  timeseries_->write_json(os);
}

void TaskPool::publish_metrics(obs::MetricsRegistry& reg) const {
  const int npes = static_cast<int>(slots_.size());
  const auto stats = [&](int pe) -> const WorkerStats& {
    return slots_[static_cast<std::size_t>(pe)].stats;
  };
  auto set_worker = [&](const char* name, const char* help, auto&& field) {
    const auto id = reg.counter(name, help);
    for (int pe = 0; pe < npes; ++pe) reg.set(id, pe, field(stats(pe)));
  };
  set_worker("pool.tasks_executed", "tasks run to completion",
             [](const WorkerStats& s) { return s.tasks_executed; });
  set_worker("pool.tasks_spawned", "children + seeds added",
             [](const WorkerStats& s) { return s.tasks_spawned; });
  set_worker("pool.tasks_stolen", "tasks pulled from victims",
             [](const WorkerStats& s) { return s.tasks_stolen; });
  set_worker("pool.bytes_stolen", "payload bytes moved by successful steals",
             [](const WorkerStats& s) { return s.bytes_stolen; });
  set_worker("pool.steals_ok", "successful steal operations",
             [](const WorkerStats& s) { return s.steals_ok; });
  set_worker("pool.steal_attempts", "successful + failed steals",
             [](const WorkerStats& s) { return s.steal_attempts; });
  for (net::Tier t = 1; t <= rt_.fabric().model().ntiers(); ++t) {
    const std::string suffix = ".t" + std::to_string(t);
    const auto attempts =
        reg.counter("pool.steal_attempts_by_tier" + suffix,
                    "steal attempts against victims at this tier distance");
    const auto ok = reg.counter("pool.steals_ok_by_tier" + suffix,
                                "successful steals at this tier distance");
    for (int pe = 0; pe < npes; ++pe) {
      const WorkerStats& s = stats(pe);
      reg.set(attempts, pe,
              s.steal_attempts_by_tier[static_cast<std::size_t>(t - 1)]);
      reg.set(ok, pe, s.steals_ok_by_tier[static_cast<std::size_t>(t - 1)]);
    }
  }
  set_worker("pool.steal_time_ns", "time in successful steals",
             [](const WorkerStats& s) { return s.steal_time_ns; });
  set_worker("pool.search_time_ns", "failed attempts + backoff",
             [](const WorkerStats& s) { return s.search_time_ns; });
  set_worker("pool.term_check_ns", "time in termination detection",
             [](const WorkerStats& s) { return s.term_check_ns; });
  set_worker("pool.compute_time_ns", "charged task compute",
             [](const WorkerStats& s) { return s.compute_time_ns; });
  set_worker("pool.owner_polls",
             "owner polls run; a pass with nothing landed skips its poll",
             [](const WorkerStats& s) { return s.owner_polls; });
  // Exhaustive phase taxonomy: per PE the categories sum exactly to
  // pool.phase.accounted_ns (docs/observability.md).
  for (std::size_t c = 0; c < kNumPoolPhases; ++c) {
    const auto id = reg.counter(
        std::string("pool.phase.") +
            pool_phase_name(static_cast<PoolPhase>(c)) + "_ns",
        "time attributed to this phase (taxonomy sums to accounted_ns)");
    for (int pe = 0; pe < npes; ++pe)
      reg.set(id, pe, stats(pe).phase_ns[c]);
  }
  set_worker("pool.phase.accounted_ns",
             "elapsed span the phase taxonomy covers",
             [](const WorkerStats& s) { return s.accounted_ns; });
  const auto run_time =
      reg.gauge("pool.run_time_ns", "per-PE whole-run time (max = Fig 8 y)");
  for (int pe = 0; pe < npes; ++pe)
    reg.set(run_time, pe, stats(pe).run_time_ns);
  const auto lat = reg.histogram("pool.steal_latency_ns",
                                 "per-successful-steal latency");
  for (int pe = 0; pe < npes; ++pe)
    reg.set_hist(lat, pe, stats(pe).steal_latency);
  const auto cblocks = reg.histogram("pool.claim_blocks",
                                     "blocks per successful steal claim");
  for (int pe = 0; pe < npes; ++pe)
    reg.set_hist(cblocks, pe, stats(pe).claim_blocks);

  auto set_queue = [&](const char* name, const char* help, auto&& field) {
    const auto id = reg.counter(name, help);
    for (int pe = 0; pe < npes; ++pe)
      reg.set(id, pe, field(queue_->op_stats(pe)));
  };
  set_queue("queue.releases", "local→shared transfers",
            [](const QueueOpStats& s) { return s.releases; });
  set_queue("queue.acquires", "shared→local transfers",
            [](const QueueOpStats& s) { return s.acquires; });
  set_queue("queue.acquire_poll_ns", "acquire time waiting on epochs",
            [](const QueueOpStats& s) { return s.acquire_poll_ns; });
  set_queue("queue.steals_empty", "steals finding no work",
            [](const QueueOpStats& s) { return s.steals_empty; });
  set_queue("queue.steals_retry", "steals bouncing off busy victims",
            [](const QueueOpStats& s) { return s.steals_retry; });
  set_queue("queue.damping_probes", "SWS empty-mode read-only probes",
            [](const QueueOpStats& s) { return s.damping_probes; });
  set_queue("queue.renews", "SWS owner-forced allotment renewals",
            [](const QueueOpStats& s) { return s.renews; });
  set_queue("queue.bulk_claims", "SWS successes claiming more than one block",
            [](const QueueOpStats& s) { return s.bulk_claims; });
  set_queue("queue.blocks_claimed", "SWS blocks claimed across successes",
            [](const QueueOpStats& s) { return s.blocks_claimed; });
  set_queue("queue.pressure_releases", "SWS enlarged releases under pressure",
            [](const QueueOpStats& s) { return s.pressure_releases; });

  // Crash-recovery series exist only for crash-mode pools, keeping
  // crash-free metric dumps identical to older builds.
  if (recovery_) {
    set_worker("pool.reexec_tasks", "tasks fenced from dead claims, re-run",
               [](const WorkerStats& s) { return s.tasks_reexecuted; });
    set_worker("pool.rerouted_tasks", "inbox pushes re-routed from dead PEs",
               [](const WorkerStats& s) { return s.tasks_rerouted; });
    set_worker("runtime.recoveries", "deaths this PE witnessed and recovered around",
               [](const WorkerStats& s) { return s.deaths_witnessed; });
    set_queue("queue.steals_dead", "steal attempts answered by a dead PE",
              [](const QueueOpStats& s) { return s.steals_dead; });
    set_queue("queue.leases_broken", "dead peers' leases/locks broken",
              [](const QueueOpStats& s) { return s.leases_broken; });
    set_queue("queue.tasks_recovered", "tasks fenced off dead thieves' claims",
              [](const QueueOpStats& s) { return s.tasks_recovered; });
  }
}

PoolRunReport TaskPool::report() const {
  PoolRunReport r;
  for (const PeSlot& ps : slots_) r.add(ps.stats);
  return r;
}

const WorkerStats& TaskPool::worker_stats(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < static_cast<int>(slots_.size()));
  return slots_[static_cast<std::size_t>(pe)].stats;
}

}  // namespace sws::core
