#include "core/scheduler.hpp"

#include <algorithm>
#include <functional>
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
/// Crash-mode teardown: pause between checks for effects still inbound.
constexpr net::Nanos kTeardownPollNs = 5'000;

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
    ctx_.pause(pool_.cfg_.steal.backoff_min_ns);
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
  inbox_ = std::make_unique<TaskInbox>(rt, cfg_.inbox_capacity,
                                       cfg_.queue.slot_bytes);
  if (!rt.fabric().crashes_planned()) {
    term_ = std::make_unique<CounterTermination>(rt);
  } else {
    // Crash mode: wire every layer to the shared death registry and use
    // the crash-tolerant idle-wave consensus as the termination protocol
    // (the counter hangs once a PE dies). None of this exists in a
    // crash-free pool — those runs stay byte-identical to older builds.
    recovery_ = std::make_unique<DeathRegistry>(rt, RecoveryConfig{});
    queue_->attach_recovery(recovery_.get());
    inbox_->attach_recovery(recovery_.get());
    term_ = std::make_unique<ResilientTermination>(rt, recovery_.get());
  }
  if (cfg_.trace.enable) {
    tracer_ = Tracer(rt.npes(), cfg_.trace.events);
    // Every fabric op issued inside its PE's open span becomes a child
    // event of that span; ops outside any span are dropped. The callback
    // runs in the initiating PE's fiber and writes only that PE's trace
    // ring, so it cannot perturb the schedule (it never touches a clock).
    rt_.fabric().set_op_observer([this](const net::OpRecord& r) {
      const std::uint64_t span = tracer_.open_span(r.initiator);
      if (span == 0) return;
      tracer_.complete(
          r.initiator, r.begin, r.dur, TraceKind::kFabricOp, span,
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
  auto& phase = ps.stats.phase_ns;
  phase[static_cast<std::size_t>(ps.cur)] += now - ps.mark;
  ps.mark = ps.end = now;
  ps.active = false;
  ps.stats.accounted_ns = ps.end - ps.base;
  // The paper's steal and search times are slices of the phase clock.
  ps.stats.steal_time_ns =
      phase[static_cast<std::size_t>(PoolPhase::kStealing)];
  ps.stats.search_time_ns =
      phase[static_cast<std::size_t>(PoolPhase::kProbing)] +
      phase[static_cast<std::size_t>(PoolPhase::kParked)];
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
  // Every PE sets the same range: idle thieves drain only after a remote
  // write into the inbox (must_poll below).
  ctx.fabric().watch(inbox_->offset(), inbox_->bytes());
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
  std::vector<char> death_traced;  ///< kDeathDetected emitted for PE i
  if (crash_mode) death_traced.assign(static_cast<std::size_t>(ctx.npes()), 0);
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
  // Runs `op` inside a traced span of `kind`: begin (carrying `arg`) opens
  // it, so op's own fabric ops land as child events; end, with the args
  // `close` derives from op's result, closes it. Untraced runs just call
  // op.
  const auto in_span = [&](TraceKind kind, std::uint64_t arg, auto&& op,
                           auto&& close) {
    if (!tracer_.enabled()) return op();
    const std::uint64_t span =
        (static_cast<std::uint64_t>(ctx.pe() + 1) << 40) | ++span_seq;
    tracer_.begin(ctx.pe(), ctx.now(), kind, span, arg);
    const auto r = op();
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
  // it. `polled_at` covers the loop-top poll; `drained_at` the inbox
  // alone, against the count of writes into the inbox
  // (Fabric::landed_watched), so another thief's lock traffic on the
  // queue metadata forces no drain. kRepoll forces the next poll. Release
  // and acquire attempts set it, and an acquire attempt precedes every
  // search, so the pass after a search (steal loot included) polls too.
  // Crash mode polls every time: its stall trackers and fencing in
  // progress() are paced by time.
  constexpr std::uint64_t kRepoll = ~std::uint64_t{0};
  std::uint64_t polled_at = kRepoll;
  std::uint64_t drained_at = kRepoll;
  const auto must_poll = [&](std::uint64_t& at, std::uint64_t n) {
    if (!crash_mode && n == at) return false;
    at = n;
    ++w.stats_.owner_polls;
    return true;
  };
  bool shared = false;  // shared_available() at the last loop-top poll

  bool done = false;
  while (!done) {
    set_phase(PoolPhase::kWorking);
    if (must_poll(polled_at, ctx.fabric().landed(ctx.pe()))) {
      queue_->progress(ctx);
      drained_at = ctx.fabric().landed_watched(ctx.pe());
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
    // attempts count as steal time (kStealing), failures and pauses as
    // search time (kProbing, kParked) (§5.3).
    // kRetry failures get kFastRetries fast retries paced by the queue's
    // hint; past that (and for empty victims) the pause grows
    // exponentially with jitter, and resets on the next search.
    std::uint32_t fails = 0;
    std::uint32_t fast_retries = 0;
    net::Nanos backoff = st.backoff_min_ns;
    set_phase(PoolPhase::kProbing);
    while (true) {
      // Remotely-spawned tasks may land while we search.
      if (must_poll(drained_at, ctx.fabric().landed_watched(ctx.pe())) &&
          drain_inbox(w) > 0)
        break;

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
                // A dead target takes no further pushes, so its drained
                // ledger row stays empty and a repeat sweep reroutes 0.
                for (int p = 0; p < ctx.npes(); ++p) {
                  if (!recovery_->known_dead(ctx.pe(), p)) continue;
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
          ++w.stats_.steals_ok;
          if (vtier >= 1)
            ++w.stats_.steals_ok_by_tier[static_cast<std::size_t>(vtier - 1)];
          w.stats_.tasks_stolen += res.ntasks;
          w.stats_.bytes_stolen += static_cast<std::uint64_t>(res.ntasks) *
                                   cfg_.queue.slot_bytes;
          if (res.blocks > 0) w.stats_.claim_blocks.add(res.blocks);
          w.stats_.blocks_claimed += res.blocks;
          if (res.blocks > 1) ++w.stats_.bulk_claims;
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
        switch (res.outcome) {
          case StealOutcome::kEmpty: ++w.stats_.steals_empty; break;
          case StealOutcome::kRetry: ++w.stats_.steals_retry; break;
          case StealOutcome::kPeerDead: ++w.stats_.steals_dead; break;
          case StealOutcome::kSuccess: break;
        }
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
      set_phase(PoolPhase::kParked);
      ctx.pause(pause);
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
      ctx.compute(kTeardownPollNs);
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
  const auto worker = std::bind_front(&TaskPool::worker_stats, this);
  const auto queue = std::bind_front(&TaskQueue::op_stats, queue_.get());
  reg.counter("pool.tasks_executed", "tasks run to completion",
              obs::per_pe(npes, worker, &WorkerStats::tasks_executed));
  reg.counter("pool.tasks_spawned", "children + seeds added",
              obs::per_pe(npes, worker, &WorkerStats::tasks_spawned));
  reg.counter("pool.tasks_stolen", "tasks pulled from victims",
              obs::per_pe(npes, worker, &WorkerStats::tasks_stolen));
  reg.counter("pool.bytes_stolen", "payload bytes moved by successful steals",
              obs::per_pe(npes, worker, &WorkerStats::bytes_stolen));
  reg.counter("pool.steals_ok", "successful steal operations",
              obs::per_pe(npes, worker, &WorkerStats::steals_ok));
  reg.counter("pool.steal_attempts", "successful + failed steals",
              obs::per_pe(npes, worker, &WorkerStats::steal_attempts));
  for (net::Tier t = 1; t <= rt_.fabric().model().ntiers(); ++t) {
    const std::string suffix = ".t" + std::to_string(t);
    const auto tier = static_cast<std::size_t>(t - 1);
    reg.counter("pool.steal_attempts_by_tier" + suffix,
                "steal attempts against victims at this tier distance",
                obs::per_pe(npes, worker, [tier](const WorkerStats& s) {
                  return s.steal_attempts_by_tier[tier];
                }));
    reg.counter("pool.steals_ok_by_tier" + suffix,
                "successful steals at this tier distance",
                obs::per_pe(npes, worker, [tier](const WorkerStats& s) {
                  return s.steals_ok_by_tier[tier];
                }));
  }
  reg.counter("pool.steal_time_ns", "time in successful steals",
              obs::per_pe(npes, worker, &WorkerStats::steal_time_ns));
  reg.counter("pool.search_time_ns", "failed attempts + backoff",
              obs::per_pe(npes, worker, &WorkerStats::search_time_ns));
  reg.counter("pool.term_check_ns", "time in termination detection",
              obs::per_pe(npes, worker, &WorkerStats::term_check_ns));
  reg.counter("pool.compute_time_ns", "charged task compute",
              obs::per_pe(npes, worker, &WorkerStats::compute_time_ns));
  reg.counter("pool.owner_polls",
              "owner polls run; a pass with nothing landed skips its poll",
              obs::per_pe(npes, worker, &WorkerStats::owner_polls));
  // Exhaustive phase taxonomy: per PE the categories sum exactly to
  // pool.phase.accounted_ns (docs/observability.md).
  for (std::size_t c = 0; c < kNumPoolPhases; ++c)
    reg.counter(std::string("pool.phase.") +
                    pool_phase_name(static_cast<PoolPhase>(c)) + "_ns",
                "time attributed to this phase (taxonomy sums to accounted_ns)",
                obs::per_pe(npes, worker, [c](const WorkerStats& s) {
                  return s.phase_ns[c];
                }));
  reg.counter("pool.phase.accounted_ns",
              "elapsed span the phase taxonomy covers",
              obs::per_pe(npes, worker, &WorkerStats::accounted_ns));
  reg.gauge("pool.run_time_ns", "per-PE whole-run time (max = Fig 8 y)",
            obs::per_pe(npes, worker, &WorkerStats::run_time_ns));
  LogHistogram steal_latency, claim_blocks;
  for (int pe = 0; pe < npes; ++pe) {
    steal_latency.merge(worker(pe).steal_latency);
    claim_blocks.merge(worker(pe).claim_blocks);
  }
  reg.histogram("pool.steal_latency_ns", "per-successful-steal latency",
                steal_latency);
  reg.histogram("pool.claim_blocks", "blocks per successful steal claim",
                claim_blocks);

  reg.counter("queue.releases", "local→shared transfers",
              obs::per_pe(npes, queue, &QueueOpStats::releases));
  reg.counter("queue.acquires", "shared→local transfers",
              obs::per_pe(npes, queue, &QueueOpStats::acquires));
  reg.counter("queue.acquire_poll_ns", "acquire time waiting on epochs",
              obs::per_pe(npes, queue, &QueueOpStats::acquire_poll_ns));
  reg.counter("queue.steals_empty", "steals finding no work",
              obs::per_pe(npes, worker, &WorkerStats::steals_empty));
  reg.counter("queue.steals_retry", "steals bouncing off busy victims",
              obs::per_pe(npes, worker, &WorkerStats::steals_retry));
  reg.counter("queue.damping_probes", "SWS empty-mode read-only probes",
              obs::per_pe(npes, queue, &QueueOpStats::damping_probes));
  reg.counter("queue.renews", "SWS owner-forced allotment renewals",
              obs::per_pe(npes, queue, &QueueOpStats::renews));
  reg.counter("queue.bulk_claims", "SWS successes claiming more than one block",
              obs::per_pe(npes, worker, &WorkerStats::bulk_claims));
  reg.counter("queue.blocks_claimed", "SWS blocks claimed across successes",
              obs::per_pe(npes, worker, &WorkerStats::blocks_claimed));
  reg.counter("queue.pressure_releases",
              "SWS enlarged releases under pressure",
              obs::per_pe(npes, queue, &QueueOpStats::pressure_releases));

  // Crash-recovery series exist only for crash-mode pools, keeping
  // crash-free metric dumps identical to older builds.
  if (recovery_) {
    reg.counter("pool.reexec_tasks", "tasks fenced from dead claims, re-run",
                obs::per_pe(npes, worker, &WorkerStats::tasks_reexecuted));
    reg.counter("pool.rerouted_tasks", "inbox pushes re-routed from dead PEs",
                obs::per_pe(npes, worker, &WorkerStats::tasks_rerouted));
    reg.counter("runtime.recoveries",
                "deaths this PE witnessed and recovered around",
                obs::per_pe(npes, worker, &WorkerStats::deaths_witnessed));
    reg.counter("queue.steals_dead", "steal attempts answered by a dead PE",
                obs::per_pe(npes, worker, &WorkerStats::steals_dead));
    reg.counter("queue.leases_broken", "dead peers' leases/locks broken",
                obs::per_pe(npes, queue, &QueueOpStats::leases_broken));
    reg.counter("queue.tasks_recovered",
                "tasks fenced off dead thieves' claims",
                obs::per_pe(npes, queue, &QueueOpStats::tasks_recovered));
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
