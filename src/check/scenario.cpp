#include "check/scenario.hpp"

#include <vector>

#include "common/assert.hpp"
#include "core/recovery.hpp"
#include "net/fabric.hpp"
#include "core/scheduler.hpp"
#include "core/sdc_queue.hpp"
#include "core/sws_queue.hpp"
#include "core/task_registry.hpp"

namespace sws::check {

pgas::RuntimeConfig exploration_runtime_config(int npes,
                                               std::size_t heap_bytes) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = heap_bytes;
  // Zero-cost network: every fabric op charges 0 ns, so PEs stay tied at
  // one instant and the arbiter decides the order of *memory effects*.
  // Only explicit waits (barrier polls, backoff, compute) advance clocks,
  // which is what keeps the schedule tree finite.
  auto& p = rc.net;  // flat topology: a single zero-cost link tier
  auto& l = p.link(1);
  l.amo_latency = 0;
  l.get_latency = 0;
  l.put_latency = 0;
  l.bandwidth = 1e18;
  l.nbi_delay = 0;
  l.target_occupancy = 0;
  p.local_bandwidth = 1e18;
  p.local_overhead = 0;
  p.nbi_issue_overhead = 0;
  return rc;
}

// ------------------------------------------------------------ ScenarioEnv

void ScenarioEnv::reset(ScenarioInstance* inst) {
  inst_ = inst;
  violation_.clear();
  ledger_.reset(inst != nullptr ? inst->num_ids() : 0);
}

void ScenarioEnv::begin_explored(pgas::PeContext& ctx) {
  ctx.barrier();
  const net::Nanos now = ctx.now();
  SWS_ASSERT_MSG(now < kExploreEpochNs,
                 "scenario setup overran the exploration epoch");
  // Land every PE on exactly the same instant: from here on, all are tied
  // and each operation is an arbiter choice point.
  ctx.compute(kExploreEpochNs - now);
}

void ScenarioEnv::end_explored(pgas::PeContext& ctx) {
  ctx.quiet();
  if (on_end_) on_end_(ctx.pe());
  ctx.barrier();
}

void ScenarioEnv::end_explored_nobarrier(pgas::PeContext& ctx) {
  ctx.quiet();
  if (on_end_) on_end_(ctx.pe());
}

void ScenarioEnv::pe_died(int pe) {
  if (on_end_) on_end_(pe);
}

void ScenarioEnv::step(pgas::PeContext& ctx) {
  if (inst_ != nullptr) {
    if (auto* q = inst_->audited_queue()) {
      std::string v = q->audit(ctx);
      if (!v.empty()) fail(std::move(v));
    }
  }
  std::string v = ledger_.first_violation();
  if (!v.empty()) fail(std::move(v));
}

void ScenarioEnv::fail(std::string msg) {
  if (violation_.empty()) violation_ = std::move(msg);
}

void ScenarioEnv::require(bool ok, const char* msg) {
  if (!ok) fail(msg);
}

namespace {

std::uint64_t id_of(const core::Task& t) {
  return t.payload_as<std::uint64_t>();
}

// ---------------------------------------------- queue protocol scenarios

/// Owner (PE 0) releases an allotment and keeps working it (pop, release,
/// progress, acquire) while every other PE steals; afterwards the owner
/// drains what is left and the ledger proves each task surfaced exactly
/// once, somewhere.
class QueueStealRelease final : public ScenarioInstance {
 public:
  static constexpr std::uint64_t kTasks = 12;

  QueueStealRelease(std::unique_ptr<core::TaskQueue> q, int npes)
      : q_(std::move(q)), npes_(npes) {}

  std::uint64_t num_ids() const override { return kTasks; }
  core::TaskQueue* audited_queue() override { return q_.get(); }

  std::uint64_t digest() const override {
    // Progress digest for heuristic DFS pruning: per-PE op counters plus
    // how far each side has gotten. Host memory only (arbiter-safe).
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    for (int pe = 0; pe < npes_; ++pe) {
      const auto& s = q_->op_stats(pe);
      mix(s.releases);
      mix(s.acquires);
      mix(s.steals_ok);
      mix(s.steals_empty);
      mix(s.steals_retry);
      mix(s.tasks_stolen);
      mix(s.renews);
    }
    return h != 0 ? h : 1;
  }

  void body(ScenarioEnv& env, pgas::PeContext& ctx) override {
    q_->reset_pe(ctx);
    ctx.barrier();

    constexpr int kOwner = 0;
    core::Task t;
    if (ctx.pe() == kOwner) {
      for (std::uint64_t id = 0; id < kTasks; ++id) {
        env.require(q_->push_local(ctx, core::Task::of(0, id)),
                    "setup push failed");
        env.ledger().pushed(id);
      }
      env.require(q_->try_release(ctx), "setup release failed");
    }

    env.begin_explored(ctx);
    if (ctx.pe() == kOwner) {
      // Two full owner cycles: work the local end, re-release, reacquire.
      // Each fabric op inside (retire swap, publish set) is a choice point
      // against the concurrently stealing thieves.
      for (int round = 0; round < 3; ++round) {
        q_->progress(ctx);
        env.step(ctx);
        if (q_->pop_local(ctx, t)) env.ledger().extracted(id_of(t));
        env.step(ctx);
        q_->try_release(ctx);
        env.step(ctx);
        if (q_->pop_local(ctx, t)) env.ledger().extracted(id_of(t));
        env.step(ctx);
        q_->progress(ctx);
        env.step(ctx);
        q_->try_acquire(ctx);
        env.step(ctx);
      }
    } else {
      std::vector<core::Task> loot;
      for (int i = 0; i < 8; ++i) {
        q_->steal(ctx, kOwner, loot);
        env.step(ctx);
      }
      for (const auto& s : loot) env.ledger().extracted(id_of(s));
    }
    env.end_explored(ctx);

    // Deterministic drain: the owner pulls everything still shared back
    // and pops it. Thieves are done, so each acquire round halves the
    // remainder — the guard bound is generous.
    if (ctx.pe() == kOwner) {
      for (int guard = 0; guard < 64; ++guard) {
        q_->progress(ctx);
        while (q_->pop_local(ctx, t)) env.ledger().extracted(id_of(t));
        if (!q_->shared_available(ctx)) break;
        q_->try_acquire(ctx);
      }
      env.step(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == kOwner) {
      std::string v = env.ledger().check_no_loss();
      if (!v.empty()) env.fail(std::move(v));
    }
  }

 private:
  std::unique_ptr<core::TaskQueue> q_;
  int npes_;
};

// ------------------------------------------------- termination scenarios

/// Full pool run: PE 0 seeds a root task that remote-spawns a child onto
/// the next PE, under the counter detector wrapped in CheckedTermination.
/// The scenario is green iff no schedule lets the detector fire with the
/// child (or root) still outstanding.
class TermScenario final : public ScenarioInstance {
 public:
  explicit TermScenario(pgas::Runtime& rt) {
    fn_child_ = reg_.register_fn(
        "check_child", [](core::Worker& w, std::span<const std::byte>) {
          w.compute(1'000);
        });
    fn_root_ = reg_.register_fn(
        "check_root", [this](core::Worker& w, std::span<const std::byte>) {
          w.spawn_on((w.pe() + 1) % w.npes(),
                     core::Task::of(fn_child_, std::uint64_t{0}));
          w.compute(50'000);
        });
    core::PoolConfig pc;
    pc.kind = core::QueueKind::kSws;
    pc.queue = core::QueueConfig{64, 32};
    // Tight, bounded pacing keeps the explored schedule tree shallow.
    pc.steal.backoff_min_ns = 500;
    pc.steal.backoff_max_ns = 2'000;
    pool_ = std::make_unique<core::TaskPool>(rt, reg_, pc);
    auto checked = std::make_unique<CheckedTermination>(
        std::make_unique<core::CounterTermination>(rt));
    checked_ = checked.get();
    pool_->set_detector(std::move(checked));
  }

  std::string extra_violation() override { return checked_->violation(); }

  void body(ScenarioEnv& env, pgas::PeContext& ctx) override {
    pool_->run_pe(ctx, [&](core::Worker& w) {
      env.begin_explored(w.ctx());
      if (w.pe() == 0)
        w.spawn(core::Task::of(fn_root_, std::uint64_t{0}));
    });
    env.end_explored(ctx);
  }

 private:
  core::TaskRegistry reg_;
  core::TaskFnId fn_child_ = 0;
  core::TaskFnId fn_root_ = 0;
  std::unique_ptr<core::TaskPool> pool_;
  CheckedTermination* checked_ = nullptr;
};

// --------------------------------------------------- explorer self-test

/// Known-broken on purpose: each PE performs a non-atomic remote
/// read-modify-write increment on a counter at PE 0. Under at least one
/// interleaving two PEs fetch the same value and one increment is lost.
class LostUpdate final : public ScenarioInstance {
 public:
  explicit LostUpdate(pgas::Runtime& rt)
      : word_(rt.heap().alloc(sizeof(std::uint64_t), 8)) {}

  void body(ScenarioEnv& env, pgas::PeContext& ctx) override {
    if (ctx.pe() == 0) ctx.local_store(word_, 0);
    ctx.barrier();

    env.begin_explored(ctx);
    const std::uint64_t v = ctx.fetch(0, word_);  // racy: fetch ...
    ctx.set(0, word_, v + 1);                     // ... then set
    env.end_explored(ctx);

    if (ctx.pe() == 0) {
      env.require(ctx.local_load(word_) ==
                      static_cast<std::uint64_t>(ctx.npes()),
                  "lost update: final counter below the increment count");
    }
  }

 private:
  pgas::SymPtr word_;
};

// ------------------------------------------------------ crash scenarios

/// See crash_steal_scenario() in the header for the full protocol sketch.
/// All synchronization after the crash is crash-safe: no barriers, the
/// owner paces on its own clock, and the dying PE reports its exit to the
/// arbiter from the PeKilled handler.
class CrashSteal final : public ScenarioInstance {
 public:
  static constexpr std::uint64_t kTasks = 8;
  static constexpr int kOwner = 0;
  static constexpr int kDying = 1;

  CrashSteal(std::unique_ptr<core::TaskQueue> q, pgas::Runtime& rt, int npes)
      : q_(std::move(q)), npes_(npes) {
    // Shortened lease so the owner's fence completes well inside the
    // scenario's bounded wait (production default is 2 ms).
    core::RecoveryConfig rc;
    rc.lease_ns = 50'000;
    rc.probe_backoff_ns = 1'000;
    registry_.init(rt, rc);
    q_->attach_recovery(&registry_);
  }

  std::uint64_t num_ids() const override { return kTasks; }
  core::TaskQueue* audited_queue() override { return q_.get(); }

  void body(ScenarioEnv& env, pgas::PeContext& ctx) override {
    q_->reset_pe(ctx);
    registry_.reset_pe(ctx);
    ctx.barrier();

    core::Task t;
    if (ctx.pe() == kOwner) {
      // At-least-once under recovery: a task fenced off a dead claim is
      // re-published and surfaces a second time. Anything beyond 2 is a
      // real duplication bug. Loss stays legal for every id — a claim
      // whose completion record landed right before the thief died is
      // dead custody, truncated by design.
      env.ledger().set_max_multiplicity(2);
      for (std::uint64_t id = 0; id < kTasks; ++id) {
        env.require(q_->push_local(ctx, core::Task::of(0, id)),
                    "setup push failed");
        env.ledger().pushed(id);
        env.ledger().allow_loss(id);
      }
      env.require(q_->try_release(ctx), "setup release failed");
    }

    env.begin_explored(ctx);
    if (ctx.pe() == kDying) {
      // Steal until the planned crash lands (mid-handshake for most
      // offsets — fabric ops cost 100 ns here). The guard only bounds a
      // misconfigured plan; the crash is what normally ends the loop.
      try {
        std::vector<core::Task> loot;
        for (int i = 0; i < 4096; ++i) {
          loot.clear();
          q_->steal(ctx, kOwner, loot);
          for (const auto& s : loot) env.ledger().extracted(id_of(s));
          env.step(ctx);
          ctx.compute(200);
        }
        env.fail("crash scenario: planned crash never fired on the thief");
        env.end_explored_nobarrier(ctx);
      } catch (const net::PeKilled&) {
        env.pe_died(kDying);
      }
      return;
    }

    if (ctx.pe() == kOwner) {
      // Work the local end while the thieves race, then wait out the
      // crash plus one lease and fence the dead thief's open claims.
      for (int i = 0; i < 120; ++i) {
        q_->progress(ctx);
        if (q_->pop_local(ctx, t)) env.ledger().extracted(id_of(t));
        env.step(ctx);
        ctx.compute(1'000);
      }
      registry_.probe_all(ctx);
      env.require(registry_.known_dead(kOwner, kDying),
                  "owner probe missed the planned death");
      q_->fence_dead(ctx);
      std::vector<core::Task> rec;
      q_->take_recovered(ctx, rec);
      for (const auto& r : rec) env.ledger().extracted(id_of(r));
      env.step(ctx);
      // Deterministic drain of everything still queued or shared.
      for (int guard = 0; guard < 64; ++guard) {
        q_->progress(ctx);
        while (q_->pop_local(ctx, t)) env.ledger().extracted(id_of(t));
        if (!q_->shared_available(ctx)) break;
        q_->try_acquire(ctx);
      }
      env.step(ctx);
      env.end_explored_nobarrier(ctx);
      return;
    }

    // Surviving thief: a bounded burst of steals against the same owner,
    // interleaving with the dying PE's handshake and the owner's fence.
    std::vector<core::Task> loot;
    for (int i = 0; i < 10; ++i) {
      loot.clear();
      q_->steal(ctx, kOwner, loot);
      for (const auto& s : loot) env.ledger().extracted(id_of(s));
      env.step(ctx);
      ctx.compute(200);
    }
    env.end_explored_nobarrier(ctx);
  }

 private:
  std::unique_ptr<core::TaskQueue> q_;
  core::DeathRegistry registry_;
  int npes_;
};

}  // namespace

// --------------------------------------------------------------- factory

Scenario sws_steal_release_scenario(int npes) {
  Scenario s;
  s.name = "sws-steal-release";
  s.npes = npes;
  s.make = [npes](pgas::Runtime& rt) -> std::unique_ptr<ScenarioInstance> {
    auto q = std::make_unique<core::SwsQueue>(rt, core::QueueConfig{64, 32});
    return std::make_unique<QueueStealRelease>(std::move(q), npes);
  };
  return s;
}

Scenario bulk_steal_scenario(int npes) {
  Scenario s;
  s.name = "sws-bulk-steal";
  s.npes = npes;
  s.make = [npes](pgas::Runtime& rt) -> std::unique_ptr<ScenarioInstance> {
    // Same protocol exercise, bulk claims on: thieves may take several
    // blocks per fetch-add, so the ledger must still see every task
    // surface exactly once across every interleaving of multi-block
    // claims, owner republishes, and epoch flips.
    core::SwsConfig bulk;
    bulk.bulk_claim_max = 4;
    auto q = std::make_unique<core::SwsQueue>(rt, core::QueueConfig{64, 32},
                                              bulk);
    return std::make_unique<QueueStealRelease>(std::move(q), npes);
  };
  return s;
}

Scenario sdc_steal_release_scenario(int npes) {
  Scenario s;
  s.name = "sdc-steal-release";
  s.npes = npes;
  s.make = [npes](pgas::Runtime& rt) -> std::unique_ptr<ScenarioInstance> {
    auto q = std::make_unique<core::SdcQueue>(rt, core::QueueConfig{64, 32});
    return std::make_unique<QueueStealRelease>(std::move(q), npes);
  };
  return s;
}

Scenario counter_termination_scenario(int npes) {
  Scenario s;
  s.name = "counter-termination";
  s.npes = npes;
  s.make = [](pgas::Runtime& rt) -> std::unique_ptr<ScenarioInstance> {
    return std::make_unique<TermScenario>(rt);
  };
  return s;
}

Scenario lost_update_scenario(int npes) {
  Scenario s;
  s.name = "lost-update";
  s.npes = npes;
  s.make = [](pgas::Runtime& rt) -> std::unique_ptr<ScenarioInstance> {
    return std::make_unique<LostUpdate>(rt);
  };
  return s;
}

Scenario crash_steal_scenario(core::QueueKind kind,
                              net::Nanos crash_offset_ns, int npes) {
  Scenario s;
  s.name = std::string(kind == core::QueueKind::kSws ? "sws" : "sdc") +
           "-crash-steal+" + std::to_string(crash_offset_ns);
  s.npes = npes;
  s.make = [kind, npes](pgas::Runtime& rt)
      -> std::unique_ptr<ScenarioInstance> {
    std::unique_ptr<core::TaskQueue> q;
    if (kind == core::QueueKind::kSws)
      q = std::make_unique<core::SwsQueue>(rt, core::QueueConfig{64, 32});
    else
      q = std::make_unique<core::SdcQueue>(rt, core::QueueConfig{64, 32});
    return std::make_unique<CrashSteal>(std::move(q), rt, npes);
  };
  s.tweak = [crash_offset_ns](pgas::RuntimeConfig& rc) {
    // Nonzero op costs so the crash instant can fall between the ops of
    // one steal handshake — sweeping the offset in ~100 ns steps lands
    // the death at each protocol stage. Ties still abound (the thieves
    // run identical op sequences), so the arbiter keeps real choices.
    auto& l = rc.net.link(1);
    l.amo_latency = 100;
    l.get_latency = 100;
    l.put_latency = 100;
    rc.net.faults.crashes.push_back(
        {CrashSteal::kDying, kExploreEpochNs + crash_offset_ns});
  };
  return s;
}

}  // namespace sws::check
