// Scripted protocol scenarios for the schedule explorer.
//
// A Scenario describes a small SPMD protocol exercise — N PEs driving
// steal/release/acquire/progress against a queue, or a full task-pool run
// under a checked termination detector — built so that every interleaving
// the virtual-time arbiter picks is a legal execution and every invariant
// violation is *recorded*, never thrown (throwing on one PE would strand
// the others at barriers and deadlock the run).
//
// The exploration window: scenarios run under a zero-cost network (every
// fabric op charges 0 ns), so once all PEs' clocks tie, every operation
// is an ordering choice the arbiter controls. To make the tie exact,
// each PE pads its clock to kExploreEpochNs after the setup barrier
// (begin_explored); the arbiter only branches at/after that instant and
// stops once every PE has called end_explored.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/invariants.hpp"
#include "core/queue.hpp"
#include "pgas/runtime.hpp"

namespace sws::check {

/// The instant the explored window opens. Generous: all setup (resets,
/// barriers, seeding) must finish earlier on the zero-cost network, where
/// only explicit waits (barrier polls, backoff) advance the clock.
inline constexpr net::Nanos kExploreEpochNs = 10'000'000;

/// Runtime configuration for exploration: virtual time and a zero-cost
/// network, so fabric operations advance no time and every one of them
/// becomes an arbiter choice point while PEs are tied.
pgas::RuntimeConfig exploration_runtime_config(int npes,
                                               std::size_t heap_bytes);

class ScenarioEnv;

/// One constructed scenario: owns its protocol objects (queue, pool, …)
/// against a Runtime; body() is the per-PE script. The same instance is
/// re-run for every explored schedule, so body() must reset all protocol
/// state it uses (reset_pe + barrier, as production code does).
class ScenarioInstance {
 public:
  virtual ~ScenarioInstance() = default;

  /// The per-PE script (SPMD, called inside Runtime::run).
  virtual void body(ScenarioEnv& env, pgas::PeContext& ctx) = 0;

  /// Number of distinct task ids the ledger must track (0 = no ledger).
  virtual std::uint64_t num_ids() const { return 0; }

  /// Queue audited at every env.step() (null = no queue audits).
  virtual core::TaskQueue* audited_queue() { return nullptr; }

  /// Violation detected outside env.fail() (e.g. by a checked detector).
  virtual std::string extra_violation() { return {}; }
};

/// A named scenario factory the Explorer can instantiate.
struct Scenario {
  std::string name;
  int npes = 2;
  std::size_t heap_bytes = std::size_t{2} << 20;
  std::function<std::unique_ptr<ScenarioInstance>(pgas::Runtime&)> make;
  /// Optional adjustment of the exploration runtime config before the
  /// Runtime is built — crash scenarios arm a FaultPlan and give fabric
  /// ops a small nonzero cost so a planned crash can land *inside* a
  /// multi-op handshake rather than only between handshakes.
  std::function<void(pgas::RuntimeConfig&)> tweak;
};

/// Per-run services handed to scenario scripts: the exploration window
/// markers, the invariant audit point, the task ledger, and violation
/// recording. One env is shared by all PEs of a run (virtual-time
/// serialization makes that safe).
class ScenarioEnv {
 public:
  explicit ScenarioEnv(int npes) : npes_(npes) {}

  /// Reset for a fresh schedule; `inst` provides ledger size and audits.
  void reset(ScenarioInstance* inst);

  /// Collective: barrier, then pad this PE's clock to exactly
  /// kExploreEpochNs so every PE's first scripted op is a choice point.
  void begin_explored(pgas::PeContext& ctx);
  /// Collective: complete outstanding nbi ops, tell the arbiter this PE's
  /// script is done (all done => stop branching), then barrier.
  void end_explored(pgas::PeContext& ctx);
  /// Crash scenarios: as end_explored but without the barrier — survivors
  /// of a planned crash cannot rendezvous with the dead.
  void end_explored_nobarrier(pgas::PeContext& ctx);
  /// Crash scenarios: the planned crash killed `pe`. Counts the PE as
  /// ended for the arbiter; issues no fabric ops (the dead cannot).
  void pe_died(int pe);

  /// Audit point between protocol ops: runs the instance queue's audit for
  /// the calling PE and folds in eager ledger violations.
  void step(pgas::PeContext& ctx);

  /// Record a violation (first one wins; the run continues to completion).
  void fail(std::string msg);
  void require(bool ok, const char* msg);

  TaskLedger& ledger() { return ledger_; }
  std::string violation() const { return violation_; }

  /// Explorer wiring: called with the PE id at each end_explored.
  void set_on_end(std::function<void(int)> fn) { on_end_ = std::move(fn); }

 private:
  int npes_;
  ScenarioInstance* inst_ = nullptr;
  TaskLedger ledger_;
  std::string violation_;
  std::function<void(int)> on_end_;
};

// --- scenario library ----------------------------------------------------

/// Owner pushes/releases/pops/acquires while thieves steal, against the
/// SWS structured-atomic queue. Checks: queue audit invariants at every
/// step, no task lost, no task duplicated.
Scenario sws_steal_release_scenario(int npes = 2);
/// Same exercise with SWS bulk claims enabled (bulk_claim_max = 4):
/// multi-block claims interleaved with owner republish and epoch flips
/// must still surface every task exactly once.
Scenario bulk_steal_scenario(int npes = 2);
/// Same protocol exercise against the SDC baseline queue.
Scenario sdc_steal_release_scenario(int npes = 2);

/// Full TaskPool run (SWS queue) with remote spawns under the counter
/// termination detector wrapped in CheckedTermination: any schedule where
/// check() answers true with tasks outstanding is flagged.
Scenario counter_termination_scenario(int npes = 2);

/// Deliberately racy non-atomic read-modify-write: a known-broken
/// protocol the explorer must be able to catch. Self-test for the
/// find → replay → shrink machinery.
Scenario lost_update_scenario(int npes = 2);

/// Crash-recovery exercise: PE 0 owns a released allotment, PE 1 and PE 2
/// steal from it, and a planned crash kills PE 1 at explore-epoch +
/// `crash_offset_ns` — with 100 ns fabric ops, sweeping the offset lands
/// the death at every stage of the steal handshake. The owner waits out a
/// (shortened) lease, fences the dead thief's claims, and re-publishes
/// them; the ledger asserts the at-least-once multiplicity bound (<= 2)
/// and the queue audit runs at every step. Loss is allowed — a task whose
/// claim completed just before the thief died is dead custody by design.
Scenario crash_steal_scenario(core::QueueKind kind,
                              net::Nanos crash_offset_ns, int npes = 3);

}  // namespace sws::check
