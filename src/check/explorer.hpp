// Deterministic schedule exploration on the virtual-time sequencer.
//
// The Explorer runs one Scenario many times. Each run it installs a
// ReadyArbiter on the VirtualTimeModel; whenever more than one PE is
// runnable at the minimum virtual time inside the exploration window, the
// arbiter picks which PE's next memory effect happens — one branch point.
// Because scenarios run on a zero-cost network, *every* fabric operation
// of a tied PE is such a point, so the arbiter enumerates exactly the
// protocol-level interleavings.
//
// Modes:
//  * kExhaustive — stateless-re-execution DFS over the schedule tree.
//    Each run records (choice, width) at every branch point; the cursor
//    then advances the deepest incrementable choice and replays.
//  * kRandom — seeded sampling. Schedule n draws its choices from
//    SplitMix64(seed_n) with seed_n derived from the base seed, so any
//    sampled schedule replays byte-identically from its seed alone.
//
// A failing schedule is shrunk ddmin-style (zeroing chunks of non-default
// choices, keeping any candidate that still fails) to a minimal
// choice-vector, then replayed once more with event recording to produce
// a human-readable trace of the fatal order. A recording run installs a
// fabric op observer that keeps each PE's last issued op: a PE the
// arbiter picks applies that op's effect next, so it labels the event.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/time_model.hpp"

namespace sws::check {

enum class ExploreMode { kExhaustive, kRandom };

struct ExploreOptions {
  ExploreMode mode = ExploreMode::kExhaustive;
  /// Schedule budget (exhaustive mode may finish earlier: `exhausted`).
  std::uint64_t max_schedules = 4096;
  /// Random mode: base seed; schedule n uses a distinct derived seed.
  std::uint64_t seed = 1;
};

/// One explored (or replayed) schedule.
struct ScheduleTrace {
  std::vector<std::uint8_t> choices;  ///< index into the ready set, per point
  std::uint64_t seed = 0;             ///< nonzero when from random sampling
  std::vector<std::string> events;    ///< labeled order (when recorded)
};

/// Everything one call to exec() observed.
struct RunOutcome {
  std::vector<std::uint8_t> taken;  ///< choice actually made per point
  std::vector<std::uint8_t> width;  ///< ready-set size per point
  std::string violation;            ///< "" = run was green
  std::vector<std::string> events;  ///< when recording was on
  bool ok() const { return violation.empty(); }
};

struct ExploreReport {
  std::uint64_t schedules = 0;      ///< schedules executed
  std::uint64_t branch_points = 0;  ///< total choice points across them
  bool exhausted = false;           ///< exhaustive: whole tree covered
  bool failed = false;
  std::string violation;
  ScheduleTrace failing;  ///< first failing schedule, as found
  ScheduleTrace minimal;  ///< failing, shrunk to a minimal choice vector
  std::string summary() const;
};

class Explorer {
 public:
  /// Builds the runtime (virtual time, zero-cost network) and the scenario
  /// instance once; every explored schedule re-runs the same instance.
  Explorer(const Scenario& scenario, ExploreOptions opts);
  ~Explorer();
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Explore per the configured mode; shrink + trace on failure.
  ExploreReport run();

  /// Replay a single schedule from an explicit choice vector. Choices past
  /// the vector (or out of range) fall back to 0 / clamp.
  RunOutcome run_one_forced(const std::vector<std::uint8_t>& forced,
                            bool record_events = false);
  /// Replay the schedule random sampling derives from `seed` —
  /// byte-identical to the original draw by construction.
  RunOutcome run_one_seeded(std::uint64_t seed, bool record_events = false);

  const Scenario& scenario() const noexcept { return scen_; }

 private:
  RunOutcome exec(const std::vector<std::uint8_t>* forced,
                  const std::uint64_t* seed, bool record_events);
  int arbitrate(int caller, const std::vector<int>& ready, net::Nanos now);
  ScheduleTrace shrink_failing(const ScheduleTrace& failing);
  std::uint64_t schedule_seed(std::uint64_t n) const;

  /// Mutable per-run arbiter state. Mutated by the arbiter while the
  /// sequencer picks the next PE, except `ended`, which PEs bump from
  /// end_explored, and `issued`, which the op observer writes.
  struct ArbState {
    bool use_rng = false;
    SplitMix64 rng{0};
    const std::vector<std::uint8_t>* forced = nullptr;
    std::size_t idx = 0;
    std::vector<std::uint8_t> taken;
    std::vector<std::uint8_t> width;
    int ended = 0;
    bool record = false;
    std::vector<std::string> events;
    /// Recording runs: each PE's last issued op (kind kCount_ = none yet).
    std::vector<net::OpRecord> issued;
  };

  Scenario scen_;
  ExploreOptions opts_;
  ScenarioEnv env_;
  std::unique_ptr<pgas::Runtime> rt_;
  std::unique_ptr<ScenarioInstance> inst_;
  ArbState arb_;
};

}  // namespace sws::check
