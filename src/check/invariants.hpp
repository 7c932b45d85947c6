// Protocol invariants for the schedule-exploration harness (see
// explorer.hpp): a task ledger proving no task is lost or duplicated, and
// a termination-detector decorator proving no detector says "done" while
// tasks are outstanding.
//
// Everything here is host-side bookkeeping with no fabric traffic, so
// instrumenting a scenario does not perturb the schedule being explored.
// PEs are fibers on one host thread that run one at a time, handing the
// baton over only through the sequencer, so plain members are safe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/termination.hpp"

namespace sws::check {

/// Tracks every task by unique id through push (entering a queue) and
/// extraction (pop or steal). Catches the two protocol-fatal outcomes:
///  * duplication — an id extracted twice (e.g. a steal block aliased);
///  * loss — an id pushed but never extracted by the end of the run.
/// Phantom extractions (id never pushed) and out-of-range ids are caught
/// eagerly as well.
class TaskLedger {
 public:
  /// Forget everything and size the ledger for ids [0, nids).
  /// Multiplicity resets to the crash-free default of 1.
  void reset(std::uint64_t nids);

  /// Crash scenarios: permit each id to be pushed/extracted up to `m`
  /// times. Crash recovery re-publishes tasks fenced from dead claims, so
  /// the sound bound is exactly 2 (original + one re-execution); anything
  /// beyond still flags as duplication.
  void set_max_multiplicity(std::uint8_t m) { max_mult_ = m; }
  /// Crash scenarios: id was last in a dead PE's custody — loss is the
  /// *expected* outcome and check_no_loss() must not flag it.
  void allow_loss(std::uint64_t id);

  /// Record task `id` entering a queue.
  void pushed(std::uint64_t id);
  /// Record task `id` leaving a queue (owner pop or thief steal).
  void extracted(std::uint64_t id);

  /// First eager violation seen so far ("" = none).
  std::string first_violation() const { return first_violation_; }

  /// End-of-run check: every pushed id extracted at least once (exactly
  /// once under the default multiplicity) unless its loss was allowed.
  /// Returns "" when the multiset of extractions matches the pushes.
  std::string check_no_loss() const;

 private:
  void flag(std::string msg);

  std::vector<std::uint8_t> pushes_;
  std::vector<std::uint8_t> extracts_;
  std::vector<std::uint8_t> loss_ok_;
  std::uint8_t max_mult_ = 1;
  std::string first_violation_;
};

/// Decorates a real TerminationDetector with an exact ground truth: a pair
/// of host-side counters of tasks created/completed. If the inner detector
/// ever answers "terminated" while created != completed, the window the
/// paper's protocols must never open — premature termination — has been
/// observed; the violation is recorded and the detector is poisoned to
/// answer true everywhere so the pool winds down instead of hanging half
/// its PEs in a run the harness already knows is broken.
class CheckedTermination final : public core::TerminationDetector {
 public:
  explicit CheckedTermination(std::unique_ptr<core::TerminationDetector> inner)
      : inner_(std::move(inner)) {}

  void reset_pe(pgas::PeContext& ctx) override;
  void count_created(pgas::PeContext& ctx, std::uint64_t n) override;
  void count_completed(pgas::PeContext& ctx, std::uint64_t n) override;
  void task_boundary(pgas::PeContext& ctx) override;
  bool check(pgas::PeContext& ctx) override;
  void on_exit(pgas::PeContext& ctx) override { inner_->on_exit(ctx); }

  /// Violation recorded by the last run ("" = termination was sound).
  std::string violation() const { return violation_; }
  std::uint64_t created() const { return created_; }
  std::uint64_t completed() const { return completed_; }

 private:
  std::unique_ptr<core::TerminationDetector> inner_;
  std::uint64_t created_ = 0;
  std::uint64_t completed_ = 0;
  bool poisoned_ = false;
  std::string violation_;
};

}  // namespace sws::check
