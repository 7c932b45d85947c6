// Distributed termination detection (paper §2.1: "this mode of operation
// requires distributed termination detection").
//
// CounterTermination — a single outstanding-task counter on PE 0. Each
// worker applies the net delta (children spawned − tasks completed) with
// batched remote fetch-adds under the invariant that a worker's
// *unflushed* delta is never positive: positive deltas flush immediately,
// negative deltas may batch. Then
//     global_counter = outstanding − Σ unflushed_i  with unflushed_i ≤ 0
// so global_counter == 0 implies outstanding == 0 — a single remote read
// suffices and can never report termination early.
//
// When a crash plan is armed, the pool wraps the counter in
// ResilientTermination (bottom of this file), an idle-wave consensus over
// the surviving set: the counter alone hangs once a PE dies, because a
// dead PE's unflushed deltas keep the global counter nonzero forever. See
// docs/resilience.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pgas/runtime.hpp"

namespace sws::core {

class DeathRegistry;

class TerminationDetector {
 public:
  virtual ~TerminationDetector() = default;

  /// Collective per-PE reset; barrier before use.
  virtual void reset_pe(pgas::PeContext& ctx) = 0;

  /// Account `n` tasks entering the pool from this PE (seeds or spawns).
  virtual void count_created(pgas::PeContext& ctx, std::uint64_t n) = 0;
  /// Account `n` tasks fully executed by this PE.
  virtual void count_completed(pgas::PeContext& ctx, std::uint64_t n) = 0;

  /// Hook at every task boundary — flush policy lives here.
  virtual void task_boundary(pgas::PeContext& ctx) = 0;

  /// Idle-time poll: true once global termination is certain.
  virtual bool check(pgas::PeContext& ctx) = 0;

  /// Called once by the scheduler as this PE leaves its processing loop.
  /// Default: nothing. ResilientTermination gossips the done flag here so
  /// a coordinator that dies mid-broadcast cannot strand survivors.
  virtual void on_exit(pgas::PeContext& ctx) { (void)ctx; }
};

class CounterTermination final : public TerminationDetector {
 public:
  explicit CounterTermination(pgas::Runtime& rt);

  void reset_pe(pgas::PeContext& ctx) override;
  void count_created(pgas::PeContext& ctx, std::uint64_t n) override;
  void count_completed(pgas::PeContext& ctx, std::uint64_t n) override;
  void task_boundary(pgas::PeContext& ctx) override;
  bool check(pgas::PeContext& ctx) override;

 private:
  void flush(pgas::PeContext& ctx);

  pgas::SymPtr counter_;  ///< lives on PE 0
  std::vector<std::int64_t> unflushed_;  ///< per PE
};

/// Crash-tolerant idle-wave consensus, installed by the pool only when the
/// runtime's fault plan schedules crashes (never constructed otherwise —
/// crash-free runs keep the counter's exact traffic). It wraps the pool's
/// CounterTermination, which stays allocated so crash mode keeps the
/// crash-free symmetric heap layout, but sends it no counts.
///
/// Protocol: every idle PE publishes a report into the coordinator's slot
/// for it — coordinator = lowest PE the reporter believes alive — packed
/// as {activity:46 | seq:16 | idle:1 | valid:1}, where activity is the
/// PE's created+executed total. The top bit is effectively never set, so a
/// report can never equal the fabric's poison word; a reporter whose
/// report *returns* poison just learned its coordinator died and retargets
/// the successor on the next check. The coordinator declares termination
/// after two consecutive waves in which every believed-alive survivor
/// reported idle with an advanced seq and the activity sum did not move —
/// no task was created or executed anywhere in between, and every queue,
/// inbox, and recovery set was empty at both ends — then broadcasts a done
/// flag to the survivors. Reports ride on existing idle polls; a silently
/// dead reporter is discovered by the coordinator's lease-paced probe_all.
class ResilientTermination final : public TerminationDetector {
 public:
  ResilientTermination(pgas::Runtime& rt,
                       std::unique_ptr<TerminationDetector> inner,
                       DeathRegistry* registry);
  ~ResilientTermination() override;

  void reset_pe(pgas::PeContext& ctx) override;
  void count_created(pgas::PeContext& ctx, std::uint64_t n) override;
  void count_completed(pgas::PeContext& ctx, std::uint64_t n) override;
  void task_boundary(pgas::PeContext& ctx) override;
  bool check(pgas::PeContext& ctx) override;
  void on_exit(pgas::PeContext& ctx) override;

 private:
  static constexpr std::uint64_t encode_report(std::uint64_t activity,
                                               std::uint64_t seq) {
    return (activity << 18) | ((seq & 0xFFFF) << 2) | 0b11;
  }

  bool coordinator_check(pgas::PeContext& ctx);

  struct PerPe {
    std::uint64_t created = 0;
    std::uint64_t executed = 0;
    std::uint64_t seq = 0;          ///< report generation (reporter side)
    // Coordinator wave state.
    bool have_prev = false;
    std::uint64_t prev_sum = 0;
    std::vector<std::uint16_t> prev_seqs;
    int prev_known = -1;            ///< death count behind the last wave
    net::Nanos last_probe = 0;
  };

  int npes_;
  pgas::SymPtr slots_;  ///< npes report words (slot r = report from PE r)
  pgas::SymPtr done_;   ///< one word; nonzero once termination is declared
  std::unique_ptr<TerminationDetector> inner_;
  DeathRegistry* registry_;
  std::vector<PerPe> local_;
};

}  // namespace sws::core
