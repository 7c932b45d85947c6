// SWS: the structured-atomic work-stealing queue (paper §4).
//
// Thief side — a steal is three communications, two blocking:
//   (1) atomic fetch-add of AStealsField::unit() on the victim's stealval
//       — discovers AND claims a steal-half block in one round trip;
//   (2) one-sided get of the claimed block;
//   (3) non-blocking atomic completion notification
//       (completion[epoch][block]).
//
// Owner side — release/acquire retire the live allotment by atomically
// swapping the stealval to a locked sentinel, rotating to the next
// completion epoch (§4.2), and publishing a fresh
// {asteals=0, epoch, itasks, tail}. Ring space under claimed blocks is
// reclaimed by progress() as completion notifications arrive — in block
// order, per the longest-finished-prefix rule.
//
// Geometry (absolute indices): reclaim <= retired-claimed regions <=
// live allotment [alloc_base, split) <= local portion [split, head).
#pragma once

#include <deque>

#include "core/completion.hpp"
#include "core/queue.hpp"
#include "core/stealval.hpp"

namespace sws::core {

/// Protocol knobs only — ring geometry comes from QueueConfig.
struct SwsConfig {
  /// Completion epochs (§4.2). When false, allotment resets wait for every
  /// outstanding steal to finish first — the paper's initial
  /// implementation, kept for the ablation study.
  bool epochs = true;
  /// Steal damping (§4.3): thieves that find a target empty past the
  /// threshold fall back to read-only probes until work reappears.
  bool damping = true;
  /// Bulk claims: the most steal-half blocks one thief fetch-add may claim
  /// (1..kMaxBulkClaim). 1 = the paper's single-block steal. Thieves grow
  /// their claim size on successful steals and shrink it when the victim
  /// provably can't feed a bulk claim (empty probe, soft-cap refusal, dead
  /// victim), always capped here; above 1 the owner also releases larger
  /// allotments when it observes steal pressure.
  std::uint32_t bulk_claim_max = 1;
};

class SwsQueue final : public TaskQueue {
 public:
  explicit SwsQueue(pgas::Runtime& rt, const QueueConfig& queue,
                    SwsConfig cfg = {});

  bool shared_available(pgas::PeContext& ctx) const override;
  bool try_release(pgas::PeContext& ctx) override;
  bool try_acquire(pgas::PeContext& ctx) override;
  void progress(pgas::PeContext& ctx) override;

  StealResult steal(pgas::PeContext& thief, int victim,
                    std::vector<Task>& out) override;

  void fence_dead(pgas::PeContext& ctx) override;
  bool claims_open(pgas::PeContext& ctx) const override;

  std::string audit(pgas::PeContext& ctx) const override;

  /// Owner's decoded view of its own stealval (for tests/diagnostics).
  StealVal owner_stealval(pgas::PeContext& ctx) const;

  /// Symmetric location of the stealval word (tests/diagnostics).
  pgas::SymPtr stealval_ptr() const noexcept { return stealval_; }

 private:
  /// Per-PE protocol state beyond the shared local half.
  struct OwnerState {
    std::uint64_t alloc_base_abs = 0;  ///< live allotment's first task
    std::uint32_t itasks = 0;          ///< live allotment size
    std::uint32_t epoch = 0;
    std::deque<AllotmentRecord> outstanding;
    /// Steal-pressure tracking: last asteals value sampled
    /// from the live allotment, and attempts accumulated since the last
    /// release — in bulk mode, high pressure makes the next release expose
    /// more.
    std::uint32_t asteals_seen = 0;
    std::uint32_t pressure = 0;
  };
  /// Thief-side damping state, one row per thief, one entry per potential
  /// victim.
  struct ThiefState {
    std::vector<std::uint8_t> empty_mode;  // 1 = probe-first
    /// Last observed allotment block count per victim (0 = never
    /// observed, saturated at 255). Every decoded stealval with a
    /// live allotment refreshes it. Caps the adaptive claim at half the
    /// victim's allotment, so a warmed-up thief can't keep swallowing a
    /// small owner's whole allotment and serialize every other thief
    /// behind that owner's renewal cadence.
    std::vector<std::uint8_t> seen_blocks;
    /// Adaptive claim size, capped at bulk_claim_max: doubles on a
    /// successful steal, halves on an empty probe / soft-cap refusal / dead
    /// victim.
    /// One value per thief, not per victim: the demand it tracks — "this
    /// thief keeps coming back for more" — follows the thief to whichever
    /// victim it tries next, and per-victim values would never warm up
    /// when selection scatters attempts across many victims.
    std::uint8_t claim_size = 1;
  };

  void reset_shared(pgas::PeContext& ctx) override;

  /// True when the decoded value offers an unclaimed block.
  static bool has_work(const StealVal& sv) noexcept;

  /// Retire the live allotment: swap in the locked sentinel, record the
  /// outstanding claims, rotate/clear the next epoch. Returns the number
  /// of blocks that were claimed from the retired allotment.
  std::uint32_t retire_allotment(pgas::PeContext& ctx);
  /// Publish a fresh allotment (must follow retire_allotment).
  void publish(pgas::PeContext& ctx, std::uint32_t itasks);
  /// Retire the live allotment and republish its unclaimed remainder, so
  /// asteals restarts at 0 and the claimed blocks become retired records.
  void renew_allotment(pgas::PeContext& ctx);

  /// Crash recovery, owner side: for every unfinished claim in the retired
  /// records, copy the block's tasks into LocalHalf::recovered and
  /// force-finish its completion slot so reclaim can proceed. Only valid
  /// once the owner has witnessed a death, drained pending traffic to
  /// itself, and waited out the detection lease (see retire_allotment).
  /// Returns the number of claims fenced.
  std::uint32_t fence_dead_claims(pgas::PeContext& ctx);

  SwsConfig cfg_;
  pgas::SymPtr stealval_;
  CompletionSpace completion_;
  std::vector<OwnerState> owners_;
  std::vector<ThiefState> thieves_;
};

}  // namespace sws::core
