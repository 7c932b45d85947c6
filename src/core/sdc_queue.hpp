// Baseline: Scioto's "Split queue, Deferred Copy, aborting steals" (SDC)
// task queue (paper §3), ported to one-sided operations.
//
// Symmetric metadata layout (per PE):
//   +0   lock       spinlock word: 0 free, else thief_pe + 1
//   +8   split_abs  boundary between shared [tail,split) and local [split,head)
//   +16  tail_abs   oldest unclaimed shared task (thieves advance, under lock)
//   +24  steal_seq  number of claims so far (indexes the completion ring)
//   +32  ring[R]    deferred-copy completion ring: slot = stolen task count
//   +32+8R intent[R] claim-intent ring, written only when a crash plan is
//                    armed (crash recovery; see encode_intent below)
//
// A steal is the paper's six communications:
//   (1) lock CAS  (2) metadata get  (3) tail+seq put  (4) unlock
//   (5) task-block get  (6) non-blocking completion update
// with early abort while the lock is contended and the metadata shows an
// empty shared portion.
//
// The local half (ring, head/split/reclaim cursors) is TaskQueue's; the
// owner's split cursor is authoritative, mirrored at +8 for thieves.
#pragma once

#include <memory>

#include "core/queue.hpp"

namespace sws::core {

/// Protocol knobs only — ring geometry comes from QueueConfig.
struct SdcConfig {
  /// CAS attempts against a held lock before giving up with kRetry.
  std::uint32_t max_lock_attempts = 4;
  /// Completion-ring slots; bounds claimed-but-uncopied steals in flight.
  std::uint32_t completion_ring = 1024;
};

class SdcQueue final : public TaskQueue {
 public:
  explicit SdcQueue(pgas::Runtime& rt, const QueueConfig& queue,
                    SdcConfig cfg = {});

  bool shared_available(pgas::PeContext& ctx) const override;
  bool try_release(pgas::PeContext& ctx) override;
  bool try_acquire(pgas::PeContext& ctx) override;
  void progress(pgas::PeContext& ctx) override;

  StealResult steal(pgas::PeContext& thief, int victim,
                    std::vector<Task>& out) override;

  void fence_dead(pgas::PeContext& ctx) override;
  bool claims_open(pgas::PeContext& ctx) const override;

  std::string audit(pgas::PeContext& ctx) const override;
  const SdcConfig& config() const noexcept { return cfg_; }

  /// Symmetric offset of the queue spinlock (tests/diagnostics).
  std::uint64_t lock_offset_for_test() const noexcept {
    return meta_.off + kLockOff;
  }
  /// Symmetric offsets of steal sequence `seq`'s completion record and
  /// claim intent (tests/diagnostics).
  std::uint64_t completion_offset_for_test(std::uint64_t seq) const noexcept {
    return meta_.off + completion_off(seq);
  }
  std::uint64_t intent_offset_for_test(std::uint64_t seq) const noexcept {
    return meta_.off + intent_off(seq);
  }

 private:
  /// Per-PE protocol state beyond the shared local half.
  struct alignas(64) OwnerState {
    std::uint64_t reclaim_seq = 0;   ///< next completion-ring slot to drain
    // Crash-mode stall tracking (see progress()): which reclaim_seq we
    // have been stuck on and since when, and who has held the lock since
    // when. All local, only read when a crash plan is armed.
    std::uint64_t stall_seq = 0;
    net::Nanos stall_since = 0;
    std::uint64_t lock_holder = 0;
    net::Nanos lock_since = 0;
  };

  // Metadata word offsets within meta_.
  static constexpr std::uint64_t kLockOff = 0;
  static constexpr std::uint64_t kSplitOff = 8;
  static constexpr std::uint64_t kTailOff = 16;
  static constexpr std::uint64_t kSeqOff = 24;
  static constexpr std::uint64_t kRingOff = 32;

  // Completion-ring records are tagged with their claim sequence so a
  // duplicated (or very late) delivery is recognizable instead of being
  // double-counted: value = (seq + 1) << kCountBits | task_count. The
  // record is written with an *idempotent* nbi set — delivering it twice
  // stores the same bits — and the owner consumes a slot only when its
  // tag matches the next expected sequence.
  static constexpr std::uint32_t kCountBits = 24;
  static constexpr std::uint64_t kCountMask = (1ull << kCountBits) - 1;
  static constexpr std::uint64_t encode_completion(std::uint64_t seq,
                                                   std::uint64_t take) {
    return ((seq + 1) << kCountBits) | take;
  }
  std::uint64_t completion_off(std::uint64_t seq) const noexcept {
    return kRingOff + (seq % cfg_.completion_ring) * 8;
  }

  // Claim-intent ring (crash-mode only): before a thief's tail/seq claim
  // becomes visible it records {seq, thief, take} in intent[seq % R] with a
  // blocking put inside the critical section. Intent-before-claim means
  // every *consumed* sequence number provably has an intent record, so the
  // owner can reconstruct exactly which surviving range of the ring a dead
  // thief claimed and re-publish it. Crash-free runs never write the ring.
  //   value = (seq + 1) << 32 | thief_pe << kCountBits | take
  static constexpr std::uint64_t encode_intent(std::uint64_t seq, int thief,
                                               std::uint64_t take) {
    return ((seq + 1) << 32) |
           (static_cast<std::uint64_t>(thief) << kCountBits) | take;
  }
  std::uint64_t intent_off(std::uint64_t seq) const noexcept {
    return kRingOff + sizeof(std::uint64_t) * cfg_.completion_ring +
           (seq % cfg_.completion_ring) * 8;
  }

  void reset_shared(pgas::PeContext& ctx) override;
  std::uint64_t owner_tail(pgas::PeContext& ctx) const;
  void lock_own(pgas::PeContext& ctx);
  void unlock(pgas::PeContext& ctx, int target);
  /// Consume in-order completion records (the body of progress()).
  void drain_completions(pgas::PeContext& ctx);
  /// Crash mode, owner side: if a confirmed-dead peer holds our lock,
  /// CAS it free. Returns true when a lock was broken.
  bool break_dead_lock(pgas::PeContext& ctx);
  /// Crash mode, owner side: under our own lock, walk open claims in
  /// sequence order, probe each claimant, and fence confirmed-dead ones —
  /// their ring span moves to LocalHalf::recovered and reclaim advances.
  /// Stops at the first live claimant (reclaim is in-order).
  std::uint32_t reconcile_dead_claims(pgas::PeContext& ctx);

  SdcConfig cfg_;
  pgas::SymPtr meta_;
  std::vector<OwnerState> owners_;
};

}  // namespace sws::core
