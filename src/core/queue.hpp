// Split task queue: the local half shared by the SDC baseline and the SWS
// structured-atomic implementation, and the shared-half contract each
// implements.
//
// One queue object serves the whole pool; every method takes the calling
// PE's context and internally routes to that PE's owner- or thief-side
// state. Owner-side calls must come from the owning PE; steal() may be
// called by any PE against any victim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/queue_buffer.hpp"
#include "core/task.hpp"
#include "net/types.hpp"
#include "pgas/runtime.hpp"

namespace sws::core {

class DeathRegistry;

enum class QueueKind { kSdc, kSws };

/// Ring geometry shared by every queue implementation. One definition —
/// PoolConfig and the queue constructors take it verbatim, so there is no
/// duplicated capacity/slot_bytes field left to silently override.
struct QueueConfig {
  std::uint32_t capacity = 8192;  ///< task slots per PE
  std::uint32_t slot_bytes = 64;  ///< bytes per task slot
};

enum class StealOutcome {
  kSuccess,   ///< tasks claimed and copied
  kEmpty,     ///< victim had no stealable work
  kRetry,     ///< victim busy/locked; worth trying again later
  kPeerDead,  ///< victim crashed: remove it from the victim set for good
};

struct StealResult {
  StealOutcome outcome = StealOutcome::kEmpty;
  std::uint32_t ntasks = 0;
  /// Queue's hint for when a retry could succeed (0 = no opinion). The
  /// queue knows *why* the steal failed — locked epoch rotation vs. lock
  /// convoy — so it, not the scheduler, sizes the fast-retry pause.
  net::Nanos retry_after_ns = 0;
  /// Steal-half blocks the claim covered: an SWS success reports the
  /// blocks its one fetch-add took (several in bulk mode); SDC successes
  /// and every failure report 0.
  std::uint32_t blocks = 0;
};

/// Per-PE counters of what only the protocol can see (owner-side
/// transfers, epoch waits, SWS probes and renewals, crash fencing). Steal
/// outcomes are the scheduler's to count, from the returned StealResult.
struct QueueOpStats {
  std::uint64_t releases = 0;
  std::uint64_t acquires = 0;
  std::uint64_t acquire_poll_ns = 0;  ///< time acquire spent waiting on epochs
  std::uint64_t damping_probes = 0;   ///< SWS empty-mode read-only probes
  std::uint64_t renews = 0;           ///< SWS owner-forced allotment renewals
                                      ///< (asteals wraparound protection)
  std::uint64_t leases_broken = 0;    ///< dead peers' claims/locks fenced off
  std::uint64_t tasks_recovered = 0;  ///< tasks re-published after a death
  std::uint64_t pressure_releases = 0;  ///< SWS enlarged releases under load
  std::uint64_t full_claims = 0;  ///< SWS claims taking a whole multi-block
                                  ///< allotment (serializes through one owner)

  bool operator==(const QueueOpStats&) const = default;
};

/// A split queue (paper §3): an owner-private LIFO local half over a ring
/// of task slots, and a shared half that thieves claim from. The local
/// half — the ring, the head/split/reclaim cursors, crash custody of
/// fenced tasks and the per-PE op counters — is protocol-independent and
/// lives here, written once. A subclass supplies only the shared half's
/// claim protocol: SDC's lock-fetch-update-unlock (sdc_queue.hpp) or SWS's
/// single fetch-add (sws_queue.hpp).
class TaskQueue {
 public:
  virtual ~TaskQueue() = default;

  /// Reset all queue state (owner cursors, metadata, stats) for a fresh
  /// run. Collective: call once per PE, then barrier before use.
  void reset_pe(pgas::PeContext& ctx);

  // --- owner side: the local half ---------------------------------------
  /// Enqueue at the head of the local portion. Returns false when the ring
  /// is full even after progress() reclaimed completed steals.
  bool push_local(pgas::PeContext& ctx, const Task& t) {
    LocalHalf& l = local(ctx);
    if (l.head_abs - l.reclaim_abs >= buffer_.capacity()) {
      progress(ctx);
      if (l.head_abs - l.reclaim_abs >= buffer_.capacity()) return false;
    }
    buffer_.write_local(ctx, l.head_abs, t);
    ++l.head_abs;
    return true;
  }

  /// LIFO pop from the head of the local portion.
  bool pop_local(pgas::PeContext& ctx, Task& out) {
    LocalHalf& l = local(ctx);
    if (l.head_abs == l.split_abs) return false;
    --l.head_abs;
    out = buffer_.read_local(ctx, l.head_abs);
    return true;
  }

  /// Number of tasks currently in the local portion.
  std::uint32_t local_count(pgas::PeContext& ctx) const {
    const LocalHalf& l = local(ctx);
    return static_cast<std::uint32_t>(l.head_abs - l.split_abs);
  }

  // --- owner side: the shared half --------------------------------------
  /// Owner's view: does the shared portion still hold unclaimed tasks?
  virtual bool shared_available(pgas::PeContext& ctx) const = 0;

  /// Move half the local tasks into the shared portion (valid only when
  /// the shared portion is exhausted). Returns true if tasks were exposed.
  virtual bool try_release(pgas::PeContext& ctx) = 0;

  /// Move half the unclaimed shared tasks back to the local portion.
  /// Returns true if tasks were reacquired.
  virtual bool try_acquire(pgas::PeContext& ctx) = 0;

  /// Process asynchronous steal completions; reclaims ring space.
  virtual void progress(pgas::PeContext& ctx) = 0;

  // --- thief side --------------------------------------------------------
  /// Attempt to steal from `victim`; stolen tasks are appended to `out`.
  virtual StealResult steal(pgas::PeContext& thief, int victim,
                            std::vector<Task>& out) = 0;

  // --- crash recovery ----------------------------------------------------
  /// Attach the pool's death registry (crash-mode runs only; see
  /// core/recovery.hpp). Queues record deaths they discover through
  /// poison verdicts and consult the registry before breaking a dead
  /// peer's leases. Null detaches. Install before the PEs run.
  void attach_recovery(DeathRegistry* registry) { recovery_ = registry; }

  /// Drain tasks the owner fenced off from a dead thief's unfinished
  /// claims into `out` (appended); returns the count. The scheduler
  /// re-publishes them for re-execution — at-least-once semantics.
  std::uint32_t take_recovered(pgas::PeContext& ctx, std::vector<Task>& out);

  /// Owner-side recovery sweep, called by the scheduler (at lease cadence,
  /// from an otherwise-idle PE) once it has witnessed at least one death:
  /// break any lock or claim a dead peer still holds on *this* PE's queue
  /// and move the fenced tasks to the recovered set. The blocking wait
  /// loops inside the queues fence on their own; this hook covers stalls
  /// those loops never reach (a dead claim on a live SWS allotment, a dead
  /// SDC lock holder the owner never contends with).
  virtual void fence_dead(pgas::PeContext& ctx) = 0;

  /// Does this PE's queue hold a claim whose completion has not landed?
  /// Owner-local reads only. The scheduler keeps such an owner out of
  /// crash-mode termination: the claimed tasks are still owed a run — by
  /// the thief, or by the owner once the claim is fenced.
  virtual bool claims_open(pgas::PeContext& ctx) const = 0;

  // --- introspection -----------------------------------------------------
  const QueueOpStats& op_stats(int pe) const {
    return local_[static_cast<std::size_t>(pe)].stats;
  }

  /// Invariant audit hook for the schedule-exploration harness
  /// (src/check/): validate the calling PE's owner-side view of the queue
  /// using local reads only, and return a description of the first
  /// violated invariant ("" = all good). Must be callable between any two
  /// owner-side operations.
  virtual std::string audit(pgas::PeContext& ctx) const = 0;

 protected:
  /// Allocates the task ring on the symmetric heap.
  TaskQueue(pgas::Runtime& rt, const QueueConfig& queue);

  /// One PE's local half. All indices are absolute (monotonic); ring
  /// positions are index mod capacity. [reclaim_abs, split_abs) is the
  /// shared portion with its claimed-but-unfinished prefix, and
  /// [split_abs, head_abs) the local portion.
  struct LocalHalf {
    std::uint64_t head_abs = 0;
    std::uint64_t split_abs = 0;    ///< local portion starts here
    std::uint64_t reclaim_abs = 0;  ///< ring space below this is free
    /// Tasks fenced off from dead thieves' unfinished claims, awaiting
    /// re-publication by the scheduler (crash-mode runs only).
    std::vector<Task> recovered;
    QueueOpStats stats;  ///< this PE's owner- and thief-side counters
  };

  LocalHalf& local(pgas::PeContext& ctx) {
    return local_[static_cast<std::size_t>(ctx.pe())];
  }
  const LocalHalf& local(pgas::PeContext& ctx) const {
    return local_[static_cast<std::size_t>(ctx.pe())];
  }

  /// Crash-mode run: a crash plan is armed and a death registry attached.
  /// Only then do the owner-side wait loops lease-time their peers.
  bool crash_mode(pgas::PeContext& ctx) const {
    return recovery_ != nullptr && ctx.fabric().crashes_planned();
  }

  /// The thief-side exit for a victim found dead (a poison fetch or a
  /// failed copy): record the death and evict the victim for good. The
  /// poison word reads as a held lock or a locked stealval, so without
  /// this exit a thief would keep retrying a dead victim.
  StealResult dead_victim(pgas::PeContext& thief, int victim);

  QueueBuffer buffer_;
  DeathRegistry* recovery_ = nullptr;  ///< crash-mode runs only

 private:
  /// Reset the calling PE's shared-half state; reset_pe has already
  /// emptied its local half.
  virtual void reset_shared(pgas::PeContext& ctx) = 0;

  std::vector<LocalHalf> local_;
};

}  // namespace sws::core
