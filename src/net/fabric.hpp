// The simulated RDMA fabric: executes one-sided operations against
// registered per-PE memory arenas, charges time through the sequencer
// (net/time_model.hpp), and accounts traffic per PE.
//
// Semantics (DESIGN.md §5):
//  * Blocking ops stall the initiator for the modeled cost, then apply
//    their memory effect. Under the virtual sequencer this serializes all
//    effects in virtual-clock order, so protocol races resolve
//    deterministically.
//  * Non-blocking ops (nbi_*) charge only an issue overhead; their memory
//    effect is queued and delivered when time passes `now +
//    delivery_delay` — i.e. completions genuinely arrive late, which is
//    what the paper's completion epochs (§4.2) exist to absorb. The
//    sequencer's delivery hook applies them.
//  * quiet(pe) blocks until all of pe's outstanding nbi ops delivered
//    (the OpenSHMEM shmem_quiet contract).
//  * Lookahead (net/time_model.hpp): a tier-0 blocking op is local work
//    and may run ahead of the time floor. Every other op first rejoins the
//    exact (vtime, pe) order, before it reads or writes anything another
//    PE can observe: the target's NIC occupancy, its memory, the shared
//    pending queue. A remote blocking op names its target to the
//    sequencer's advance(), which keeps the target to its exact horizon
//    until the initiator resumes and applies the effect.
//
// Pending-op storage (docs/performance.md): every non-blocking op is a
// 64-bit AMO, so a queued effect is one word (add or set) plus its
// target address, stored inline in the queue entry — the nbi path
// performs no heap allocation beyond the queue's own growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "net/fault.hpp"
#include "net/network_model.hpp"
#include "net/time_model.hpp"
#include "net/types.hpp"

namespace sws::obs {
class MetricsRegistry;
}

namespace sws::net {

/// Thrown on the crashing PE itself at the first operation boundary
/// at/after its planned crash time (FaultPlan::crashes). Deliberately not
/// a std::exception: nothing may "handle" a crash — the runtime treats it
/// as the planned end of that PE's execution, and the scheduler only
/// intercepts it to finalize host-side statistics before re-throwing.
struct PeKilled {
  int pe = -1;
  Nanos at_ns = 0;  ///< virtual time at which the PE observed its death
};

/// Value every fetch-class operation returns when its target PE is dead.
/// All-ones is "poison" in both protocols: an SWS stealval decodes to an
/// over-soft-cap asteals count (thief refuses), an SDC lock word reads as
/// held-by-nobody-valid, and metadata reads fail range checks — so a
/// survivor that races a death fails safe and can use the value itself as
/// the death signal (core::DeathRegistry::probe).
inline constexpr std::uint64_t kDeadFetchValue = ~std::uint64_t{0};

/// One issued fabric operation, as seen by an op observer: identity,
/// footprint ([offset, offset + bytes) of the target's arena), and the
/// initiator-side charge window [begin, begin + dur). For non-blocking ops
/// the window covers the issue overhead only; delivery happens later
/// (Fabric semantics above).
struct OpRecord {
  int initiator = -1;
  int target = -1;
  OpKind kind = OpKind::kCount_;
  std::uint64_t offset = 0;
  std::size_t bytes = 0;
  Nanos begin = 0;
  Nanos dur = 0;
};

/// Called for every op a live initiator issues, on its fiber, after the
/// cost is computed and before the clock advances: the fabric's one
/// observation seam (the tracer files ops under their spans, the schedule
/// explorer labels its events). Must only observe — it runs on the hot
/// path and must not touch the fabric or the clock.
using OpObserver = std::function<void(const OpRecord&)>;

/// Memory effect of a queued non-blocking op: one 64-bit AMO word.
struct PendingEffect {
  enum class Kind : std::uint8_t { kAmoAdd, kAmoSet };

  Kind kind = Kind::kAmoAdd;
  std::uint64_t* dst = nullptr;  ///< translated target word
  std::uint64_t value = 0;       ///< AMO operand
};

class Fabric {
 public:
  /// A fabric of `npes` PEs over the cost model `params` describes. Its
  /// shape is fixed for its lifetime, like an OpenSHMEM job's NICs.
  Fabric(VirtualTimeModel& time, NetworkParams params, int npes);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Per-run reset: clocks restart at 0, so apply any stray pending
  /// non-blocking ops, drop the NIC busy horizons, and revive and re-arm
  /// planned crashes. Arenas, stats and the op observer survive.
  void new_run();

  /// Expose PE `pe`'s symmetric arena to one-sided access.
  void register_arena(int pe, std::byte* base, std::size_t size);

  int npes() const noexcept { return static_cast<int>(pes_.size()); }
  const NetworkModel& model() const noexcept { return model_; }

  // --- blocking one-sided data movement --------------------------------
  void put(int initiator, int target, std::uint64_t offset, const void* src,
           std::size_t n);
  void get(int initiator, int target, std::uint64_t offset, void* dst,
           std::size_t n);

  // --- blocking 64-bit atomics (OpenSHMEM AMO set) ---------------------
  std::uint64_t amo_fetch_add(int initiator, int target, std::uint64_t offset,
                              std::uint64_t value);
  std::uint64_t amo_compare_swap(int initiator, int target,
                                 std::uint64_t offset, std::uint64_t expected,
                                 std::uint64_t desired);
  std::uint64_t amo_swap(int initiator, int target, std::uint64_t offset,
                         std::uint64_t value);
  std::uint64_t amo_fetch(int initiator, int target, std::uint64_t offset);
  void amo_set(int initiator, int target, std::uint64_t offset,
               std::uint64_t value);

  // --- non-blocking ops -------------------------------------------------
  void nbi_amo_add(int initiator, int target, std::uint64_t offset,
                   std::uint64_t value);
  /// Non-blocking atomic store: idempotent, so duplicated delivery is
  /// harmless — what tagged completion records (SDC ring) are built on.
  void nbi_amo_set(int initiator, int target, std::uint64_t offset,
                   std::uint64_t value);

  /// Block until all nbi ops issued by `pe` have been delivered.
  void quiet(int pe);

  /// Count of `pe`'s not-yet-delivered nbi ops.
  int pending(int pe) const;
  /// Count of not-yet-delivered nbi ops *targeting* `pe` (any initiator).
  /// Lets owners prove a completion region can no longer change under
  /// them before reusing it (SWS epoch recycle under duplication). Other
  /// PEs raise it when they issue, so the reader rejoins the exact
  /// (vtime, pe) order first (VirtualTimeModel::rejoin).
  int pending_to(int pe);

  /// Count of memory effects other PEs have applied to `pe`'s arena: +1
  /// per blocking put or write-class AMO from another PE, applied in the
  /// same event as its effect, and +1 per nbi delivery to `pe` (each copy
  /// of a duplicate; self-targeted ones too, since they land
  /// asynchronously). Reads, `pe`'s own blocking ops, nbi issue and
  /// effects suppressed on a dead target leave it alone. So while it
  /// reads unchanged, `pe`'s memory holds nothing new from anyone else:
  /// the scheduler skips owner polls on that (DESIGN.md §5).
  std::uint64_t landed(int pe) const noexcept {
    return pes_[static_cast<std::size_t>(pe)].landed;
  }
  /// The part of landed(pe) that wrote into the watched range (watch()):
  /// while it reads unchanged, nobody else wrote that range of `pe`'s
  /// memory.
  std::uint64_t landed_watched(int pe) const noexcept {
    return pes_[static_cast<std::size_t>(pe)].landed_watched;
  }
  /// Watch the symmetric range [offset, offset + bytes) of every arena
  /// (landed_watched()); replaces the previous range. The task pool
  /// watches its inbox, so idle thieves drain it only after a write.
  void watch(std::uint64_t offset, std::size_t bytes) noexcept {
    watch_lo_ = offset;
    watch_hi_ = offset + bytes;
  }

  /// How far `pe`'s local work may run ahead of the time floor
  /// (VirtualTimeModel::advance_local): up to the next delivery while an
  /// nbi effect to or from `pe` is pending, else up to the lookahead
  /// horizon.
  Reach reach(int pe) const noexcept {
    const Pe& p = pes_[static_cast<std::size_t>(pe)];
    return p.pending != 0 || p.pending_to != 0 ? Reach::kDelivery
                                               : Reach::kFar;
  }

  // --- crash-stop failures ----------------------------------------------
  /// Any CrashEvents in the plan? Constant over the fabric's lifetime;
  /// consumers gate every resilience code path on it so crash-free runs
  /// stay byte-identical to pre-crash-subsystem builds.
  bool crashes_planned() const noexcept { return crashes_armed_; }
  /// Is `pe` still alive? Ground truth — survivors should learn deaths
  /// through poison verdicts / DeathRegistry probes, not by polling this;
  /// it exists for the fabric's own op handling, assertions, and tests.
  bool alive(int pe) const noexcept {
    return !pes_[static_cast<std::size_t>(pe)].dead;
  }
  int num_dead() const noexcept { return ndead_; }
  /// Crash check for non-op wait points (PeContext::compute, quiet polls):
  /// throws PeKilled iff `pe`'s planned crash time has passed. Every
  /// fabric op checks implicitly via charge().
  void poll_crash(int pe) {
    if (crashes_armed_) maybe_crash(pe);
  }
  /// `pe`'s planned crash time; kNoPendingDeadline when none is pending.
  /// A parked wait uses it as its deadline (VirtualTimeModel::park).
  Nanos crash_deadline(int pe) const noexcept {
    return pes_[static_cast<std::size_t>(pe)].crash_at;
  }
  /// Disarm `pe`'s planned crash (idempotent). The scheduler calls this
  /// when a PE leaves its scheduling loop: crashes model failures during
  /// work, not during teardown, where a death would be indistinguishable
  /// from a clean exit anyway.
  void disarm_crash(int pe) {
    if (crashes_armed_)
      pes_[static_cast<std::size_t>(pe)].crash_at = kNoPendingDeadline;
  }
  /// Mark `pe` dead: drop every pending nbi effect it initiated or that
  /// targets it (reconciling the pending counters).
  /// Called by the dying PE itself just before PeKilled is thrown; public
  /// for tests that stage deaths directly.
  void mark_dead(int pe);

  // --- fault injection --------------------------------------------------
  bool fault_duplicates_possible() const noexcept {
    return faults_ != nullptr && faults_->plan().duplicates_possible();
  }

  // --- observability ----------------------------------------------------
  /// Install (or clear, with nullptr) the op observer before the PEs run.
  /// There is one: replacing a live observer with another is an error.
  void set_op_observer(OpObserver cb);

  /// Publish this fabric's accounting (per-PE op counts and bytes, fault
  /// totals) into `reg` under the fabric.* namespace
  /// (docs/observability.md). Overwrites previously published values.
  void publish_metrics(obs::MetricsRegistry& reg) const;

  // --- accounting -------------------------------------------------------
  const FabricStats& stats(int pe) const;
  FabricStats total_stats() const;
  void reset_stats();

 private:
  /// Everything the fabric keeps for one PE. The target-side fields come
  /// first: an op's charge and effect read them for its target, the rest
  /// for its initiator.
  struct Pe {
    // --- as a target
    std::byte* base = nullptr;  ///< registered arena
    std::size_t size = 0;
    std::uint64_t landed = 0;   ///< landed()
    std::uint64_t landed_watched = 0;  ///< landed_watched()
    Nanos busy_until = 0;       ///< NIC busy horizon (target occupancy)
    int pending_to = 0;         ///< pending_to()
    bool dead = false;
    // --- as an initiator
    int pending = 0;  ///< pending()
    Nanos crash_at = kNoPendingDeadline;
    FabricStats stats;
  };
  struct PendingOp {
    Nanos deadline;
    std::uint64_t seq;  // tie-break for determinism
    int initiator;
    int target;
    PendingEffect effect;
    bool operator>(const PendingOp& o) const noexcept {
      return deadline != o.deadline ? deadline > o.deadline : seq > o.seq;
    }
  };
  std::byte* translate(int target, std::uint64_t offset, std::size_t n) const;
  std::uint64_t* translate_u64(int target, std::uint64_t offset) const;
  /// Throw PeKilled if `pe`'s clock has reached its planned crash time.
  /// Out-of-line slow path; callers pre-check crashes_armed_.
  void maybe_crash(int pe);
  /// (Re-)arm every PE's crash_at from the plan's CrashEvents.
  void arm_crashes();
  /// Post-charge check on every op path: true when the op's target is dead
  /// and the effect must be suppressed (the charge already happened —
  /// talking to a dead NIC costs the same as talking to a live one).
  bool effect_suppressed(int initiator, int target) {
    if (!crashes_armed_) return false;
    if (alive(target)) return false;
    ++pes_[static_cast<std::size_t>(initiator)].stats.dead_target_ops;
    return true;
  }
  /// effect_suppressed() for ops that write [offset, offset + bytes) of
  /// the target: when the effect lands on another PE, count it toward
  /// landed(target). Returns true when the effect must be suppressed.
  bool write_suppressed(int initiator, int target, std::uint64_t offset,
                        std::size_t bytes) {
    if (effect_suppressed(initiator, target)) return true;
    if (initiator != target)
      land(pes_[static_cast<std::size_t>(target)], offset, bytes);
    return false;
  }
  /// Count a remote write of [offset, offset + bytes) into `t`'s arena.
  void land(Pe& t, std::uint64_t offset, std::size_t bytes) noexcept {
    ++t.landed;
    if (offset < watch_hi_ && offset + bytes > watch_lo_) ++t.landed_watched;
  }
  /// Charge an op: crash check, stats, op observer, advance; the effect is
  /// the caller's next statement. A tier-0 blocking op is local work and
  /// may run ahead of the time floor (advance_local); every other op
  /// rejoins the exact order before it touches anything another PE can
  /// observe.
  void charge(int initiator, int target, OpKind kind, std::uint64_t offset,
              std::size_t bytes);
  /// Queue `effect` for delivery after the modeled nbi delay (plus any
  /// fault verdict), then clamp the initiator's sequencer horizon to the
  /// deadline — which is also how the sequencer learns that a delivery is
  /// due then (it only calls deliver_until() once one is).
  void enqueue_nbi(int initiator, int target, PendingEffect effect);
  static void apply_effect(const PendingEffect& e);
  /// Pop + apply one delivered op.
  void apply_top();
  /// Apply every pending effect with deadline <= now; returns the earliest
  /// deadline still pending (kNoPendingDeadline if none) — the sequencer
  /// caps run-to-horizon batching with it.
  Nanos deliver_until(Nanos now);

  VirtualTimeModel& time_;
  NetworkModel model_;
  std::vector<Pe> pes_;
  OpObserver observer_;

  std::priority_queue<PendingOp, std::vector<PendingOp>, std::greater<>>
      pending_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t watch_lo_ = 0;  ///< watched range, watch()
  std::uint64_t watch_hi_ = 0;

  /// Present iff model_.params().faults.enabled(); a null injector means
  /// every fault hook short-circuits to the pre-fault fast path.
  std::unique_ptr<FaultInjector> faults_;

  // Crash-stop state. crashes_armed_ is constant after construction and
  // gates every check, so un-planned runs pay one predicted-not-taken
  // branch per op and nothing else. Pe::crash_at is written only by the
  // owning PE (disarm) or by the constructor and new_run.
  bool crashes_armed_ = false;
  int ndead_ = 0;
};

}  // namespace sws::net
