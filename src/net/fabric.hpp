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

/// Label of the operation a PE most recently issued — written before the
/// op's time charge, so while a PE is parked inside the sequencer its
/// label names the op whose memory effect it will apply on resume. The
/// schedule-exploration harness reads these to render human-readable
/// event traces; the sequencer's baton serializes writer and reader.
struct OpLabel {
  OpKind kind = OpKind::kCount_;  ///< kCount_ = no op issued yet
  int target = -1;
  std::uint64_t offset = 0;
  /// Observability span the op was issued under (0 = none): the steal /
  /// release / acquire lifecycle id the scheduler set via set_span(), so
  /// a trace can show every fabric op as a child of the protocol
  /// operation that issued it.
  std::uint64_t span = 0;
};

/// One issued fabric operation, as seen by an op observer: identity,
/// enclosing span, and the initiator-side charge window [begin, begin +
/// dur). For non-blocking ops the window covers the issue overhead only;
/// delivery happens later (Fabric semantics above).
struct OpRecord {
  int initiator = -1;
  int target = -1;
  OpKind kind = OpKind::kCount_;
  std::uint64_t offset = 0;
  std::uint64_t span = 0;
  std::size_t bytes = 0;
  Nanos begin = 0;
  Nanos dur = 0;
};

/// Called for every op issued under a nonzero span, on the initiating
/// PE's fiber, after the cost is computed and before the clock advances.
/// Must only observe (record into a per-PE trace ring) — it runs on the
/// hot path and must not touch the fabric or the clock.
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
  Fabric(VirtualTimeModel& time, NetworkModel model, int npes);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Drop all pending ops and stats; size the fabric for `npes` PEs.
  /// Arenas must be re-registered afterwards.
  void reset(int npes);

  /// Per-run reset: clocks restart at 0, so drop the NIC busy horizons
  /// and any stray pending non-blocking ops. Arenas and stats survive.
  void new_run();

  /// Expose PE `pe`'s symmetric arena to one-sided access.
  void register_arena(int pe, std::byte* base, std::size_t size);

  int npes() const noexcept { return static_cast<int>(arenas_.size()); }
  VirtualTimeModel& time() noexcept { return time_; }
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
  /// them before reusing it (SWS epoch recycle under duplication).
  int pending_to(int pe) const;

  /// Count of memory effects other PEs have applied to `pe`'s arena: +1
  /// per blocking put or write-class AMO from another PE, applied in the
  /// same event as its effect, and +1 per nbi delivery to `pe` (each copy
  /// of a duplicate; self-targeted ones too, since they land
  /// asynchronously). Reads, `pe`'s own blocking ops, nbi issue and
  /// effects suppressed on a dead target leave it alone. So while it
  /// reads unchanged, `pe`'s memory holds nothing new from anyone else:
  /// the scheduler skips owner polls on that (DESIGN.md §5).
  std::uint64_t landed(int pe) const noexcept {
    return arenas_[static_cast<std::size_t>(pe)].landed;
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
    return !dead_[static_cast<std::size_t>(pe)];
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
    return crash_at_[static_cast<std::size_t>(pe)];
  }
  /// Disarm `pe`'s planned crash (idempotent). The scheduler calls this
  /// when a PE leaves its scheduling loop: crashes model failures during
  /// work, not during teardown, where a death would be indistinguishable
  /// from a clean exit anyway.
  void disarm_crash(int pe) {
    if (crashes_armed_)
      crash_at_[static_cast<std::size_t>(pe)] = kNoPendingDeadline;
  }
  /// Mark `pe` dead: drop every pending nbi effect it initiated or that
  /// targets it (reconciling the pending counters).
  /// Called by the dying PE itself just before PeKilled is thrown; public
  /// for tests that stage deaths directly.
  void mark_dead(int pe);

  // --- fault injection --------------------------------------------------
  bool faults_enabled() const noexcept { return faults_ != nullptr; }
  bool fault_duplicates_possible() const noexcept {
    return faults_ != nullptr && faults_->plan().duplicates_possible();
  }
  const FaultInjector* fault_injector() const noexcept {
    return faults_.get();
  }
  FaultStats fault_stats() const {
    return faults_ ? faults_->total_stats() : FaultStats{};
  }

  /// Most recent operation issued by `pe` (see OpLabel).
  const OpLabel& last_op(int pe) const;

  // --- observability ----------------------------------------------------
  /// Set `pe`'s current span id; every op `pe` issues until the next
  /// set_span carries it (OpLabel::span) and is reported to the op
  /// observer. 0 clears the span. Per-PE state — each PE sets its own.
  void set_span(int pe, std::uint64_t span) noexcept;
  /// Install (or clear, with nullptr) the op observer before the PEs run.
  void set_op_observer(OpObserver cb) { observer_ = std::move(cb); }

  /// Publish this fabric's accounting (per-PE op counts and bytes, fault
  /// totals) into `reg` under the fabric.* namespace
  /// (docs/observability.md). Overwrites previously published values.
  void publish_metrics(obs::MetricsRegistry& reg) const;

  // --- accounting -------------------------------------------------------
  const FabricStats& stats(int pe) const;
  FabricStats total_stats() const;
  void reset_stats();

 private:
  struct Arena {
    std::byte* base = nullptr;
    std::size_t size = 0;
    /// landed(): kept beside base/size, which a blocking write's address
    /// translation reads anyway.
    std::uint64_t landed = 0;
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
  struct LabelSlot {
    OpLabel l;
    std::uint64_t span = 0;  ///< current span; note_op copies it into l
  };

  std::byte* translate(int target, std::uint64_t offset, std::size_t n) const;
  std::uint64_t* translate_u64(int target, std::uint64_t offset) const;
  /// Throw PeKilled if `pe`'s clock has reached its planned crash time.
  /// Out-of-line slow path; callers pre-check crashes_armed_.
  void maybe_crash(int pe);
  /// (Re-)load crash_at_ from the plan's CrashEvents.
  void arm_crashes();
  /// Post-charge check on every op path: true when the op's target is dead
  /// and the effect must be suppressed (the charge already happened —
  /// talking to a dead NIC costs the same as talking to a live one).
  bool effect_suppressed(int initiator, int target) {
    if (!crashes_armed_) return false;
    if (alive(target)) return false;
    ++stats_[static_cast<std::size_t>(initiator)].dead_target_ops;
    return true;
  }
  /// effect_suppressed() for ops that write the target: when the effect
  /// lands on another PE, count it toward landed(target). Returns true
  /// when the effect must be suppressed.
  bool write_suppressed(int initiator, int target) {
    if (effect_suppressed(initiator, target)) return true;
    if (initiator != target)
      ++arenas_[static_cast<std::size_t>(target)].landed;
    return false;
  }
  /// Charge a blocking op: stats + advance; returns nothing, effect is the
  /// caller's next statement.
  void charge(int initiator, int target, OpKind kind, std::size_t bytes);
  /// Record `initiator`'s in-flight op label (call before charge()).
  void note_op(int initiator, int target, OpKind kind, std::uint64_t offset);
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
  std::vector<Arena> arenas_;
  /// Per-target NIC busy horizon.
  std::vector<Nanos> busy_until_;
  std::vector<FabricStats> stats_;
  std::vector<LabelSlot> labels_;
  OpObserver observer_;

  std::priority_queue<PendingOp, std::vector<PendingOp>, std::greater<>>
      pending_;
  std::vector<int> pending_per_pe_;
  std::vector<int> pending_per_target_;
  std::uint64_t next_seq_ = 0;

  /// Present iff model_.params().faults.enabled(); a null injector means
  /// every fault hook short-circuits to the pre-fault fast path.
  std::unique_ptr<FaultInjector> faults_;

  // Crash-stop state. crashes_armed_ is constant after construction and
  // gates every check, so un-planned runs pay one predicted-not-taken
  // branch per op and nothing else. crash_at_ is written only by the
  // owning PE (disarm) or under reset/new_run.
  bool crashes_armed_ = false;
  std::vector<Nanos> crash_at_;
  std::vector<bool> dead_;
  int ndead_ = 0;
};

}  // namespace sws::net
