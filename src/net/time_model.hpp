// Time backends for the simulated PGAS platform.
//
// The paper evaluates on a 44-node InfiniBand cluster. We reproduce its
// experiments on one host by running each PE against one of two
// interchangeable clocks:
//
//  * VirtualTimeModel — a discrete-event sequencer. Every PE is a
//    user-space fiber (net/fiber.hpp) on the host thread that calls
//    run_pes(), and exactly one runs at a time: the runnable PE is always
//    the one with the minimum (virtual clock, PE id). Communication
//    latencies and task compute times are charged by advance(), so a 5 ms
//    task costs nothing in wall time and results are bit-deterministic.
//    All paper figures use this.
//  * RealTimeModel — PEs are OS threads that run concurrently, and
//    advance() injects real delays (spin for short, sleep for long). Used
//    by stress tests that want genuinely preemptive interleavings, and by
//    live examples.
//
// Both expose the same interface, so the whole runtime above this layer
// is written once.
//
// Sequencer hot path (docs/performance.md): the ready set lives in an
// indexed (vtime, pe) min-heap, and the running PE caches a *horizon* —
// the minimum of every other PE's clock and the earliest pending nbi
// deadline. advance() calls that keep the clock strictly below the
// horizon touch no heap, fire no hook, and switch no fiber; only crossing
// the horizon enters the sequencer, which picks the next PE from the heap
// and switches straight to its fiber. Anything that could schedule an
// event below the running PE's horizon must shrink it via clamp_horizon()
// (the fabric does this on every nbi enqueue), and the delivery hook
// reports the earliest still-pending deadline so the sequencer can cap
// horizons with it. Installing a ReadyArbiter disables horizon batching
// entirely: the schedule explorer must observe every potential tie.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "net/fiber.hpp"
#include "net/ready_heap.hpp"
#include "net/types.hpp"

namespace sws::net {

/// Sentinel "no pending deadline" for DeliveryHook results: later than any
/// representable virtual time.
inline constexpr Nanos kNoPendingDeadline = ~Nanos{0};

/// Callback invoked by the virtual sequencer whenever global time reaches
/// a new floor `now`; the fabric uses it to deliver pending non-blocking
/// operations whose deadline has passed. Returns the earliest deadline
/// still pending after the sweep (kNoPendingDeadline if none) — the
/// sequencer caps run-to-horizon batching with it so no delivery is ever
/// skipped over. Runs inside the sequencer — it must only touch
/// fabric/pending state, never call back into the time model.
using DeliveryHook = std::function<Nanos(Nanos now)>;

/// Consulted by the virtual sequencer whenever more than one PE is
/// runnable at the minimum virtual time — i.e. whenever the discrete-event
/// queue holds a genuine ordering choice. `caller` is the PE that just
/// advanced (or finished), `ready` the tied PEs in ascending id order, and
/// `now` their common virtual time. Must return one element of `ready`.
/// Runs inside the sequencer: it must not call back into the time model
/// or issue fabric operations. The schedule-exploration harness
/// (src/check/) installs one to enumerate interleavings; when unset, ties
/// break by lowest id — the legacy deterministic order.
using ReadyArbiter =
    std::function<int(int caller, const std::vector<int>& ready, Nanos now)>;

/// Observation-only callback fired by the virtual sequencers each time the
/// global time floor crosses a sampling boundary (`boundary` = k*interval
/// for k = 1, 2, ...; boundaries are never skipped, so a long batch fires
/// one call per crossed boundary, in order). Runs inside the sequencer's
/// serialization — with every other PE suspended — so it may read clocks,
/// metrics slabs, and scheduler state lock-free. It must never advance
/// clocks, issue fabric operations, or call back into the time model:
/// sampling is observation-only, and the determinism A/B suite enforces
/// that sampled runs are byte-identical to unsampled ones. Real-time
/// backends ignore it.
using SampleHook = std::function<void(Nanos boundary)>;

class TimeModel {
 public:
  virtual ~TimeModel() = default;

  /// Re-initialize for a fresh run with `npes` participants. Must not be
  /// called while PEs are running.
  virtual void reset(int npes) = 0;

  /// reset(npes), then run `body(pe)` for every PE in [0, npes) under this
  /// clock; returns when every PE has finished. The first exception that
  /// escapes a PE's body is rethrown here after all of them finish.
  /// Default: one std::thread per PE, framed by pe_begin/pe_end.
  virtual void run_pes(int npes, const std::function<void(int)>& body);

  /// Advance PE `pe`'s clock by `dt`, blocking the caller accordingly.
  virtual void advance(int pe, Nanos dt) = 0;

  /// Current clock of PE `pe`.
  virtual Nanos now(int pe) const = 0;

  /// Inform the sequencer that an event (e.g. an nbi delivery deadline)
  /// was scheduled at virtual time `deadline` by the running PE `pe`.
  /// Virtual backend: shrinks pe's batching horizon so the deadline is
  /// not skipped over; may only be called by the running PE. Real
  /// backend: no-op (deliveries are driven by a progress thread).
  virtual void clamp_horizon(int pe, Nanos deadline) {
    (void)pe;
    (void)deadline;
  }

  virtual void set_delivery_hook(DeliveryHook hook) = 0;

  /// Install (or clear, with nullptr / interval 0) the windowed sampling
  /// hook. Virtual backends fire it at every multiple of `interval_ns`
  /// the global floor crosses, capping run-to-horizon batches (but never
  /// schedules) at the next boundary so samples land on time. Real
  /// backend: no-op. Must not be called while PEs are running.
  virtual void set_sample_hook(SampleHook hook, Nanos interval_ns) {
    (void)hook;
    (void)interval_ns;
  }

  virtual bool is_virtual() const noexcept = 0;
  virtual int npes() const noexcept = 0;

  // --- concurrent-window extensions (ParallelTimeModel) ------------------
  //
  // The sharded sequencer releases *windows* of PEs that run concurrently
  // below a conservative lookahead horizon. Actions that touch another
  // PE's state (or globally ordered fabric state like the nbi sequence
  // counter) must first be serialized at the global (vtime, pe) frontier.
  // The serial backends run one PE at a time, so these default to no-ops.

  /// Conflict footprint sentinels for global_begin(pe, target):
  ///  * kOpaqueTarget — unknown footprint: while this gate's PE is parked,
  ///    no other PE may run past its clock (fully conservative; the
  ///    fabric uses it when fault/crash injection adds shared state).
  ///  * kNoConflictTarget — the gate only touches state shared with other
  ///    gated actions (nbi pending queue, sequence counter): parked, it
  ///    never needs to cap a concurrent window (deliveries are fenced
  ///    separately by the pending-deadline cap).
  static constexpr int kOpaqueTarget = -1;
  static constexpr int kNoConflictTarget = -2;

  /// `pe` is about to perform a globally ordered action (cross-PE blocking
  /// op or nbi enqueue). Parks until `pe` is the unique global frontier;
  /// on return the op's charge + effect run in exact serial lex order.
  virtual void global_begin(int pe) { (void)pe; }
  /// As above, with the action's conflict footprint: `target` is the PE
  /// whose observable state the action touches when it resumes from parks
  /// *inside* the gate (a blocking op applies its effect after charging),
  /// or one of the sentinels. The sharded engine uses it to cap concurrent
  /// windows per target instead of globally; serial backends ignore it.
  virtual void global_begin(int pe, int target) {
    (void)target;
    global_begin(pe);
  }
  /// The globally ordered action completed; `pe` may continue privately.
  virtual void global_end(int pe) { (void)pe; }
  /// Serialize a read of globally mutated state (e.g. the per-target nbi
  /// pending counter) without marking `pe` as inside an op: parks until
  /// every lex-earlier global action has applied.
  virtual void global_sync(int pe) { (void)pe; }
  /// True when windows of PE threads may run concurrently — callers use it
  /// to gate global_begin/end/sync so the serial hot path stays untouched.
  virtual bool concurrent_windows() const noexcept { return false; }

 protected:
  /// The default run_pes() calls these on each PE thread right before and
  /// after its body.
  virtual void pe_begin(int pe) { (void)pe; }
  virtual void pe_end(int pe) { (void)pe; }
};

/// Deterministic discrete-event sequencer (see file comment).
class VirtualTimeModel final : public TimeModel {
 public:
  explicit VirtualTimeModel(int npes = 0);
  ~VirtualTimeModel() override;

  void reset(int npes) override;
  /// Runs each PE as a fiber on the calling thread, PE 0 first. Fiber
  /// stacks are kept across runs and only remapped when `npes` grows. Not
  /// reentrant.
  void run_pes(int npes, const std::function<void(int)>& body) override;
  void advance(int pe, Nanos dt) override;

  /// Reads the PE's published clock. Exact when called by `pe` itself
  /// (every advance publishes before returning), by any other PE (they
  /// share one host thread), or after run_pes() returns.
  Nanos now(int pe) const override;

  void clamp_horizon(int pe, Nanos deadline) override;
  void set_delivery_hook(DeliveryHook hook) override;
  void set_sample_hook(SampleHook hook, Nanos interval_ns) override;
  bool is_virtual() const noexcept override { return true; }
  int npes() const noexcept override { return static_cast<int>(slots_.size()); }

  /// Install (or clear, with nullptr) the ready-set arbiter. Survives
  /// reset() — it is sequencer configuration, like the delivery hook.
  /// Must not be called while PEs are running. While installed,
  /// run-to-horizon batching is disabled so every advance() is a
  /// potential branch point for the explorer.
  void set_ready_arbiter(ReadyArbiter arb);

 private:
  struct PeSlot {
    /// Authoritative clock, written only by the running PE (or by reset).
    std::atomic<Nanos> vtime{0};
    /// Fast-path cap: advance() stays in the fast path while the
    /// resulting clock is *strictly* below this. Set by the sequencer when
    /// the PE is activated, then shrunk only by clamp_horizon().
    Nanos horizon = 0;
    bool finished = false;
  };

  /// Pick the next runnable PE: minimum vtime, ties resolved by the
  /// arbiter when one is installed (else by id); -1 if none left.
  /// `caller` is the PE whose advance/finish triggered the pick.
  int pick_next(int caller);
  /// Make `next` the running PE (-1: none left): fire the delivery hook
  /// for the new time floor and refresh `next`'s horizon.
  void activate(int next);
  /// Fire the hook at `pe`'s clock and compute its fresh horizon:
  /// min(second-lowest ready clock, earliest pending delivery deadline);
  /// 0 (batching off) in arbiter mode.
  Nanos refresh_horizon(int pe);
  /// Suspend `pe`'s fiber and resume the active PE's, or the run_pes()
  /// caller when none is active. `exiting`: `pe` has finished.
  void switch_from(int pe, bool exiting);
  /// Body of every PE fiber: run the PE that is active when it starts.
  static void fiber_main(void* self);
  /// `pe`'s body returned: retire it and switch away for good.
  void finish(int pe);

  std::vector<std::unique_ptr<PeSlot>> slots_;
  ReadyHeap heap_;  ///< ready PEs keyed by (vtime, pe)
  std::atomic<int> active_{-1};  ///< the running PE
  DeliveryHook hook_;
  ReadyArbiter arbiter_;
  SampleHook sample_hook_;
  Nanos sample_interval_ = 0;  ///< 0 = sampling off
  Nanos next_sample_ = 0;      ///< next unfired boundary
  std::vector<int> ready_scratch_;  ///< reused per pick

  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< one per PE, reused
  FiberContext caller_;  ///< the thread inside run_pes()
  const std::function<void(int)>* body_ = nullptr;  ///< set while running
  std::exception_ptr error_;  ///< first exception escaping a body
};

/// Wall-clock backend with injected delays.
class RealTimeModel final : public TimeModel {
 public:
  /// Delays below `spin_threshold` busy-wait (accuracy); longer ones sleep
  /// (the host has few cores; spinning starves other PE threads).
  explicit RealTimeModel(int npes = 0, Nanos spin_threshold = 100'000);

  void reset(int npes) override;
  void advance(int pe, Nanos dt) override;
  Nanos now(int pe) const override;
  void set_delivery_hook(DeliveryHook hook) override;
  bool is_virtual() const noexcept override { return false; }
  int npes() const noexcept override { return npes_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  Nanos spin_threshold_;
  int npes_ = 0;
};

}  // namespace sws::net
