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
// Sequencer hot path (docs/performance.md): the ready set is a tournament
// tree of packed 8-byte (vtime, pe) keys, and the running PE caches a
// *horizon* — the minimum of every other PE's clock and the earliest
// pending nbi deadline. advance() calls that keep the clock strictly below
// the horizon touch no tree, fire no hook, and switch no fiber; only
// crossing the horizon enters the sequencer, which picks the next PE from
// the tree and switches straight to its fiber, whose saved context sits in
// the PE's slot beside its clock and horizon. Anything that could schedule
// an event below the running PE's horizon must shrink it via
// clamp_horizon() (the fabric does this on every nbi enqueue). The delivery
// hook reports the earliest still-pending deadline; the sequencer caps
// horizons with it and calls the hook again only once the time floor
// reaches it. Installing a ReadyArbiter disables horizon batching
// entirely: the schedule explorer must observe every potential tie.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "net/fiber.hpp"
#include "net/ready_tree.hpp"
#include "net/types.hpp"

namespace sws::net {

/// Sentinel "no pending deadline" for DeliveryHook results: later than any
/// representable virtual time.
inline constexpr Nanos kNoPendingDeadline = ~Nanos{0};

/// Callback invoked by the virtual sequencer when global time reaches a
/// new floor `now` at or past the earliest pending deadline it knows of;
/// the fabric uses it to deliver pending non-blocking operations whose
/// deadline has passed. Returns the earliest deadline still pending after
/// the sweep (kNoPendingDeadline if none) — the sequencer caps
/// run-to-horizon batching with it so no delivery is ever skipped over,
/// and skips the call on floors below it. That skip needs every new
/// pending deadline announced through clamp_horizon(); dropping pending
/// operations needs nothing (the true minimum only rises). Runs inside the
/// sequencer — it must only touch fabric/pending state, never call back
/// into the time model.
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
  /// Default: one std::thread per PE.
  virtual void run_pes(int npes, const std::function<void(int)>& body);

  /// Advance PE `pe`'s clock by `dt`, blocking the caller accordingly.
  virtual void advance(int pe, Nanos dt) = 0;

  /// Current clock of PE `pe`.
  virtual Nanos now(int pe) const = 0;

  /// Inform the sequencer that an event (e.g. an nbi delivery deadline)
  /// was scheduled at virtual time `deadline` by the running PE `pe`.
  /// Virtual backend: shrinks pe's batching horizon so the deadline is
  /// not skipped over, and makes the delivery hook fire once the time
  /// floor reaches it; may only be called by the running PE. Real
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
  int npes() const noexcept override { return npes_; }

  /// Install (or clear, with nullptr) the ready-set arbiter. Survives
  /// reset() — it is sequencer configuration, like the delivery hook.
  /// Must not be called while PEs are running. While installed,
  /// run-to-horizon batching is disabled so every advance() is a
  /// potential branch point for the explorer.
  void set_ready_arbiter(ReadyArbiter arb);

  /// PE-to-PE fiber handoffs in the current (or last) run: advances that
  /// passed the baton plus finishing PEs that handed it on. 0 on a 1-PE
  /// run. Deterministic for a given program and seed.
  std::uint64_t switches() const noexcept { return switches_; }

 private:
  /// Everything a handoff touches of the PE it switches to — the clock
  /// its horizon is computed from, the horizon, and the saved stack
  /// pointer — in one 32-byte-aligned slot (32 bytes in plain builds).
  struct alignas(32) PeSlot {
    /// Authoritative clock, written only by the running PE (or by reset).
    std::atomic<Nanos> vtime{0};
    /// Fast-path cap: advance() stays in the fast path while the
    /// resulting clock is *strictly* below this. Set by the sequencer when
    /// the PE is activated, then shrunk only by clamp_horizon().
    Nanos horizon = 0;
    /// The PE's fiber while it is switched out; armed on fibers_[pe]'s
    /// stack by run_pes().
    FiberContext ctx;
    bool finished = false;
  };

  /// Pick the next runnable PE: minimum vtime, ties resolved by the
  /// arbiter when one is installed (else by id); -1 if none left.
  /// `caller` is the PE whose advance/finish triggered the pick.
  int pick_next(int caller);
  /// Make `next` the running PE (-1: none left): fire the delivery hook
  /// for the new time floor and refresh `next`'s horizon.
  void activate(int next);
  /// Fire the hook at `pe`'s clock if a delivery may be due, and compute
  /// its fresh horizon: min(second-lowest ready clock, earliest pending
  /// delivery deadline); 0 (batching off) in arbiter mode.
  Nanos refresh_horizon(int pe);
  /// Suspend `pe`'s fiber and resume the active PE's, or the run_pes()
  /// caller when none is active. `exiting`: `pe` has finished.
  void switch_from(int pe, bool exiting);
  /// Body of every PE fiber: run the PE that is active when it starts.
  static void fiber_main(void* self);
  /// `pe`'s body returned: retire it and switch away for good.
  void finish(int pe);

  PeSlot& slot(int pe) { return slots_[static_cast<std::size_t>(pe)]; }
  const PeSlot& slot(int pe) const {
    return slots_[static_cast<std::size_t>(pe)];
  }

  std::unique_ptr<PeSlot[]> slots_;  ///< slot_capacity_ slots, reused
  int slot_capacity_ = 0;
  int npes_ = 0;
  ReadyTree ready_;  ///< ready PEs keyed by (vtime, pe)
  std::atomic<int> active_{-1};  ///< the running PE
  DeliveryHook hook_;
  /// Lower bound on the earliest pending delivery deadline: what the hook
  /// last reported, lowered by clamp_horizon(). The hook is skipped while
  /// the time floor stays below it. 0 after reset(), so each run's first
  /// event asks the hook.
  Nanos next_delivery_ = 0;
  std::uint64_t switches_ = 0;  ///< see switches()
  ReadyArbiter arbiter_;
  SampleHook sample_hook_;
  Nanos sample_interval_ = 0;  ///< 0 = sampling off
  Nanos next_sample_ = 0;      ///< next unfired boundary
  std::vector<int> ready_scratch_;  ///< reused per pick

  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< PE stacks, reused
  FiberContext caller_;  ///< the thread inside run_pes()
  const std::function<void(int)>* body_ = nullptr;  ///< set while running
  std::exception_ptr error_;  ///< first exception escaping a body
};

/// Wall-clock backend with injected delays.
class RealTimeModel final : public TimeModel {
 public:
  explicit RealTimeModel(int npes = 0);

  void reset(int npes) override;
  void advance(int pe, Nanos dt) override;
  Nanos now(int pe) const override;
  void set_delivery_hook(DeliveryHook hook) override;
  bool is_virtual() const noexcept override { return false; }
  int npes() const noexcept override { return npes_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  int npes_ = 0;
};

}  // namespace sws::net
