// The clock of the simulated PGAS platform.
//
// The paper evaluates on a 44-node InfiniBand cluster. We reproduce its
// experiments on one host with a discrete-event sequencer: every PE is a
// user-space fiber (net/fiber.hpp) on the host thread that calls
// run_pes(), and exactly one runs at a time — the runnable PE is always
// the one with the minimum (virtual clock, PE id). Communication latencies
// and task compute times are charged by advance(), so a 5 ms task costs
// nothing in wall time and results are bit-deterministic. Every figure,
// golden and benchmark runs on it.
//
// Sequencer hot path (docs/performance.md): the ready set is a tournament
// tree of packed 8-byte (vtime, pe) keys, and the running PE caches a
// *horizon* — the minimum of every other PE's clock and the earliest
// pending nbi deadline. advance() calls that keep the clock strictly below
// the horizon touch no tree, fire no hook, and switch no fiber; only
// crossing the horizon enters the sequencer, which picks the next PE from
// the tree and switches straight to its fiber, whose saved context sits in
// the PE's slot beside its clock and horizon. Horizons are lazy: a freshly
// activated PE starts at horizon 0, and its first advance computes one
// only if it is still the minimum afterwards (most activated PEs switch
// away on that advance, and a smaller horizon never changes a schedule).
// Anything that could schedule an event below the running PE's horizon
// must shrink it via clamp_horizon() (the fabric does this on every nbi
// enqueue). The delivery hook reports the earliest still-pending deadline;
// the sequencer caps horizons with it and calls the hook again only once
// the time floor reaches it.
//
// Parked waits: a PE spinning on a flag in fixed poll slices can park()
// instead. It leaves the ready tree (or stays keyed at its deadline
// slice), and the writer's wake() keys it at the first slice end at which
// its polling loop would have seen the write. The slices in between are
// never run, yet every clock, delivery and sample lands where the literal
// loop puts it, so schedules are unchanged; only switches() drops.
//
// Conservative lookahead (Chandy–Misra–Bryant): another PE touches a PE's
// memory only through fabric ops, and each lands at least L (the network
// model's minimum remote latency) after its issue. So a PE X doing only
// local work — task bodies (advance_local via PeContext::compute) and
// tier-0 fabric ops — may keep running without a switch, even past other
// PEs' clocks, while its clock stays strictly below
//
//   H_X = min(lowest other ready key + L, earliest pending delivery,
//             next sampling boundary)
//
// and no blocking op targeting X is in flight. Such an op lands when its
// initiator resumes, at the initiator's key, which may lie below H_X; the
// initiator stamps its target with that landing time when its advance()
// leaves the fast path (the only way another PE can run before it lands),
// and X keeps to its exact horizon while the floor is not past the
// stamp. An unlanded op's initiator is keyed at its landing, so once the
// floor is past the stamp every such op has landed. The delivery term
// applies only while an nbi effect to or from X is pending
// (Reach::kDelivery): a delivery changes only its target's memory and
// counters and its initiator's pending count, so one that involves
// neither X nor anything X reads may land after X ran past it.
// While X runs ahead, nothing it does can be observed before the literal
// (vtime, pe) order would have run it. Anything another PE can
// observe rejoins that order first: every tier >= 1 op, every nbi issue
// (self-targeted ones too: they take a sequence number in the shared
// pending queue) and every pending_to() read call rejoin(), which re-keys
// X and switches away if any PE is below it. The exact advance() needs no
// call: a PE that ran ahead is at or past its exact horizon, so its next
// advance() takes the slow path, which re-keys and picks. A pause before
// a retried remote op (PeContext::pause) is an exact advance() too: the
// op rejoins at once, so running the pause ahead would only cost a pick.
// Lookahead is off under a ReadyArbiter and when the fabric plans
// crashes (set_lookahead(0)). Schedules are unchanged; only switches()
// drops.
//
// Installing a ReadyArbiter disables horizon batching, lookahead and
// parking entirely: the schedule explorer must observe every potential
// tie.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "net/fiber.hpp"
#include "net/ready_tree.hpp"
#include "net/types.hpp"

namespace sws::net {

/// Sentinel "no pending deadline" for DeliveryHook results: later than any
/// representable virtual time.
inline constexpr Nanos kNoPendingDeadline = ~Nanos{0};

/// How far a PE's work may run ahead of the time floor (file comment).
/// The fabric derives a local step's reach from the nbi effects pending
/// to and from the PE (VirtualTimeModel::advance_local).
enum class Reach : std::uint8_t {
  kExact,     ///< no lookahead: an exact advance() or a rejoin()
  kDelivery,  ///< an nbi effect to or from the PE is pending: stop short
              ///< of the earliest pending delivery
  kFar,       ///< no nbi effect involves the PE
};

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

/// Observation-only callback fired by the sequencer each time the
/// global time floor crosses a sampling boundary (`boundary` = k*interval
/// for k = 1, 2, ...; boundaries are never skipped, so a long batch fires
/// one call per crossed boundary, in order). Runs inside the sequencer's
/// serialization — with every other PE suspended — so it may read clocks
/// and scheduler state directly. It must never advance
/// clocks, issue fabric operations, or call back into the time model:
/// sampling is observation-only, and the determinism A/B suite enforces
/// that sampled runs are byte-identical to unsampled ones. A parked PE's
/// clock reads its pending poll-slice end during the call, and deliveries
/// are applied up to the floor the literal polling loop would have fired
/// the sample at, so parking never shows in a sample.
using SampleHook = std::function<void(Nanos boundary)>;

/// Deterministic discrete-event sequencer (see file comment).
class VirtualTimeModel {
 public:
  explicit VirtualTimeModel(int npes = 0);

  /// Re-initialize for a fresh run with `npes` participants. Must not be
  /// called while PEs are running.
  void reset(int npes);

  /// reset(npes), then run `body(pe)` for every PE in [0, npes) as a fiber
  /// on the calling thread, PE 0 first; returns when every PE has
  /// finished. The first exception that escapes a PE's body is rethrown
  /// here after all of them finish. Fiber stacks are kept across runs and
  /// only remapped when `npes` grows. Not reentrant.
  void run_pes(int npes, const std::function<void(int)>& body);

  /// Advance PE `pe`'s clock by `dt`; may only be called by the running
  /// PE, and hands the host thread to another PE once `pe` is no longer
  /// the minimum. `target`: the PE a blocking op's effect lands on when
  /// `pe` resumes (-1: none); past the fast path it keeps `target` from
  /// running ahead of that landing (file comment).
  void advance(int pe, Nanos dt, int target = -1);

  /// advance() for local work — a task body or a tier-0 fabric op — that
  /// may run ahead of the time floor, up to the lookahead horizon (file
  /// comment) that `reach_of()` allows. The fast path is advance()'s, and
  /// reach_of() is called only past the lookahead horizon.
  template <class ReachOf>
  void advance_local(int pe, Nanos dt, ReachOf&& reach_of) {
    SWS_ASSERT(pe >= 0 && pe < npes_);
    SWS_ASSERT_MSG(active_ == pe,
                   "advance_local() by a PE not holding the baton");
    PeSlot& s = slot(pe);
    const Nanos nv = s.vtime + dt;
    s.vtime = nv;
    if (nv < s.horizon) return;
    if (nv < lookahead_) {
      // Past the exact horizon, below the lookahead horizon: run on. The
      // tree key lags; rejoin() or the next slow path re-keys it.
      ahead_ = true;
      return;
    }
    repick(pe, reach_of());
  }

  /// The running PE is about to do something another PE can observe: if
  /// it ran ahead of the time floor, re-key it and switch to any PE below
  /// it first. One compare when it did not.
  void rejoin() {
    if (ahead_) repick(active_, Reach::kExact);
  }

  /// Install the lookahead distance L (0 = lookahead off): no effect of an
  /// operation lands on another PE sooner than L after its issue. The
  /// fabric sets its model's minimum remote latency, or 0 when crashes are
  /// planned. Survives reset(), like the hooks. Must not be called while
  /// PEs are running.
  void set_lookahead(Nanos min_latency) { lookahead_ns_ = min_latency; }

  /// PE `pe`'s clock. Exact from any PE (they share one host thread) and
  /// after run_pes() returns; a parked PE's clock is exact only inside the
  /// sample hook and once it resumes.
  Nanos now(int pe) const;

  /// The running PE `pe` waits for a write in a loop of `period`-long poll
  /// slices started at its clock t0. Instead of running each slice, park
  /// suspends it until the first slice end t0 + k·period (k >= 1) that
  /// either follows a wake() or is at or past `deadline`, and returns
  /// there with the clock at that slice end: exactly where repeating
  /// advance(pe, period) while re-checking would have stopped. The caller
  /// re-checks its condition and parks again if it still fails (a spurious
  /// wake re-parks on the same slice grid). `deadline` is the PE's planned
  /// crash time, kNoPendingDeadline if none. With an arbiter installed,
  /// park is one advance(pe, period). Asserts, naming them, when every
  /// unfinished PE is parked with nobody left to wake them.
  void park(int pe, Nanos period, Nanos deadline = kNoPendingDeadline);

  /// The running PE `writer` has just written memory that PE `pe` may be
  /// parked polling. Keys `pe` at the first of its slice ends t with
  /// (t, pe) after (writer's clock, writer) in (vtime, pe) order — the
  /// first poll that observes the write — if that is earlier than its
  /// current key, and clamps the writer's horizon to t. A no-op unless
  /// `pe` is parked.
  void wake(int pe, int writer);

  /// Inform the sequencer that an event (e.g. an nbi delivery deadline)
  /// was scheduled at virtual time `deadline` by the running PE `pe`:
  /// shrinks pe's batching horizon so the deadline is not skipped over,
  /// and makes the delivery hook fire once the time floor reaches it.
  void clamp_horizon(int pe, Nanos deadline);

  void set_delivery_hook(DeliveryHook hook);

  /// Install (or clear, with nullptr / interval 0) the windowed sampling
  /// hook. Fires at every multiple of `interval_ns` the global floor
  /// crosses, capping run-to-horizon batches (but never schedules) at the
  /// next boundary so samples land on time. Must not be called while PEs
  /// are running.
  void set_sample_hook(SampleHook hook, Nanos interval_ns);

  /// Install (or clear, with nullptr) the ready-set arbiter. Survives
  /// reset() — it is sequencer configuration, like the delivery hook.
  /// Must not be called while PEs are running. While installed,
  /// run-to-horizon batching is disabled so every advance() is a
  /// potential branch point for the explorer.
  void set_ready_arbiter(ReadyArbiter arb);

  /// PE-to-PE fiber handoffs in the current (or last) run: advances and
  /// parks that passed the baton plus finishing PEs that handed it on. A
  /// parked PE's skipped poll slices are not handoffs. 0 on a 1-PE run.
  /// Deterministic for a given program and seed.
  std::uint64_t switches() const noexcept { return switches_; }

 private:
  /// Everything a handoff touches of the PE it switches to — the clock
  /// its horizon is computed from, the horizon, and the saved stack
  /// pointer — in one 32-byte-aligned slot (32 bytes in plain builds).
  struct alignas(32) PeSlot {
    /// Authoritative clock, written only by the running PE (or by reset).
    Nanos vtime = 0;
    /// Fast-path cap: advance() stays in the fast path while the
    /// resulting clock is *strictly* below this. 0 when the PE is
    /// activated; computed by the first advance that leaves it the
    /// minimum, then shrunk only by clamp_horizon() and wake().
    Nanos horizon = 0;
    /// The PE's fiber while it is switched out; armed on fibers_[pe]'s
    /// stack by run_pes().
    FiberContext ctx;
    bool finished = false;
  };

  /// A parked PE's poll loop: slices of `period` from `t0`. `key` is its
  /// ready-tree key (kNoVtime: out of the tree); `period` 0 = not parked.
  struct Park {
    Nanos t0 = 0;
    Nanos period = 0;
    Nanos key = ReadyTree::kNoVtime;
    /// First slice end at or past `t`: t0 + k·period, k >= 1.
    Nanos slice_end(Nanos t) const {
      const Nanos k = t > t0 ? (t - t0 + period - 1) / period : 1;
      return t0 + k * period;
    }
  };

  /// Pick the next runnable PE: minimum vtime, ties resolved by the
  /// arbiter when one is installed (else by id); -1 if none left.
  /// `caller` is the PE whose advance/finish triggered the pick.
  int pick_next(int caller);
  /// Make `next` the running PE (-1: none left) and fire the hooks for
  /// the new time floor. Its horizon starts at 0: its first advance
  /// computes one only if it is still the minimum then.
  void activate(int next);
  /// Fire the delivery hook at `floor` unless nothing can be due yet.
  void deliver_due(Nanos floor);
  /// Fire the delivery hook at floor `now` if a delivery may be due, and
  /// the sample hook once per boundary the floor has crossed.
  void fire_hooks(Nanos now);
  /// Set every parked PE's clock to its pending slice end at sampling
  /// boundary `b`; returns the earliest of them, capped at `now` — the
  /// floor at which the literal polling loops would have fired `b`.
  Nanos park_clocks_at(Nanos b, Nanos now);
  /// The assert message naming every parked PE.
  std::string parked_pes() const;
  /// fire_hooks() at `pe`'s clock, then its fresh horizon: min(second-
  /// lowest ready clock, earliest pending delivery deadline, next sampling
  /// boundary); 0 (batching off) in arbiter mode. Also sets lookahead_
  /// from the same second-lowest clock and `reach`.
  Nanos refresh_horizon(int pe, Reach reach);
  /// H for `pe` whose lowest other ready key is `floor`: min(floor + L,
  /// next sampling boundary), and the earliest pending delivery under
  /// Reach::kDelivery; 0 under Reach::kExact, with lookahead off, or
  /// while a blocking op to `pe` may be in flight (inflight_until_).
  Nanos lookahead_horizon(int pe, Nanos floor, Reach reach) const;
  /// The slow path of every advance: re-key the running PE `pe` at its
  /// clock and pick. Still the minimum: refresh its horizons. Otherwise
  /// keep the baton if `reach` lets it run ahead of the new minimum, else
  /// switch to it.
  void repick(int pe, Reach reach);
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
  int active_ = -1;  ///< the running PE
  DeliveryHook hook_;
  /// Lower bound on the earliest pending delivery deadline: what the hook
  /// last reported, lowered by clamp_horizon(). The hook is skipped while
  /// the time floor stays below it. 0 after reset(), so each run's first
  /// event asks the hook.
  Nanos next_delivery_ = 0;
  std::uint64_t switches_ = 0;  ///< see switches()
  Nanos lookahead_ns_ = 0;  ///< L of set_lookahead(); 0 = lookahead off
  /// The running PE's local-work cap: advance_local() runs on while the
  /// clock stays strictly below it. 0 on activation; set with the
  /// horizon, shrunk by clamp_horizon() and wake() like it.
  Nanos lookahead_ = 0;
  /// The running PE may be past its exact horizon (rejoin()).
  bool ahead_ = false;
  /// Per PE: one past the latest landing of a blocking op to it whose
  /// initiator left advance()'s fast path. While the floor is below it,
  /// such an op may be in flight and the PE gets no lookahead.
  std::vector<Nanos> inflight_until_;
  ReadyArbiter arbiter_;
  SampleHook sample_hook_;
  Nanos sample_interval_ = 0;  ///< 0 = sampling off
  Nanos next_sample_ = 0;      ///< next unfired boundary
  std::vector<int> ready_scratch_;  ///< reused per pick
  std::vector<Park> parks_;         ///< per PE, reused
  int nparked_ = 0;                 ///< PEs with parks_[pe].period != 0

  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< PE stacks, reused
  FiberContext caller_;  ///< the thread inside run_pes()
  const std::function<void(int)>* body_ = nullptr;  ///< set while running
  std::exception_ptr error_;  ///< first exception escaping a body
};

}  // namespace sws::net
