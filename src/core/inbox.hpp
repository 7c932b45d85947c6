// Remote task spawning (paper §3: "a process may spawn tasks onto remote
// queues, although with more overhead due to communication").
//
// Each PE owns a symmetric MPSC inbox ring. A sender reserves a run of
// slots with a bounded CAS on the reserve cursor, one-sided-puts the
// serialized tasks, then publishes them by setting the first slot's
// generation tag. The owner drains published slots in order during
// scheduler progress. Per remote spawn: 2 fetches + a CAS + a put + a set —
// deliberately heavier than local spawning, matching the paper's caveat.
//
// Symmetric layout:
//   +0   reserve   next slot sequence number (senders, CAS)
//   +8   drained   next sequence the owner will consume (owner, set)
//   +16  slots     per slot: [u64 tag][slot_bytes task payload]
// A slot with tag == seq+1 holds the task for sequence `seq`; tag 0 is
// empty. Tags are full sequence numbers, so ring reuse can't ABA.
//
// Crash mode (a FaultPlan with crashes armed): each sender additionally
// keeps a host-side ledger of tasks it pushed, per target, pruned by the
// drained cursor it reads during every push anyway. If the target dies,
// the unpruned suffix is exactly the set of pushed tasks the target may
// never have drained; reroute_dead() hands them back for local
// re-execution. A task the target drained *and ran* just before dying can
// be rerouted too — execution is at-least-once with multiplicity <= 2,
// bounded to this reroute window (docs/resilience.md). Crash-free runs
// build no ledger.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "pgas/runtime.hpp"

namespace sws::core {

class DeathRegistry;

class TaskInbox {
 public:
  TaskInbox(pgas::Runtime& rt, std::uint32_t capacity,
            std::uint32_t slot_bytes);

  std::uint32_t capacity() const noexcept { return capacity_; }

  /// The symmetric range of every PE's inbox: offset and bytes. Remote
  /// spawns write nothing else, so the pool has the fabric watch it.
  std::uint64_t offset() const noexcept { return base_.off; }
  std::size_t bytes() const noexcept {
    return footprint(capacity_, slot_bytes_);
  }

  /// Collective per-PE reset; barrier before use.
  void reset_pe(pgas::PeContext& ctx);

  /// Deliver `tasks` to `target`'s inbox: reserve a run of slots with one
  /// CAS, stage every payload (and every tag but the first) into 1–2
  /// vectorized puts, then publish the whole run with a single tag AMO —
  /// the owner drains in sequence order, so tagging the first slot
  /// releases the run. A one-task push is fetch, fetch, CAS, one
  /// slot_bytes put and the tag set. Pushes as many of `tasks` as the ring
  /// has room for; returns that count (0 when full or the target is dead).
  std::uint32_t remote_push(pgas::PeContext& sender, int target,
                            std::span<const Task> tasks);

  /// Owner: consume every published task in sequence order, handing each
  /// to `sink(const Task&)`. Returns the number drained. A template so the
  /// scheduler's per-poll call builds no std::function.
  template <class Sink>
  std::uint32_t drain(pgas::PeContext& owner, Sink&& sink) {
    std::uint32_t n = 0;
    Task t;
    while (take_next(owner, t)) {
      sink(std::as_const(t));
      ++n;
    }
    return n;
  }

  /// Install the pool's death registry; enables the sender-side ledger
  /// (only consulted when the fabric has crashes armed). Null detaches.
  /// The ledger rows are built by the next reset_pe.
  void attach_recovery(DeathRegistry* registry) { recovery_ = registry; }

  /// Crash mode: move every ledgered task sent to (now known-dead)
  /// `target` and not observed drained into `out`; returns the count.
  /// These were already counted created by this sender — re-spawn them
  /// without recounting.
  std::uint32_t reroute_dead(pgas::PeContext& sender, int target,
                             std::vector<Task>& out);

 private:
  static constexpr std::uint64_t kReserveOff = 0;
  static constexpr std::uint64_t kDrainedOff = 8;
  static constexpr std::uint64_t kSlotsOff = 16;

  /// Owner: consume the next published task in sequence order into `out`;
  /// false when it is not published yet.
  bool take_next(pgas::PeContext& owner, Task& out);

  static std::size_t footprint(std::uint32_t capacity,
                               std::uint32_t slot_bytes) noexcept {
    return kSlotsOff + static_cast<std::size_t>(capacity) * (8 + slot_bytes);
  }

  std::uint64_t slot_off(std::uint64_t seq) const noexcept {
    return kSlotsOff + (seq % capacity_) * (8 + slot_bytes_);
  }

  /// Host-side send ledger, one row per sender PE (crash mode only):
  /// per-target queues of {seq, task} pushed and not yet seen drained.
  /// `per_target` stays empty unless a registry is attached: P rows per PE
  /// is P² deques, far more than a crash-free run may pay for.
  struct SenderLedger {
    std::vector<std::deque<std::pair<std::uint64_t, Task>>> per_target;
  };

  pgas::SymPtr base_;
  std::uint32_t capacity_;
  std::uint32_t slot_bytes_;
  std::vector<SenderLedger> ledgers_;
  DeathRegistry* recovery_ = nullptr;
};

}  // namespace sws::core
