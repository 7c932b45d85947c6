// Crash-stop failure detection shared by the scheduler, the queues, and
// the resilient termination detector.
//
// There is no oracle: survivors learn deaths from the fabric's poison
// verdict (net::kDeadFetchValue) on operations they were issuing anyway —
// liveness piggybacks on existing traffic — and from explicit lease-expiry
// probes in wait loops that would otherwise spin forever (an SWS owner
// waiting on a dead thief's completion, an SDC owner spinning on a lock a
// dead thief holds). A probe is one fetch of the target's heartbeat word,
// a symmetric u64 that live PEs keep at zero; reading all-ones is the
// death certificate.
//
// Knowledge is per-observer and monotone: each PE records the deaths *it*
// has witnessed, so views may transiently differ, but a dead PE never
// comes back and every path that could block on it carries a lease, so
// every survivor that needs the fact eventually probes and learns it.
//
// Everything here is gated on Fabric::crashes_planned(): a crash-free run
// never constructs probes, never reads leases, and stays byte-identical
// to pre-crash-subsystem builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "pgas/runtime.hpp"

namespace sws::core {

/// Tunables for the lease-based detector.
struct RecoveryConfig {
  /// How long a wait loop may make no observable progress before the
  /// waiter suspects a death and probes. Sized well above the worst-case
  /// completion delay of a healthy peer (outermost-tier nbi delay plus the
  /// fault layer's full retransmit budget), so a lease never breaks on a
  /// slow-but-alive PE under the default fault plans.
  net::Nanos lease_ns = 2'000'000;
  /// Pause between re-probes while waiting out a suspected peer.
  net::Nanos probe_backoff_ns = 5'000;
};

/// Per-observer death knowledge plus the probe protocol (file comment).
/// One instance per TaskPool, built only when crashes are planned;
/// reset_pe() follows the pool's run lifecycle. Plain host state: every PE
/// is a fiber on the one thread the sequencer runs.
class DeathRegistry {
 public:
  /// Size for `npes` observers and allocate the heartbeat word from `rt`'s
  /// symmetric heap (once per pool lifetime).
  void init(pgas::Runtime& rt, const RecoveryConfig& cfg);

  /// Collective per-run reset: clear this observer's knowledge and zero
  /// its heartbeat word. Call before the setup barrier.
  void reset_pe(pgas::PeContext& ctx);

  const RecoveryConfig& config() const noexcept { return cfg_; }

  /// Has `observer` witnessed `pe`'s death?
  bool known_dead(int observer, int pe) const noexcept {
    return dead_[index(observer, pe)];
  }
  /// Number of deaths `observer` has witnessed.
  int known_count(int observer) const noexcept {
    return known_[static_cast<std::size_t>(observer)];
  }
  /// Lowest-ranked PE `observer` believes alive (its termination
  /// coordinator candidate).
  int lowest_live(int observer) const noexcept;

  /// Record a death `observer` witnessed through a poison verdict on its
  /// own traffic (no fabric op). Returns true when this is news.
  bool note_dead(int observer, int pe);

  /// Probe `pe`'s heartbeat word from `ctx`'s PE: one blocking fetch.
  /// Returns true (and records the death) iff `pe` is dead.
  bool probe(pgas::PeContext& ctx, int pe);

  /// Probe every peer not already known dead. Returns the number of new
  /// deaths discovered. Used on lease expiry when the waiter cannot name
  /// a specific suspect (an SWS owner awaiting an unknown thief).
  int probe_all(pgas::PeContext& ctx);

 private:
  std::size_t index(int observer, int pe) const noexcept {
    return static_cast<std::size_t>(observer) *
               static_cast<std::size_t>(npes_) +
           static_cast<std::size_t>(pe);
  }

  RecoveryConfig cfg_{};
  int npes_ = 0;
  pgas::SymPtr heartbeat_{};  ///< one u64 per PE, always 0 while alive
  std::vector<bool> dead_;  ///< npes x npes bitset, row = observer
  std::vector<int> known_;  ///< per observer: set bits in its row
};

}  // namespace sws::core
