// Deterministic fault injection for the simulated fabric.
//
// A FaultPlan describes adverse network behaviour — latency spikes,
// dropped-then-retransmitted or duplicated non-blocking ops, and
// crash-stop PE failures. The FaultInjector draws every decision from
// per-initiator-PE Xoshiro streams under a fixed seed, and all penalties
// are charged in the fabric's virtual time, so faulty runs are exactly as
// reproducible as clean ones.
//
// Fault semantics (docs/protocols.md "Fault model"):
//  * A latency spike stretches the initiator-blocking charge of an op; it
//    never reorders memory effects by itself.
//  * A "dropped" nbi op models transport-level loss with retransmission:
//    the memory effect still happens, but only after one or more
//    retransmit delays. The op stays pending the whole time, so
//    `Fabric::quiet()` and the pool's termination barrier still cover it.
//  * A duplicated nbi op delivers its memory effect twice — the second
//    copy after an extra delay. Both copies count as pending until
//    delivered. Consumers (completion spaces, SDC completion ring) must
//    be idempotent against this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/types.hpp"

namespace sws::net {

/// A crash-stop failure: PE `pe` dies permanently at the first operation
/// boundary (fabric op issue, compute slice, quiet poll) whose virtual
/// time is >= `at_ns`. A dead PE's fiber unwinds via net::PeKilled, its
/// queued nbi effects are dropped, and every later op targeting it
/// returns the poison verdict (Fabric::kDeadFetchValue) instead of a
/// memory effect — crash-stop, not crash-recovery: the PE never returns.
/// Crashes are plan-driven and need no RNG stream, so a plan with only
/// crashes does not instantiate a FaultInjector.
struct CrashEvent {
  int pe = -1;
  Nanos at_ns = 0;
};

/// The fixed magnitudes of each fault class; a plan sets only how often
/// each fires. kMaxRetransmits × kRetransmitNs (320 µs) is the longest a
/// lost op can stay in flight, the bound RecoveryConfig::lease_ns is sized
/// against (docs/resilience.md).
inline constexpr double kSpikeFactor = 10.0;  ///< spiked charge = base × 10
inline constexpr Nanos kRetransmitNs = 20'000;  ///< per lost transmission
inline constexpr std::uint32_t kMaxRetransmits = 16;  ///< loss bound
inline constexpr Nanos kDupDelayNs = 5'000;  ///< duplicate lands this later

/// A complete description of what can go wrong on the fabric.
/// Default-constructed plans inject nothing and cost nothing.
struct FaultPlan {
  // --- latency spikes on blocking charges (every op kind) ---------------
  double spike_rate = 0.0;  ///< probability an op's charge spikes

  // --- delivery-time faults on non-blocking ops -------------------------
  double drop_rate = 0.0;  ///< per-transmission loss probability
  double dup_rate = 0.0;   ///< probability an nbi op delivers twice

  // --- crash-stop failures ----------------------------------------------
  std::vector<CrashEvent> crashes;

  bool spikes_enabled() const noexcept { return spike_rate > 0.0; }
  bool delivery_faults_enabled() const noexcept {
    return drop_rate > 0.0 || dup_rate > 0.0;
  }
  bool duplicates_possible() const noexcept { return dup_rate > 0.0; }
  /// Any crash-stop failures planned? Crashes bypass the injector: the
  /// fabric arms them directly (they draw no random decisions), so this is
  /// deliberately NOT part of enabled().
  bool crashes_enabled() const noexcept { return !crashes.empty(); }
  /// Anything at all to inject? The fabric only instantiates an injector
  /// (and only pays any per-op cost) when this is true.
  bool enabled() const noexcept {
    return spikes_enabled() || delivery_faults_enabled();
  }
};

/// What the injector actually did, per initiating PE.
struct FaultStats {
  std::uint64_t spikes = 0;
  std::uint64_t spike_extra_ns = 0;
  std::uint64_t drops = 0;  ///< lost transmissions (an op may lose several)
  std::uint64_t retransmit_extra_ns = 0;
  std::uint64_t dups = 0;
};

/// Draws fault decisions. One instance per Fabric; per-PE RNG streams and
/// stats keep it deterministic under the sequencer: a PE's verdicts do not
/// depend on how other PEs' ops interleave with its own.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int npes);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Reseed the decision streams so back-to-back runs reproduce; keeps
  /// accumulated stats (they are per-process, like FabricStats).
  void new_run();

  /// Extra initiator-blocking time (a spike, or 0) for an op whose base
  /// charge is `base`.
  Nanos charge_penalty(int initiator, Nanos base);

  struct Delivery {
    Nanos extra_delay = 0;      ///< added to the op's delivery deadline
    bool duplicate = false;     ///< enqueue a second copy of the effect
    Nanos dup_extra_delay = 0;  ///< duplicate lands this much later again
  };
  /// Delivery-time verdict for a non-blocking op. Called at issue time,
  /// on the initiating PE.
  Delivery delivery_verdict(int initiator);

  const FaultStats& stats(int pe) const;

 private:
  struct PerPe {
    Xoshiro256 rng{0};
    FaultStats stats{};
  };

  FaultPlan plan_;
  std::vector<PerPe> pes_;
};

}  // namespace sws::net
