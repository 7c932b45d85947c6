// Network cost model: maps (operation, payload size, tier distance) to
// the initiator-blocking time the fabric charges.
//
// The model is tier-structured: a Topology (net/topology.hpp) says how
// far apart two PEs are, and a per-tier LinkParams table says what a hop
// at that distance costs. The flat defaults approximate an EDR
// InfiniBand fabric of the class the paper used (ConnectX-6, ~1.5 µs
// one-sided small-op completion latency, 100 Gb/s ≈ 12.5 B/ns payload
// bandwidth). Both protocols run over the same model, so the SDC:SWS
// comparisons depend only on *relative* costs, which is exactly what the
// reproduction needs (see DESIGN.md §2 and docs/topology.md).
#pragma once

#include <cstddef>
#include <vector>

#include "net/fault.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"

namespace sws::net {

/// Cost parameters of one topology tier's links. Tier t uses
/// NetworkParams::links[t-1]; the self tier (t == 0) is covered by the
/// local_* fields instead.
struct LinkParams {
  Nanos amo_latency = 1500;    ///< remote fetching atomic, initiator-blocking
  Nanos get_latency = 1500;    ///< remote get base latency
  Nanos put_latency = 1400;    ///< remote put base latency
  double bandwidth = 12.5;     ///< payload bytes per nanosecond
  Nanos nbi_delay = 1800;      ///< delivery delay of non-blocking ops
  /// NIC occupancy at the target: each op over this link holds the
  /// target's NIC for this long, so concurrent ops against one PE
  /// serialize — what makes a contended victim (thief storms, lock
  /// convoys) expensive. 0 disables the queueing model.
  Nanos target_occupancy = 250;

  LinkParams scaled(double factor) const noexcept;
};

struct NetworkParams {
  /// Machine shape. Flat (the default) = one link tier covering every
  /// non-self pair, which is what the paper-figure benches use.
  TopologySpec topology{};
  /// links[t-1] parameterizes tier t. Must have exactly
  /// topology.ntiers() entries (validate()).
  std::vector<LinkParams> links = std::vector<LinkParams>(1);

  Nanos local_overhead = 60;       ///< any op whose target is the initiator
  double local_bandwidth = 100.0;  ///< local payload bytes per nanosecond
  Nanos nbi_issue_overhead = 80;   ///< initiator cost to *issue* an nbi op

  /// Adverse-network injection (chaos testing). Default plan injects
  /// nothing and the fabric skips the injector entirely — zero cost and
  /// zero behavioural effect when off.
  FaultPlan faults{};

  /// N-tier fabric over `spec`: tier links derived from the defaults with
  /// geometric scaling — each step inward scales latency by 0.15 and
  /// bandwidth by 3.2. Outermost tier keeps the flat defaults. Over "*xN"
  /// (unbounded nodes of N PEs) the intra-node links run at 0.15x the
  /// inter-node latencies (shared-memory ops ~200 ns vs 1.5 µs) and
  /// 40 B/ns.
  static NetworkParams tiered(TopologySpec spec);

  /// Uniform latency scaling across every tier, for the latency-sweep
  /// ablations.
  NetworkParams scaled(double factor) const;

  /// Tier t's link table entry (t >= 1, clamped to the last entry so a
  /// short table still answers).
  const LinkParams& link(Tier t) const noexcept;
  LinkParams& link(Tier t) noexcept;

  /// Reject inconsistent configurations: the link table must match the
  /// topology's tier count, the spec must hold `npes` PEs, and rates
  /// must be positive. The runtime calls this at construction, so a
  /// conflicting topology/link spec fails loudly instead of silently
  /// costing the wrong tier.
  void validate(int npes) const;
};

class NetworkModel {
 public:
  NetworkModel() : NetworkModel(NetworkParams{}, 0) {}
  explicit NetworkModel(NetworkParams p, int npes = 0);

  const NetworkParams& params() const noexcept { return p_; }
  const Topology& topology() const noexcept { return topo_; }
  int ntiers() const noexcept { return topo_.ntiers(); }

  /// Tier distance of `target` as seen by `initiator` (0 = self).
  Tier tier(int initiator, int target) const noexcept {
    return topo_.distance(initiator, target);
  }

  /// Initiator-blocking cost of an operation crossing `t` tiers.
  Nanos cost(OpKind kind, std::size_t bytes, Tier t) const noexcept;

  /// Virtual delay between issuing a non-blocking op and its memory
  /// effect becoming visible at a target `t` tiers away.
  Nanos delivery_delay(std::size_t bytes, Tier t) const noexcept;

  /// Lower bound on the delay between any PE issuing an operation and its
  /// effect on another PE: the smallest blocking-op latency or nbi delay
  /// over every link tier. The sequencer's lookahead (time_model.hpp) lets
  /// a PE doing only local work run this far past the time floor.
  Nanos min_remote_latency() const noexcept;

 private:
  NetworkParams p_{};
  Topology topo_{};
};

}  // namespace sws::net
