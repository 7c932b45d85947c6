// Multi-tier machine topology: the shared description of how PEs group
// into cores/sockets/nodes/racks that the cost model, victim selection
// and per-tier accounting all consume.
//
// A TopologySpec lists group sizes; a Topology binds a spec to a concrete
// PE count and answers distance and peer-enumeration queries. The tier
// distance between two PEs is 0 for self, 1 for the innermost shared
// group (e.g. same node), rising by one for each level that must be
// crossed (same rack = 2, different rack = 3 on a rack/node/core
// machine). The paper's evaluation cluster — 44 nodes x 48 cores — is
// spec "44x48"; distbdd-spin17/wstealer's four thread-distance victim
// tiers (VERYNEAR..VERYFAR) correspond to distances 1..4 of a four-level
// spec. See docs/topology.md for the grammar and the policy catalog.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace sws::net {

/// Shape of the machine, independent of PE count.
struct TopologySpec {
  /// Group sizes, innermost-first: {48, 4, 2} = 48 PEs per node, 4 nodes
  /// per rack, 2 racks. Empty = flat: a single link tier covering every
  /// non-self pair (the shape all paper-figure benches use).
  std::vector<int> levels;

  /// Flat fabric (one tier, no grouping).
  static TopologySpec flat() noexcept { return {}; }
  /// Parse an outermost-first spec: "44x48" = 44 nodes x 48 cores,
  /// "2x4x48" = 2 racks x 4 nodes x 48 cores. "flat" or "" = flat.
  /// Throws std::invalid_argument on malformed input.
  static TopologySpec parse(const std::string& s);
  /// Inverse of parse: "2x4x48", or "flat".
  std::string to_string() const;

  /// Number of link tiers (distance values 1..ntiers). Flat = 1.
  int ntiers() const noexcept {
    return levels.empty() ? 1 : static_cast<int>(levels.size());
  }
  /// Maximum PEs the spec describes (product of levels); 0 = unbounded.
  long long capacity() const noexcept;

  bool operator==(const TopologySpec&) const = default;
};

/// A spec bound to a PE count: the queryable topology. The last group at
/// any level may be short (npes need not fill the spec's capacity),
/// mirroring how a job may get a partial rack.
class Topology {
 public:
  /// Flat topology over `npes` PEs (default: 0 — distance queries still
  /// work; peer enumeration is empty).
  Topology() = default;
  explicit Topology(int npes) : Topology(TopologySpec::flat(), npes) {}
  Topology(TopologySpec spec, int npes);

  int npes() const noexcept { return npes_; }
  int ntiers() const noexcept { return spec_.ntiers(); }
  const TopologySpec& spec() const noexcept { return spec_; }

  /// Tier distance from `a` to `b`: 0 iff a == b, else the innermost
  /// level whose group contains both (ntiers when only the whole machine
  /// does). Symmetric.
  Tier distance(int a, int b) const noexcept;

  /// Number of PEs at exactly distance `t` from `pe`.
  int peer_count(int pe, Tier t) const noexcept;
  /// k-th (0-based, ascending PE order) peer of `pe` at exactly distance
  /// `t`; O(1) and allocation-free — the sampling primitive victim
  /// policies draw through. Requires 0 <= k < peer_count(pe, t).
  int peer(int pe, Tier t, int k) const noexcept;

 private:
  /// [begin, end) of `pe`'s tier-`t` group, clipped to npes.
  void group_range(int pe, Tier t, int& begin, int& end) const noexcept;

  TopologySpec spec_{};
  int npes_ = 0;
  /// block_[t] = specced PEs per tier-t group; block_[0] = 1.
  std::array<long long, kMaxTiers + 1> block_{};
};

}  // namespace sws::net
