// Victim-selection policies for steal attempts.
//
// The paper (and Cilk's theory) uses uniform random selection; the other
// policies exist for ablations against it. All locality-aware policies
// consume the runtime's shared net::Topology — there is no separate
// node size to keep in sync with the network model.
//
//  * kRandom      — uniform over all other PEs (the paper's default).
//  * kRoundRobin  — deterministic cycle, for tests and worst-case scans.
//  * kTiered      — near-first with escalation, after distbdd-spin17's
//                   wstealer (VERYNEAR → ... → VERYFAR): steal from the
//                   closest tier that has peers; after two consecutive
//                   failures widen to the next tier; any success snaps
//                   back to the closest tier.
//  * kDistanceWeighted — every steal samples a tier with probability
//                   proportional to 4^(ntiers - t) * peers(t), then a
//                   uniform peer within it; a soft version of kTiered
//                   that never fixates on a starved near tier.
//
// Policy catalog and guidance: docs/topology.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace sws::core {

enum class VictimPolicy { kRandom, kRoundRobin, kTiered, kDistanceWeighted };

const char* victim_policy_name(VictimPolicy p) noexcept;
/// Inverse of victim_policy_name ("random" | "round_robin" | "tiered" |
/// "distance_weighted"); throws std::invalid_argument on unknown names.
VictimPolicy parse_victim_policy(const std::string& name);

struct VictimConfig {
  VictimPolicy policy = VictimPolicy::kRandom;
};

/// Pluggable selection policy. The scheduler asks next() for a victim
/// before every steal and reports the outcome back; stateless policies
/// ignore report().
class VictimSelector {
 public:
  virtual ~VictimSelector() = default;

  /// Next victim to try; never returns the selector's own PE. Requires
  /// at least one other PE in the topology.
  virtual int next() = 0;

  /// Outcome feedback for the victim most recently returned by next()
  /// (kTiered escalation consumes this; default ignores it).
  virtual void report(int victim, bool success) {
    (void)victim;
    (void)success;
  }
};

/// Build a selector for PE `self`. kRandom draws from the stream
/// Xoshiro256(seed, self | 1<<32) — pinned, because flat-topology
/// determinism A/B compares schedules byte-for-byte across versions.
std::unique_ptr<VictimSelector> make_victim_selector(
    const VictimConfig& cfg, const net::Topology& topo, int self,
    std::uint64_t seed);

}  // namespace sws::core
