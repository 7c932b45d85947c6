// Shared vocabulary types for the simulated network layer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sws::net {

/// Simulated (or real) time in nanoseconds.
using Nanos = std::uint64_t;

/// Topology tier distance between two PEs: 0 = self, 1 = innermost shared
/// group (same node on a two-level fabric), up to Topology::ntiers() for
/// the whole machine (see net/topology.hpp).
using Tier = int;

/// Upper bound on link tiers a topology spec may describe. Six covers
/// core/socket/node/chassis/rack/machine with room to spare and keeps
/// per-tier counter arrays inline.
inline constexpr int kMaxTiers = 6;

/// One-sided operation kinds, mirroring the OpenSHMEM surface the paper's
/// runtime uses (put/get, fetching AMOs, and their non-blocking variants).
enum class OpKind : int {
  kPut = 0,
  kGet,
  kAmoFetchAdd,
  kAmoCompareSwap,
  kAmoSwap,
  kAmoFetch,
  kAmoSet,
  kNbiAmoAdd,
  kNbiAmoSet,
  kCount_,
};

inline constexpr std::size_t kNumOpKinds =
    static_cast<std::size_t>(OpKind::kCount_);

const char* op_kind_name(OpKind k) noexcept;

/// Per-PE communication accounting. The paper's headline claim is a comm
/// *count* reduction (6 → 3 per steal, 5 → 2 blocking); these counters are
/// what lets the benches verify that claim directly (Fig 2).
struct FabricStats {
  std::array<std::uint64_t, kNumOpKinds> ops{};
  std::uint64_t remote_ops = 0;   ///< ops whose target != initiator
  std::uint64_t local_ops = 0;    ///< ops whose target == initiator
  /// Remote ops by topology tier distance: tier_ops[t-1] counts ops whose
  /// target sits at distance t. Sums to remote_ops.
  std::array<std::uint64_t, kMaxTiers> tier_ops{};
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_got = 0;
  std::uint64_t blocking_ns = 0;  ///< total initiator-blocking time
  std::uint64_t occupancy_wait_ns = 0;  ///< queueing behind a busy target NIC
  /// Ops issued against a crashed PE: charged but effect-free, fetches
  /// returning the poison value (net/fabric.hpp kDeadFetchValue).
  std::uint64_t dead_target_ops = 0;

  std::uint64_t total_ops() const noexcept {
    std::uint64_t t = 0;
    for (auto v : ops) t += v;
    return t;
  }
  /// Blocking (initiator-stalling) remote op count: everything except nbi.
  std::uint64_t blocking_ops() const noexcept {
    return total_ops() - ops[static_cast<int>(OpKind::kNbiAmoAdd)] -
           ops[static_cast<int>(OpKind::kNbiAmoSet)];
  }
  void merge(const FabricStats& o) noexcept {
    for (std::size_t i = 0; i < kNumOpKinds; ++i) ops[i] += o.ops[i];
    remote_ops += o.remote_ops;
    local_ops += o.local_ops;
    for (std::size_t i = 0; i < tier_ops.size(); ++i)
      tier_ops[i] += o.tier_ops[i];
    bytes_put += o.bytes_put;
    bytes_got += o.bytes_got;
    blocking_ns += o.blocking_ns;
    occupancy_wait_ns += o.occupancy_wait_ns;
    dead_target_ops += o.dead_target_ops;
  }
};

}  // namespace sws::net
