// Unbalanced Tree Search (paper §5.2.2).
//
// The tree is implicit and deterministic: each node is a 20-byte SHA-1
// digest; child i's digest is SHA-1(parent_digest || i). A node's child
// count is derived from its digest, so subtree sizes vary wildly — the
// classic stress test for dynamic load balancing.
//
// Two standard tree families:
//  * Geometric — branching factor with a linearly decreasing expectation
//    b(d) = b0 · (1 − d/gen_mx), cut off at depth gen_mx.
//  * Binomial — the root has b0 children; every other node has m children
//    with probability q (q·m < 1 keeps the tree finite a.s.).
//
// The paper searches a 270-billion-node tree on 2112 cores; we use the
// same generator with smaller parameters (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "sha1/sha1.hpp"

namespace sws::workloads {

struct UtsParams {
  enum class Shape { kGeometric, kBinomial };
  /// Geometric-tree branching-factor shape functions, following the UTS
  /// benchmark's geoshape options: how the expected branching factor
  /// b(d) evolves with depth d (all cut off at gen_mx).
  enum class GeoShape {
    kLinear,   ///< b(d) = b0 * (1 - d/gen_mx)      (UTS "LINEAR", default)
    kExpDec,   ///< b(d) = b0 * (1 - d/gen_mx)^3    (UTS "EXPDEC")
    kCyclic,   ///< b(d) = b0 * |sin-profile|        (UTS "CYCLIC")
    kFixed,    ///< b(d) = b0 for every d < gen_mx   (UTS "FIXED")
  };

  Shape shape = Shape::kGeometric;
  GeoShape geo_shape = GeoShape::kLinear;
  std::uint32_t b0 = 4;        ///< root/expected branching factor
  std::uint32_t gen_mx = 10;   ///< geometric depth cutoff
  double bin_q = 0.2;          ///< binomial: P(child block)
  std::uint32_t bin_m = 4;     ///< binomial: children per block
  std::uint32_t root_seed = 19;
  net::Nanos node_compute_ns = 110;  ///< paper avg task time ≈ 0.11 µs
  /// Safety cap on a single node's children (the queue is finite).
  std::uint32_t max_children = 4096;
};

/// Number of children of a node, given its digest and depth, straight
/// from the rule: the reference UtsBranching's counts are tested against.
std::uint32_t uts_num_children(const Sha1Digest& digest, std::uint32_t depth,
                               const UtsParams& p) noexcept;

/// The same rule without a log per node. A geometric node's count never
/// decreases as its digest word r = digest_to_u32 grows (uts.cpp gives
/// the argument), so each depth keeps a row of the least words reaching
/// 1, 2, .. kRow children, built from the rule on the depth's first use;
/// a node counts the entries at or below its word, and only a word past
/// the row's last entry runs the log rule. Counts equal uts_num_children.
class UtsBranching {
 public:
  explicit UtsBranching(const UtsParams& p);

  std::uint32_t num_children(const Sha1Digest& digest,
                             std::uint32_t depth) const noexcept;

 private:
  static constexpr std::uint32_t kRow = 16;
  struct Row {
    bool built = false;
    double log_q = 0;  ///< log(1 - prob(depth)); 0 = no children
    /// below[k-1]: the greatest word with fewer than k children
    /// (2^32 - 1 when no word has k).
    std::uint32_t below[kRow] = {};
  };
  /// Out of line, so the per-node path saves no registers for it.
  [[gnu::noinline]] void build(Row& row, std::uint32_t depth) const noexcept;

  UtsParams p_;
  /// Geometric: one row per depth < gen_mx, each built on first use.
  /// Every PE is a fiber on one host thread, so the lazy build needs no
  /// synchronisation.
  mutable std::vector<Row> rows_;
};

/// Root digest for a parameter set.
Sha1Digest uts_root_digest(const UtsParams& p) noexcept;

/// Host-side sequential traversal; returns {nodes, max_depth}. The ground
/// truth the parallel searches must match.
struct UtsTreeInfo {
  std::uint64_t nodes = 0;
  std::uint32_t max_depth = 0;
  std::uint64_t leaves = 0;
};
UtsTreeInfo uts_sequential_count(const UtsParams& p);

class UtsBenchmark {
 public:
  UtsBenchmark(core::TaskRegistry& registry, UtsParams params);

  const UtsParams& params() const noexcept { return params_; }

  /// Seed: PE 0 spawns the root node task.
  void seed(core::Worker& w) const;

 private:
  struct Payload {
    std::uint8_t digest[20];
    std::uint32_t depth;
  };

  UtsParams params_;
  UtsBranching branching_;
  core::TaskFnId node_fn_ = 0;
};

}  // namespace sws::workloads
