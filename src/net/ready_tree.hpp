// Tournament (winner) tree over PE ids keyed by (vtime, pe) — the ready
// structure of the virtual-time sequencer. The leaves are the PEs, padded
// to a power of two; every internal node holds its subtree's minimum key,
// so the root is the runnable PE.
//
// A key is one uint64_t, `vtime << b | pe`, where b = log2(padded leaf
// count) is fixed by reset(). Integer order on keys is (vtime, pe) order,
// so ties break by lowest id — the sequencer's deterministic default —
// and every match is a plain std::min. The all-ones key marks a finished
// PE or a padding leaf; real clocks stay below 2^(64-b) - 1 so no real
// key reaches it (update() checks; at 4096 PEs that is 52 days of virtual
// time).
//
// update() replays the log2(leaves) matches on the leaf's fixed path to
// the root: each level loads the sibling's key and keeps the smaller, so
// the loop has a fixed trip count and no data-dependent branches. A
// winner tree (not a loser tree) because the replay is valid for *any*
// leaf: the schedule explorer's arbiter activates tied PEs that are not
// the current top.
//
// The sequencer exploits one staleness freedom: the *active* PE's key may
// lag its true clock while it runs below its horizon (run-to-horizon
// batching, see time_model.hpp). That is safe because the stale key is a
// lower bound that still wins — the true clock stays strictly below every
// other key — and the key is refreshed via update() before any pick.
//
// Not thread-safe: the sequencer uses it from its one host thread.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "net/types.hpp"

namespace sws::net {

class ReadyTree {
 public:
  /// Sentinel vtime meaning "no element" (a finished PE or a padding
  /// leaf): larger than any real clock.
  static constexpr Nanos kNoVtime = ~Nanos{0};

  /// Re-initialize with PEs [0, n), all at vtime 0. Reuses the node array.
  void reset(int n) {
    SWS_ASSERT(n >= 0);
    npes_ = n;
    const auto un = static_cast<std::size_t>(n);
    leaves_ = std::bit_ceil(std::max<std::size_t>(un, 1));
    bits_ = std::countr_zero(leaves_);
    node_.resize(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i)
      node_[leaves_ + i] = i < un ? i : kNone;
    for (std::size_t i = leaves_ - 1; i >= 1; --i)
      node_[i] = std::min(node_[2 * i], node_[2 * i + 1]);
  }

  /// Clocks at or above this fail update(): their keys would reach the
  /// sentinel.
  Nanos vtime_limit() const noexcept { return kNone >> bits_; }

  /// PE id with the minimum (vtime, pe); -1 when every PE is removed.
  int top() const noexcept {
    return node_[1] == kNone ? -1 : static_cast<int>(node_[1] & pe_mask());
  }

  /// Minimum vtime among every PE except the top — the top's "horizon":
  /// it stays the unique minimum while strictly below this. The runner-up
  /// lost exactly one match to the top, so it is the minimum over the
  /// sibling subtrees along the top's path.
  Nanos second_vtime() const noexcept {
    Key s = kNone;
    for (std::size_t i = leaves_ + (node_[1] & pe_mask()); i > 1; i >>= 1)
      s = std::min(s, node_[i ^ 1]);
    return s == kNone ? kNoVtime : s >> bits_;
  }

  /// Re-key `pe` to `vtime` (increase or decrease) and replay its path.
  void update(int pe, Nanos vtime) {
    SWS_CHECK(vtime < vtime_limit(),
              "virtual clock beyond the ready tree's key range");
    replay(pe, vtime << bits_ | static_cast<Key>(pe));
  }

  /// Take `pe` out (it finished, or parked): it never wins again until
  /// update() re-keys it.
  void remove(int pe) { replay(pe, kNone); }

 private:
  using Key = std::uint64_t;
  static constexpr Key kNone = ~Key{0};

  Key pe_mask() const noexcept { return (Key{1} << bits_) - 1; }

  void replay(int pe, Key k) {
    SWS_ASSERT(pe >= 0 && pe < npes_);
    std::size_t i = leaves_ + static_cast<std::size_t>(pe);
    node_[i] = k;
    for (; i > 1; i >>= 1) {
      k = std::min(k, node_[i ^ 1]);
      node_[i >> 1] = k;
    }
  }

  std::vector<Key> node_;   ///< [1] root, [leaves_, 2*leaves_) the leaves
  std::size_t leaves_ = 1;  ///< leaf count: npes_ rounded up to a power of 2
  int bits_ = 0;            ///< log2(leaves_): the pe field's width in a key
  int npes_ = 0;
};

}  // namespace sws::net
