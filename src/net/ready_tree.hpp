// Tournament (winner) tree over PE ids keyed by (vtime, pe) — the ready
// structure of the virtual-time sequencer. The leaves are the PEs, padded
// to a power of two with kNoVtime; every internal node holds the
// (vtime, pe) entry of its subtree's minimum, so the root is the runnable
// PE. The (vtime, pe) order breaks ties by lowest id, the sequencer's
// deterministic default.
//
// update() replays the log2(leaves) matches on the leaf's fixed path to
// the root: each level loads the sibling's winner and keeps the smaller
// entry with a branch-free select, so the loop has a fixed trip count and
// no data-dependent branches to mispredict. A winner tree (not a loser
// tree) because the replay is valid for *any* leaf: the schedule explorer's
// arbiter activates tied PEs that are not the current top.
//
// The sequencer exploits one staleness freedom: the *active* PE's key may
// lag its true clock while it runs below its horizon (run-to-horizon
// batching, see time_model.hpp). That is safe because the stale key is a
// lower bound that still wins — the true clock stays strictly below every
// other key — and the key is refreshed via update() before any pick.
//
// Not thread-safe: the sequencer uses it from its one host thread.
#pragma once

#include <cstddef>
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
    leaves_ = 1;
    while (leaves_ < un) leaves_ *= 2;
    node_.resize(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i)
      node_[leaves_ + i] = Entry{i < un ? 0 : kNoVtime, static_cast<int>(i)};
    for (std::size_t i = leaves_ - 1; i >= 1; --i)
      node_[i] = winner(node_[2 * i], node_[2 * i + 1]);
  }

  /// PE id with the minimum (vtime, pe); -1 when every PE is removed.
  int top() const noexcept {
    return node_[1].vtime == kNoVtime ? -1 : node_[1].pe;
  }

  /// Minimum vtime among every PE except the top — the top's "horizon":
  /// it stays the unique minimum while strictly below this. The runner-up
  /// lost exactly one match to the top, so it is the minimum over the
  /// sibling subtrees along the top's path.
  Nanos second_vtime() const noexcept {
    Nanos s = kNoVtime;
    for (std::size_t i = leaves_ + static_cast<std::size_t>(node_[1].pe);
         i > 1; i >>= 1) {
      const Nanos v = node_[i ^ 1].vtime;
      s = v < s ? v : s;
    }
    return s;
  }

  /// Re-key `pe` to `vtime` (increase or decrease) and replay its path.
  void update(int pe, Nanos vtime) {
    std::size_t i = leaf(pe);
    Entry w{vtime, pe};
    node_[i] = w;
    for (; i > 1; i >>= 1) {
      w = winner(w, node_[i ^ 1]);
      node_[i >> 1] = w;
    }
  }

  /// Retire `pe` (it finished): it never wins again.
  void remove(int pe) { update(pe, kNoVtime); }

 private:
  struct Entry {
    Nanos vtime;
    int pe;
  };

  std::size_t leaf(int pe) const {
    SWS_ASSERT(pe >= 0 && pe < npes_);
    return leaves_ + static_cast<std::size_t>(pe);
  }

  /// The (vtime, pe)-smaller of `a` and `b`, selected with masks rather
  /// than a branch.
  static Entry winner(Entry a, Entry b) noexcept {
    const bool b_first =
        (b.vtime < a.vtime) | ((b.vtime == a.vtime) & (b.pe < a.pe));
    const Nanos mask = Nanos{0} - static_cast<Nanos>(b_first);
    a.vtime ^= (a.vtime ^ b.vtime) & mask;
    a.pe ^= (a.pe ^ b.pe) & static_cast<int>(mask);
    return a;
  }

  std::vector<Entry> node_;  ///< [1] root, [leaves_, 2*leaves_) the leaves
  std::size_t leaves_ = 1;   ///< leaf count: npes_ rounded up to a power of 2
  int npes_ = 0;
};

}  // namespace sws::net
