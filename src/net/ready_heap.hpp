// Indexed binary min-heap over PE ids keyed by (vtime, pe) — the ready
// structure of the virtual-time sequencer. Replaces the O(N) linear scan
// that ran on every advance(): top() is O(1), update()/remove() are
// O(log N), and the (vtime, pe) comparator reproduces the sequencer's
// legacy tie-break (lowest id at equal time) exactly, so schedules are
// bit-identical to the scan.
//
// The sequencer exploits one staleness freedom: the *active* PE's key may
// lag its true clock while it runs below its horizon (run-to-horizon
// batching, see time_model.hpp). That is safe because the stale key is a
// lower bound that still sorts first — the true clock stays strictly
// below every other key — and the key is refreshed via update() before
// any pick. Callers other than VirtualTimeModel should treat keys as
// authoritative.
//
// Not thread-safe: the serial sequencer uses it from its one host thread,
// the sharded one under each shard's lock.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "net/types.hpp"

namespace sws::net {

class ReadyHeap {
 public:
  /// Sentinel vtime meaning "no element": larger than any real clock.
  static constexpr Nanos kNoVtime = ~Nanos{0};

  /// Re-initialize with PEs [0, n), all at vtime 0. Identity order is
  /// already a valid heap for equal keys, so this is O(n).
  void rebuild(int n) {
    SWS_ASSERT(n >= 0);
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(n));
    pos_.assign(static_cast<std::size_t>(n), -1);
    for (int pe = 0; pe < n; ++pe) {
      pos_[static_cast<std::size_t>(pe)] = static_cast<int>(heap_.size());
      heap_.push_back(Entry{0, pe});
    }
  }

  /// Re-initialize *empty* but able to hold any pe in [0, n). The sharded
  /// sequencer keys each shard's heap by the full PE id space and inserts
  /// only its own subset; parked and running PEs move in and out freely.
  void clear(int n) {
    SWS_ASSERT(n >= 0);
    heap_.clear();
    pos_.assign(static_cast<std::size_t>(n), -1);
  }

  /// Add `pe` (currently absent) at `vtime`.
  void insert(int pe, Nanos vtime) {
    SWS_ASSERT(pe >= 0 && pe < static_cast<int>(pos_.size()));
    SWS_ASSERT_MSG(!contains(pe), "insert of a PE already in the heap");
    pos_[static_cast<std::size_t>(pe)] = static_cast<int>(heap_.size());
    heap_.push_back(Entry{vtime, pe});
    sift_up(heap_.size() - 1);
  }

  bool empty() const noexcept { return heap_.empty(); }
  int size() const noexcept { return static_cast<int>(heap_.size()); }
  bool contains(int pe) const {
    return pe >= 0 && pe < static_cast<int>(pos_.size()) &&
           pos_[static_cast<std::size_t>(pe)] >= 0;
  }

  /// PE id with the minimum (vtime, pe); -1 when empty.
  int top() const noexcept { return heap_.empty() ? -1 : heap_[0].pe; }
  Nanos top_vtime() const noexcept {
    return heap_.empty() ? kNoVtime : heap_[0].vtime;
  }

  /// Minimum vtime among every element except the top — the top's
  /// "horizon": it stays the unique minimum while strictly below this.
  /// Because the second-smallest (vtime, pe) entry is always a child of
  /// the root, only heap_[1] and heap_[2] need inspecting.
  Nanos second_vtime() const noexcept {
    Nanos s = kNoVtime;
    if (heap_.size() > 1) s = heap_[1].vtime;
    if (heap_.size() > 2 && heap_[2].vtime < s) s = heap_[2].vtime;
    return s;
  }

  /// Visit every element in unspecified (heap-internal) order. The sharded
  /// sequencer's driver uses this to scan parked global PEs for per-target
  /// window caps; O(size), no allocation.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : heap_) f(e.pe, e.vtime);
  }

  Nanos vtime_of(int pe) const {
    SWS_ASSERT(contains(pe));
    return heap_[static_cast<std::size_t>(pos_[static_cast<std::size_t>(pe)])]
        .vtime;
  }

  /// Re-key `pe` to `vtime` — works for both increase-key (the common
  /// advance() case, sift down) and decrease-key (sift up).
  void update(int pe, Nanos vtime) {
    SWS_ASSERT(contains(pe));
    const auto i =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(pe)]);
    const Nanos old = heap_[i].vtime;
    heap_[i].vtime = vtime;
    if (vtime > old)
      sift_down(i);
    else if (vtime < old)
      sift_up(i);
  }

  /// Remove `pe` (it finished): swap with the last slot, then restore the heap
  /// property in whichever direction the moved element violates it.
  void remove(int pe) {
    SWS_ASSERT(contains(pe));
    const auto i =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(pe)]);
    pos_[static_cast<std::size_t>(pe)] = -1;
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = heap_[last];
      pos_[static_cast<std::size_t>(heap_[i].pe)] = static_cast<int>(i);
      heap_.pop_back();
      if (i > 0 && less(heap_[i], heap_[parent(i)]))
        sift_up(i);
      else
        sift_down(i);
    } else {
      heap_.pop_back();
    }
  }

 private:
  struct Entry {
    Nanos vtime;
    int pe;
  };

  static std::size_t parent(std::size_t i) noexcept { return (i - 1) / 2; }

  static bool less(const Entry& a, const Entry& b) noexcept {
    return a.vtime != b.vtime ? a.vtime < b.vtime : a.pe < b.pe;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!less(heap_[i], heap_[p])) break;
      swap_entries(i, p);
      i = p;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && less(heap_[l], heap_[best])) best = l;
      if (r < n && less(heap_[r], heap_[best])) best = r;
      if (best == i) break;
      swap_entries(i, best);
      i = best;
    }
  }

  void swap_entries(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[static_cast<std::size_t>(heap_[a].pe)] = static_cast<int>(a);
    pos_[static_cast<std::size_t>(heap_[b].pe)] = static_cast<int>(b);
  }

  std::vector<Entry> heap_;
  std::vector<int> pos_;  ///< pe -> heap index, -1 = absent
};

}  // namespace sws::net
