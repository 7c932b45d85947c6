// Circular task-slot buffer in symmetric memory.
//
// Both queue implementations (SDC and SWS) store tasks in a ring of
// fixed-size slots allocated on the symmetric heap, addressed by
// *absolute* (monotonically increasing) indices taken mod capacity.
// Absolute indices make interval reasoning trivial: local [split, head),
// shared [tail, split), reclaimed < itail — with wrap handled only at the
// byte-copy boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "pgas/runtime.hpp"

namespace sws::core {

class QueueBuffer {
 public:
  /// Allocates capacity*slot_bytes symmetric bytes. `capacity` must be a
  /// power of two is NOT required; wrap uses modulo.
  QueueBuffer(pgas::SymmetricHeap& heap, std::uint32_t capacity,
              std::uint32_t slot_bytes);

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint32_t slot_bytes() const noexcept { return slot_bytes_; }
  pgas::SymPtr base() const noexcept { return base_; }

  /// Slot index of an absolute position.
  std::uint32_t wrap(std::uint64_t abs) const noexcept {
    return static_cast<std::uint32_t>(abs % capacity_);
  }

  /// Owner-side slot pointer (PE-local, no communication).
  std::byte* slot_ptr(pgas::PeContext& ctx, std::uint64_t abs) const;

  /// Owner-side store/load of a task at an absolute index.
  void write_local(pgas::PeContext& ctx, std::uint64_t abs,
                   const Task& t) const;
  Task read_local(pgas::PeContext& ctx, std::uint64_t abs) const;

  /// Thief-side: one-sided get of `n` slots starting at slot index
  /// `start_mod` on `victim`, deserialized into `out`. Issues one get, or
  /// two when the block wraps the ring (real RDMA pays the same split).
  /// Returns false, appending nothing, when the victim died under the
  /// copy: the get then returned the fabric's filler (the blocking op's
  /// NIC error status), not task slots.
  bool get_remote(pgas::PeContext& thief, int victim, std::uint32_t start_mod,
                  std::uint32_t n, std::vector<Task>& out) const;

 private:
  pgas::SymPtr base_;
  std::uint32_t capacity_;
  std::uint32_t slot_bytes_;
};

}  // namespace sws::core
