// Completion arrays and epochs (paper §4.1–4.2, Table 1, Figure 5).
//
// A thief that has finished copying its stolen block writes the block's
// task count into completion[epoch][block_index] on the victim with a
// non-blocking atomic — the third (passive) communication of an SWS steal.
// Slot values are the shared-task state machine of Table 1:
//   0        — block Claimed (steal in progress) or never claimed
//   nonzero  — block Finished (value = tasks copied)
// Available/Invalid are positional (inside/outside the live allotment).
//
// The owner reclaims ring space by scanning the *prefix* of finished
// blocks from the oldest epoch's tail ("all completion arrays are
// traversed to account for the longest sequence of fully completed
// steals").
#pragma once

#include <cstdint>

#include "core/stealval.hpp"
#include "pgas/runtime.hpp"

namespace sws::core {

class CompletionSpace {
 public:
  /// Upper bound on blocks per allotment: a 19-bit allotment halves to
  /// nothing in at most 19 + 1 steps; 32 leaves headroom.
  static constexpr std::uint32_t kSlotsPerEpoch = 32;

  explicit CompletionSpace(pgas::SymmetricHeap& heap);

  /// Symmetric location of completion[epoch][idx].
  pgas::SymPtr slot(std::uint32_t epoch, std::uint32_t idx) const;

  /// Thief side: mark block `idx` of `epoch` finished on `victim` with a
  /// fire-and-forget atomic (the value is the task count, always != 0).
  void notify_finished(pgas::PeContext& thief, int victim, std::uint32_t epoch,
                       std::uint32_t idx, std::uint32_t ntasks) const;

  /// Owner side: value of a slot (plain local read — the paper's
  /// "inspected with a local atomic operation").
  std::uint64_t read(pgas::PeContext& owner, std::uint32_t epoch,
                     std::uint32_t idx) const;

  /// Owner side: number of consecutive finished blocks in [0, upto).
  std::uint32_t finished_prefix(pgas::PeContext& owner, std::uint32_t epoch,
                                std::uint32_t upto) const;

  /// Owner side: total finished blocks in [0, upto) (order-independent).
  std::uint32_t finished_count(pgas::PeContext& owner, std::uint32_t epoch,
                               std::uint32_t upto) const;

  /// Owner side: zero an epoch's slots before reuse (acquire re-init).
  void clear_epoch(pgas::PeContext& owner, std::uint32_t epoch) const;

  /// Owner side, crash recovery only: locally mark a block finished in
  /// place of a thief that died before its notify_finished could land.
  /// The owner re-publishes the block's tasks itself (SwsQueue fence), so
  /// the reclaim prefix must be allowed to complete.
  void force_finished(pgas::PeContext& owner, std::uint32_t epoch,
                      std::uint32_t idx, std::uint32_t ntasks) const;

 private:
  pgas::SymPtr base_;
};

/// Bookkeeping for one allotment whose steals may still be in flight.
/// Created when the owner retires an allotment (release/acquire); disposed
/// once every claimed block has signalled completion and its ring space
/// has been reclaimed.
struct AllotmentRecord {
  std::uint32_t epoch = 0;
  std::uint64_t base_abs = 0;       ///< absolute ring index of first task
  std::uint32_t itasks = 0;         ///< allotment size at release
  std::uint32_t claimed_blocks = 0; ///< blocks actually claimed by thieves

  /// Absolute index one past the last claimed task — the reclaim target.
  std::uint64_t claimed_end_abs() const noexcept {
    return base_abs + steal_block_offset(itasks, claimed_blocks);
  }
};

}  // namespace sws::core
