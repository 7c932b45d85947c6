#include "core/completion.hpp"

#include <cstring>

#include "common/assert.hpp"

namespace sws::core {

CompletionSpace::CompletionSpace(pgas::SymmetricHeap& heap)
    : base_(heap.alloc(sizeof(std::uint64_t) * kNumEpochs * kSlotsPerEpoch,
                       64)) {}

pgas::SymPtr CompletionSpace::slot(std::uint32_t epoch,
                                   std::uint32_t idx) const {
  SWS_ASSERT(epoch < kNumEpochs);
  SWS_ASSERT(idx < kSlotsPerEpoch);
  return base_.plus(
      (static_cast<std::uint64_t>(epoch) * kSlotsPerEpoch + idx) * 8);
}

void CompletionSpace::notify_finished(pgas::PeContext& thief, int victim,
                                      std::uint32_t epoch, std::uint32_t idx,
                                      std::uint32_t ntasks) const {
  SWS_ASSERT(ntasks > 0);
  // Slots start at zero each epoch, so add == set here; add matches the
  // paper's "atomically updates a shared array ... with the number of
  // tasks stolen". Owners read the slot only as a finished *flag*
  // (nonzero), so a duplicated delivery of this AMO within the same epoch
  // cannot corrupt reclaim accounting; cross-epoch replay is fenced by
  // the owner's pending_to() wait before epoch reuse.
  thief.nbi_add(victim, slot(epoch, idx), ntasks);
}

std::uint64_t CompletionSpace::read(pgas::PeContext& owner,
                                    std::uint32_t epoch,
                                    std::uint32_t idx) const {
  return owner.local_load(slot(epoch, idx));
}

std::uint32_t CompletionSpace::finished_prefix(pgas::PeContext& owner,
                                               std::uint32_t epoch,
                                               std::uint32_t upto) const {
  SWS_ASSERT(upto <= kSlotsPerEpoch);
  std::uint32_t n = 0;
  while (n < upto && read(owner, epoch, n) != 0) ++n;
  return n;
}

void CompletionSpace::force_finished(pgas::PeContext& owner,
                                     std::uint32_t epoch, std::uint32_t idx,
                                     std::uint32_t ntasks) const {
  SWS_ASSERT(ntasks > 0);
  // Owner-local store, mirroring read()'s local load. Safe against a
  // late duplicate of the dead thief's notify: the fabric dropped every
  // in-flight effect at mark_dead and suppresses all future ones, and the
  // caller drains pending_to() before fencing, so nothing else can touch
  // this slot again within the epoch.
  owner.local_store(slot(epoch, idx), ntasks);
}

void CompletionSpace::clear_epoch(pgas::PeContext& owner,
                                  std::uint32_t epoch) const {
  SWS_ASSERT(epoch < kNumEpochs);
  std::memset(owner.local(slot(epoch, 0)), 0,
              sizeof(std::uint64_t) * kSlotsPerEpoch);
}

}  // namespace sws::core
