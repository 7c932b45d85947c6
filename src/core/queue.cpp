#include "core/queue.hpp"

#include "core/recovery.hpp"

namespace sws::core {

TaskQueue::TaskQueue(pgas::Runtime& rt, const QueueConfig& queue)
    : buffer_(rt.heap(), queue.capacity, queue.slot_bytes),
      local_(static_cast<std::size_t>(rt.npes())) {}

void TaskQueue::reset_pe(pgas::PeContext& ctx) {
  local(ctx) = LocalHalf{};
  reset_shared(ctx);
}

std::uint32_t TaskQueue::take_recovered(pgas::PeContext& ctx,
                                        std::vector<Task>& out) {
  LocalHalf& l = local(ctx);
  if (l.recovered.empty()) return 0;
  const auto n = static_cast<std::uint32_t>(l.recovered.size());
  out.insert(out.end(), l.recovered.begin(), l.recovered.end());
  l.recovered.clear();
  return n;
}

StealResult TaskQueue::dead_victim(pgas::PeContext& thief, int victim) {
  if (recovery_ != nullptr) recovery_->note_dead(thief.pe(), victim);
  return {StealOutcome::kPeerDead, 0};
}

}  // namespace sws::core
