#include "core/queue_buffer.hpp"

#include "common/assert.hpp"
#include "core/stealval.hpp"

namespace sws::core {

namespace {

/// Validate before allocating so bad parameters fail with a clear error
/// instead of a heap exhaustion.
std::size_t validated_bytes(std::uint32_t capacity, std::uint32_t slot_bytes) {
  SWS_CHECK(capacity > 0, "queue capacity must be positive");
  SWS_CHECK(capacity <= kMaxQueueCapacity,
            "queue capacity exceeds stealval tail field");
  SWS_CHECK(slot_bytes >= kTaskHeaderBytes, "slot too small for task header");
  return static_cast<std::size_t>(capacity) * slot_bytes;
}

}  // namespace

QueueBuffer::QueueBuffer(pgas::SymmetricHeap& heap, std::uint32_t capacity,
                         std::uint32_t slot_bytes)
    : base_(heap.alloc(validated_bytes(capacity, slot_bytes), 64)),
      capacity_(capacity),
      slot_bytes_(slot_bytes) {}

std::byte* QueueBuffer::slot_ptr(pgas::PeContext& ctx,
                                 std::uint64_t abs) const {
  return ctx.local(base_, static_cast<std::uint64_t>(wrap(abs)) * slot_bytes_);
}

void QueueBuffer::write_local(pgas::PeContext& ctx, std::uint64_t abs,
                              const Task& t) const {
  t.serialize(slot_ptr(ctx, abs), slot_bytes_);
}

Task QueueBuffer::read_local(pgas::PeContext& ctx, std::uint64_t abs) const {
  return Task::deserialize(slot_ptr(ctx, abs), slot_bytes_);
}

bool QueueBuffer::get_remote(pgas::PeContext& thief, int victim,
                             std::uint32_t start_mod, std::uint32_t n,
                             std::vector<Task>& out) const {
  SWS_ASSERT(n <= capacity_);
  SWS_ASSERT(start_mod < capacity_);
  std::vector<std::byte> raw(static_cast<std::size_t>(n) * slot_bytes_);

  const std::uint32_t first = std::min(n, capacity_ - start_mod);
  thief.get(victim, base_,
            static_cast<std::uint64_t>(start_mod) * slot_bytes_, raw.data(),
            static_cast<std::size_t>(first) * slot_bytes_);
  if (first < n) {
    // Wrapped steal (paper §4: "otherwise we perform a wrapped steal").
    thief.get(victim, base_, 0,
              raw.data() + static_cast<std::size_t>(first) * slot_bytes_,
              static_cast<std::size_t>(n - first) * slot_bytes_);
  }

  const net::Fabric& fab = thief.fabric();
  if (fab.crashes_planned() && !fab.alive(victim)) return false;

  out.reserve(out.size() + n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back(Task::deserialize(
        raw.data() + static_cast<std::size_t>(i) * slot_bytes_, slot_bytes_));
  return true;
}

}  // namespace sws::core
