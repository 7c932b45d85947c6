#include "core/inbox.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "core/recovery.hpp"

namespace sws::core {

TaskInbox::TaskInbox(pgas::Runtime& rt, std::uint32_t capacity,
                     std::uint32_t slot_bytes)
    : base_(rt.heap().alloc(
          kSlotsOff + static_cast<std::size_t>(capacity) * (8 + slot_bytes),
          64)),
      capacity_(capacity),
      slot_bytes_(slot_bytes),
      ledgers_(static_cast<std::size_t>(rt.npes())) {
  SWS_CHECK(capacity > 0, "inbox capacity must be positive");
  SWS_CHECK(slot_bytes >= kTaskHeaderBytes, "inbox slot too small");
  SWS_CHECK(slot_bytes % 8 == 0, "inbox slot size must be 8-byte aligned");
}

void TaskInbox::reset_pe(pgas::PeContext& ctx) {
  // Senders reserve by CAS before they put or tag, so every slot the last
  // run wrote has seq < reserve. Runtime::run applies every leftover nbi
  // effect before any reset, and symmetric allocations start zeroed, so
  // zeroing the header and that used prefix leaves the ring all zero.
  const std::uint64_t used = std::min<std::uint64_t>(
      ctx.local_load(base_.plus(kReserveOff)), capacity_);
  std::memset(ctx.local(base_), 0,
              kSlotsOff + static_cast<std::size_t>(used) * (8 + slot_bytes_));
  if (recovery_ == nullptr) return;  // the ledger is crash-mode state
  auto& rows = ledgers_[static_cast<std::size_t>(ctx.pe())].per_target;
  if (rows.empty()) rows.resize(static_cast<std::size_t>(ctx.npes()));
  for (auto& row : rows) row.clear();
}

std::uint32_t TaskInbox::remote_push(pgas::PeContext& sender, int target,
                                     std::span<const Task> tasks) {
  if (tasks.empty()) return 0;
  auto& fab = sender.fabric();
  const bool crash_mode = fab.crashes_planned() && recovery_ != nullptr;

  // Bounded reservation: CAS the reserve cursor forward by however many of
  // `tasks` the ring has room for. The drained cursor read may be stale,
  // which can only make us refuse — never overrun.
  std::uint64_t seq;
  std::uint64_t drained;
  std::uint64_t n;
  for (;;) {
    const std::uint64_t reserve =
        fab.amo_fetch(sender.pe(), target, base_.off + kReserveOff);
    drained = fab.amo_fetch(sender.pe(), target, base_.off + kDrainedOff);
    if (crash_mode && (reserve == net::kDeadFetchValue ||
                       drained == net::kDeadFetchValue)) {
      // Poisoned cursor: the target died. Record the death and let the
      // caller run the tasks locally.
      recovery_->note_dead(sender.pe(), target);
      return 0;
    }
    const std::uint64_t used = reserve - drained;
    if (used >= capacity_) return 0;  // full
    n = std::min<std::uint64_t>(tasks.size(), capacity_ - used);
    if (fab.amo_compare_swap(sender.pe(), target, base_.off + kReserveOff,
                             reserve, reserve + n) == reserve) {
      seq = reserve;
      break;
    }
    // Lost the race to another sender; re-check occupancy and retry.
  }

  // Stage [tag|payload] for slots seq..seq+n-1 and ship each contiguous
  // ring segment as one put (two when the run wraps). Every tag rides
  // inside the put EXCEPT the first slot's, staged as 0: the owner drains
  // strictly in sequence order, so nothing in the run is visible until the
  // closing AMO publishes that first tag — one completion tag for the
  // whole batch. Blocking ops complete in order, so the puts land first.
  const std::uint64_t stride = 8 + slot_bytes_;
  std::vector<std::byte> staged;
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t first = seq + i;
    const std::uint64_t pos = first % capacity_;
    const std::uint64_t run = std::min(n - i, capacity_ - pos);
    staged.assign(static_cast<std::size_t>(run * stride), std::byte{0});
    for (std::uint64_t j = 0; j < run; ++j) {
      std::byte* slot = staged.data() + j * stride;
      const std::uint64_t tag = first + j + 1;
      std::memcpy(slot, &tag, sizeof(tag));
      tasks[static_cast<std::size_t>(i + j)].serialize(slot + 8, slot_bytes_);
    }
    // The run's first slot is the one the owner's drain loop may already
    // be polling: keep its tag word out of the put (start at the payload)
    // so the only write that ever publishes it is the closing AMO.
    const std::uint64_t skip = first == seq ? 8 : 0;
    sender.put(target, base_, slot_off(first) + skip, staged.data() + skip,
               static_cast<std::size_t>(run * stride - skip));
    i += run;
  }
  fab.amo_set(sender.pe(), target, base_.off + slot_off(seq), seq + 1);

  if (crash_mode) {
    // Ledger the push and prune everything the drained cursor we just read
    // proves consumed. The cursor predates our own push, so our entries
    // can never be pruned by their own read.
    auto& row = ledgers_[static_cast<std::size_t>(sender.pe())]
                    .per_target[static_cast<std::size_t>(target)];
    while (!row.empty() && row.front().first < drained) row.pop_front();
    for (std::uint64_t j = 0; j < n; ++j)
      row.emplace_back(seq + j, tasks[static_cast<std::size_t>(j)]);
  }
  return static_cast<std::uint32_t>(n);
}

std::uint32_t TaskInbox::reroute_dead(pgas::PeContext& sender, int target,
                                      std::vector<Task>& out) {
  auto& row = ledgers_[static_cast<std::size_t>(sender.pe())]
                  .per_target[static_cast<std::size_t>(target)];
  std::uint32_t n = 0;
  for (auto& [seq, task] : row) {
    (void)seq;
    out.push_back(task);
    ++n;
  }
  row.clear();
  return n;
}

bool TaskInbox::take_next(pgas::PeContext& owner, Task& out) {
  const pgas::SymPtr drained_ptr = base_.plus(kDrainedOff);
  const std::uint64_t drained = owner.local_load(drained_ptr);
  const std::uint64_t tag_off = slot_off(drained);
  const std::uint64_t tag = owner.local_load(base_.plus(tag_off));
  if (tag != drained + 1) return false;  // next-in-order task not published
  out = Task::deserialize(owner.local(base_, tag_off + 8), slot_bytes_);
  // Clear the tag before advancing so the slot is reusable one full ring
  // later.
  owner.local_store(base_.plus(tag_off), 0);
  owner.local_store(drained_ptr, drained + 1);
  return true;
}

bool TaskInbox::looks_empty(pgas::PeContext& owner) const {
  const std::uint64_t reserve =
      owner.local_load(base_.plus(kReserveOff));
  const std::uint64_t drained =
      owner.local_load(base_.plus(kDrainedOff));
  return reserve == drained;
}

}  // namespace sws::core
