#include "check/invariants.hpp"

namespace sws::check {

// ------------------------------------------------------------ TaskLedger

void TaskLedger::reset(std::uint64_t nids) {
  pushes_.assign(static_cast<std::size_t>(nids), 0);
  extracts_.assign(static_cast<std::size_t>(nids), 0);
  loss_ok_.assign(static_cast<std::size_t>(nids), 0);
  max_mult_ = 1;
  first_violation_.clear();
}

void TaskLedger::allow_loss(std::uint64_t id) {
  if (id < loss_ok_.size()) loss_ok_[static_cast<std::size_t>(id)] = 1;
}

void TaskLedger::flag(std::string msg) {
  if (first_violation_.empty()) first_violation_ = std::move(msg);
}

void TaskLedger::pushed(std::uint64_t id) {
  if (id >= pushes_.size()) {
    flag("ledger: pushed id " + std::to_string(id) + " out of range");
    return;
  }
  if (pushes_[static_cast<std::size_t>(id)]++ >= max_mult_)
    flag("ledger: id " + std::to_string(id) + " pushed " +
         std::to_string(pushes_[static_cast<std::size_t>(id)]) +
         " times (multiplicity bound " + std::to_string(max_mult_) + ")");
}

void TaskLedger::extracted(std::uint64_t id) {
  if (id >= extracts_.size()) {
    flag("ledger: extracted id " + std::to_string(id) + " out of range");
    return;
  }
  if (pushes_[static_cast<std::size_t>(id)] == 0) {
    flag("ledger: phantom task " + std::to_string(id) +
         " extracted but never pushed");
    return;
  }
  if (extracts_[static_cast<std::size_t>(id)]++ >= max_mult_)
    flag("ledger: task duplicated — id " + std::to_string(id) +
         " extracted " +
         std::to_string(extracts_[static_cast<std::size_t>(id)]) +
         " times (multiplicity bound " + std::to_string(max_mult_) + ")");
}

std::string TaskLedger::check_no_loss() const {
  if (!first_violation_.empty()) return first_violation_;
  for (std::size_t id = 0; id < pushes_.size(); ++id) {
    if (pushes_[id] != 0 && extracts_[id] == 0 && loss_ok_[id] == 0)
      return "ledger: task lost — id " + std::to_string(id) +
             " pushed but never extracted";
  }
  return {};
}

// ---------------------------------------------------- CheckedTermination

void CheckedTermination::reset_pe(pgas::PeContext& ctx) {
  if (ctx.pe() == 0) {
    created_ = 0;
    completed_ = 0;
    poisoned_ = false;
    violation_.clear();
  }
  inner_->reset_pe(ctx);
}

void CheckedTermination::count_created(pgas::PeContext& ctx, std::uint64_t n) {
  created_ += n;
  inner_->count_created(ctx, n);
}

void CheckedTermination::count_completed(pgas::PeContext& ctx,
                                         std::uint64_t n) {
  completed_ += n;
  inner_->count_completed(ctx, n);
}

void CheckedTermination::task_boundary(pgas::PeContext& ctx) {
  inner_->task_boundary(ctx);
}

bool CheckedTermination::check(pgas::PeContext& ctx) {
  if (poisoned_) return true;
  const bool done = inner_->check(ctx);
  if (done && created_ != completed_) {
    // Poison so every other PE also drains out: a run the harness knows is
    // broken must still finish, or the violation could never be reported.
    violation_ = "termination: detector reported done on PE " +
                 std::to_string(ctx.pe()) + " with " +
                 std::to_string(created_) + " created vs " +
                 std::to_string(completed_) + " completed";
    poisoned_ = true;
  }
  return done || poisoned_;
}

}  // namespace sws::check
