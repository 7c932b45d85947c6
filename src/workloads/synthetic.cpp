#include "workloads/synthetic.hpp"

namespace sws::workloads {

SparseEndgame::SparseEndgame(core::TaskRegistry& registry,
                             SparseEndgameParams params)
    : params_(params) {
  fn_ = registry.register_fn(
      "synthetic.sparse",
      [p = params_](core::Worker& w, std::span<const std::byte>) {
        w.compute(p.task_ns);
      });
}

void SparseEndgame::seed(core::Worker& w) const {
  if (static_cast<std::uint32_t>(w.pe()) >= params_.busy_pes) return;
  for (std::uint64_t i = 0; i < params_.tasks_per_busy; ++i)
    w.spawn(core::Task(fn_, nullptr, 0));
}

}  // namespace sws::workloads
