// Synthetic workload for the steal-damping ablation (bench/ablation_damping):
// SparseEndgame puts a few long tasks among many idle PEs, so almost every
// steal attempt fails — exactly the regime steal damping (paper §4.3)
// targets.
#pragma once

#include <cstdint>

#include "core/scheduler.hpp"

namespace sws::workloads {

struct SparseEndgameParams {
  std::uint32_t busy_pes = 1;       ///< PEs that get any work at all
  std::uint64_t tasks_per_busy = 64;
  net::Nanos task_ns = 200'000;     ///< long tasks → long idle stretches
};

class SparseEndgame {
 public:
  SparseEndgame(core::TaskRegistry& registry, SparseEndgameParams params);

  void seed(core::Worker& w) const;

 private:
  SparseEndgameParams params_;
  core::TaskFnId fn_ = 0;
};

}  // namespace sws::workloads
