#include "core/pool_stats.hpp"

namespace sws::core {

const char* pool_phase_name(PoolPhase p) noexcept {
  switch (p) {
    case PoolPhase::kWorking: return "working";
    case PoolPhase::kProbing: return "probing";
    case PoolPhase::kStealing: return "stealing";
    case PoolPhase::kParked: return "parked";
    case PoolPhase::kBlockedNbi: return "blocked_nbi";
    case PoolPhase::kRecovering: return "recovering";
    case PoolPhase::kIdleTerm: return "idle_terminating";
    case PoolPhase::kCount_: break;
  }
  return "?";
}

void PoolRunReport::add(const WorkerStats& w) {
  ++npes;
  total.merge(w);
  per_pe_executed.add(static_cast<double>(w.tasks_executed));
}

}  // namespace sws::core
