#include "net/fault.hpp"

#include "common/assert.hpp"
#include "net/topology.hpp"

namespace sws::net {

namespace {

// Distinct stream tag so fault decisions never collide with workload RNG
// streams derived from the same user seed.
constexpr std::uint64_t kFaultStreamTag = 0xFA17'5EED'0000'0000ULL;

Nanos scaled(Nanos base, double factor) noexcept {
  return static_cast<Nanos>(static_cast<double>(base) * factor);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, int npes) : plan_(std::move(plan)) {
  SWS_CHECK(plan_.spike_rate >= 0.0 && plan_.spike_rate <= 1.0,
            "spike_rate must be a probability");
  // drop_rate == 1.0 is allowed: max_retransmits bounds the loss loop, so
  // even certain loss yields a finite (cap-sized) delay.
  SWS_CHECK(plan_.drop_rate >= 0.0 && plan_.drop_rate <= 1.0,
            "drop_rate must be a probability");
  SWS_CHECK(plan_.dup_rate >= 0.0 && plan_.dup_rate <= 1.0,
            "dup_rate must be a probability");
  SWS_CHECK(plan_.spike_factor >= 1.0, "spike_factor must be >= 1");
  reset(npes);
}

void FaultInjector::reset(int npes) {
  pes_.clear();
  pes_.resize(static_cast<std::size_t>(npes < 0 ? 0 : npes));
  new_run();
}

void FaultInjector::new_run() {
  for (std::size_t pe = 0; pe < pes_.size(); ++pe)
    pes_[pe].rng = Xoshiro256(plan_.seed ^ kFaultStreamTag, pe);
}

Nanos FaultInjector::charge_penalty(int initiator, Nanos base) {
  PerPe& p = pes_[static_cast<std::size_t>(initiator)];
  if (!plan_.spikes_enabled() || p.rng.uniform() >= plan_.spike_rate)
    return 0;
  const Nanos add = scaled(base, plan_.spike_factor - 1.0);
  ++p.stats.spikes;
  p.stats.spike_extra_ns += add;
  return add;
}

FaultInjector::Delivery FaultInjector::delivery_verdict(int initiator) {
  Delivery v;
  if (!plan_.delivery_faults_enabled()) return v;
  PerPe& p = pes_[static_cast<std::size_t>(initiator)];
  // Draw order is fixed (drops, then dup) so streams replay identically.
  if (plan_.drop_rate > 0.0) {
    std::uint32_t lost = 0;
    while (lost < plan_.max_retransmits &&
           p.rng.uniform() < plan_.drop_rate)
      ++lost;
    if (lost > 0) {
      const Nanos add = static_cast<Nanos>(lost) * plan_.retransmit_ns;
      p.stats.drops += lost;
      p.stats.retransmit_extra_ns += add;
      v.extra_delay += add;
    }
  }
  if (plan_.dup_rate > 0.0 && p.rng.uniform() < plan_.dup_rate) {
    ++p.stats.dups;
    v.duplicate = true;
    v.dup_extra_delay = plan_.dup_delay_ns;
  }
  return v;
}

const FaultStats& FaultInjector::stats(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < static_cast<int>(pes_.size()));
  return pes_[static_cast<std::size_t>(pe)].stats;
}

FaultStats FaultInjector::total_stats() const {
  FaultStats t;
  for (const PerPe& p : pes_) t.merge(p.stats);
  return t;
}

// ---------------------------------------------------- crash presets

FaultPlan crash_plan(int pe, Nanos at_ns) {
  SWS_CHECK(pe >= 0, "crash plan: bad pe");
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{pe, at_ns});
  return plan;
}

FaultPlan crash_group_plan(const Topology& topo, Tier tier, int group,
                           Nanos at_ns) {
  SWS_CHECK(tier >= 1 && tier <= topo.ntiers(), "crash group: bad tier");
  FaultPlan plan;
  for (int pe : topo.group_members(tier, group))
    plan.crashes.push_back(CrashEvent{pe, at_ns});
  SWS_CHECK(!plan.crashes.empty(), "crash group: empty group");
  return plan;
}

FaultPlan node_failure_plan(const Topology& topo, int node, Nanos at_ns) {
  return crash_group_plan(topo, 1, node, at_ns);
}

FaultPlan rack_failure_plan(const Topology& topo, int rack, Nanos at_ns) {
  // "Rack" = the largest grouping below the whole machine; on a two-level
  // fabric that is the node tier itself.
  const Tier t = topo.ntiers() > 1 ? topo.ntiers() - 1 : 1;
  return crash_group_plan(topo, t, rack, at_ns);
}

}  // namespace sws::net
