#include "net/fault.hpp"

#include "common/assert.hpp"

namespace sws::net {

namespace {

// Base seed of the per-PE decision streams, and a distinct stream tag so
// fault decisions never collide with workload RNG streams.
constexpr std::uint64_t kFaultSeed = 0xFA17;
constexpr std::uint64_t kFaultStreamTag = 0xFA17'5EED'0000'0000ULL;

Nanos scaled(Nanos base, double factor) noexcept {
  return static_cast<Nanos>(static_cast<double>(base) * factor);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, int npes) : plan_(std::move(plan)) {
  SWS_CHECK(plan_.spike_rate >= 0.0 && plan_.spike_rate <= 1.0,
            "spike_rate must be a probability");
  // drop_rate == 1.0 is allowed: kMaxRetransmits bounds the loss loop, so
  // even certain loss yields a finite (cap-sized) delay.
  SWS_CHECK(plan_.drop_rate >= 0.0 && plan_.drop_rate <= 1.0,
            "drop_rate must be a probability");
  SWS_CHECK(plan_.dup_rate >= 0.0 && plan_.dup_rate <= 1.0,
            "dup_rate must be a probability");
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  pes_.resize(static_cast<std::size_t>(npes));
  new_run();
}

void FaultInjector::new_run() {
  for (std::size_t pe = 0; pe < pes_.size(); ++pe)
    pes_[pe].rng = Xoshiro256(kFaultSeed ^ kFaultStreamTag, pe);
}

Nanos FaultInjector::charge_penalty(int initiator, Nanos base) {
  PerPe& p = pes_[static_cast<std::size_t>(initiator)];
  if (!plan_.spikes_enabled() || p.rng.uniform() >= plan_.spike_rate)
    return 0;
  const Nanos add = scaled(base, kSpikeFactor - 1.0);
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
    while (lost < kMaxRetransmits &&
           p.rng.uniform() < plan_.drop_rate)
      ++lost;
    if (lost > 0) {
      const Nanos add = static_cast<Nanos>(lost) * kRetransmitNs;
      p.stats.drops += lost;
      p.stats.retransmit_extra_ns += add;
      v.extra_delay += add;
    }
  }
  if (plan_.dup_rate > 0.0 && p.rng.uniform() < plan_.dup_rate) {
    ++p.stats.dups;
    v.duplicate = true;
    v.dup_extra_delay = kDupDelayNs;
  }
  return v;
}

const FaultStats& FaultInjector::stats(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < static_cast<int>(pes_.size()));
  return pes_[static_cast<std::size_t>(pe)].stats;
}

}  // namespace sws::net
