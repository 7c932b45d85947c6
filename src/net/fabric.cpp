#include "net/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace sws::net {

Fabric::Fabric(VirtualTimeModel& time, NetworkParams params, int npes)
    : time_(time), model_(std::move(params), npes) {
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  pes_.resize(static_cast<std::size_t>(npes));
  if (model_.params().faults.enabled())
    faults_ = std::make_unique<FaultInjector>(model_.params().faults, npes);
  crashes_armed_ = model_.params().faults.crashes_enabled();
  if (crashes_armed_) arm_crashes();
  time_.set_delivery_hook([this](Nanos now) { return deliver_until(now); });
  // Crash mode reads death state no fabric op orders (the dead flags, the
  // pool's death registry, crash deadlines on parked waits): no lookahead
  // when crashes are planned.
  time_.set_lookahead(crashes_armed_ ? 0 : model_.min_remote_latency());
}

void Fabric::apply_effect(const PendingEffect& e) {
  switch (e.kind) {
    case PendingEffect::Kind::kAmoAdd:
      *e.dst += e.value;
      break;
    case PendingEffect::Kind::kAmoSet:
      *e.dst = e.value;
      break;
  }
}

void Fabric::apply_top() {
  const PendingOp& top = pending_.top();
  const PendingEffect effect = top.effect;
  const int initiator = top.initiator;
  const int target = top.target;
  pending_.pop();
  apply_effect(effect);
  Pe& t = pes_[static_cast<std::size_t>(target)];
  land(t,
       static_cast<std::uint64_t>(
           reinterpret_cast<const std::byte*>(effect.dst) - t.base),
       sizeof *effect.dst);
  --t.pending_to;
  --pes_[static_cast<std::size_t>(initiator)].pending;
}

void Fabric::arm_crashes() {
  // A crash_at holds either its PE's earliest planned time or
  // kNoPendingDeadline (fired or disarmed), so taking the minimum both
  // arms a fresh fabric and re-arms one after a run.
  for (const CrashEvent& e : model_.params().faults.crashes) {
    SWS_CHECK(e.pe >= 0 && e.pe < npes(), "crash event PE out of range");
    Nanos& at = pes_[static_cast<std::size_t>(e.pe)].crash_at;
    at = std::min(at, e.at_ns);
  }
}

void Fabric::new_run() {
  // Apply any leftovers so no memory effect is silently dropped. (A run
  // that drives raw queues without a final quiet may legitimately end
  // with in-flight completions; a TaskPool run may not — its teardown
  // asserts pending(pe)==0 after quiet-at-barrier.)
  while (!pending_.empty()) apply_top();
  for (Pe& p : pes_) {
    // After the drain, the per-PE counters must agree with the (now
    // empty) queue — anything else means an op leaked across runs.
    SWS_ASSERT_MSG(p.pending == 0 && p.pending_to == 0,
                   "pending nbi ops leaked across runs");
    p.busy_until = 0;
    // Clocks restart at 0, so the planned crashes re-fire: every PE is
    // alive again and the same CrashEvents replay (arm_crashes below) —
    // run N+1 reproduces run N's deaths exactly.
    p.dead = false;
  }
  ndead_ = 0;
  if (crashes_armed_) arm_crashes();
  // Reseed the fault streams so run N+1 replays run N's decisions.
  if (faults_) faults_->new_run();
}

void Fabric::maybe_crash(int pe) {
  Nanos& at = pes_[static_cast<std::size_t>(pe)].crash_at;
  if (at == kNoPendingDeadline) return;
  const Nanos now = time_.now(pe);
  if (now < at) return;
  // Fire exactly once, at the first op boundary past the planned instant.
  at = kNoPendingDeadline;
  mark_dead(pe);
  throw PeKilled{pe, now};
}

void Fabric::mark_dead(int pe) {
  SWS_ASSERT(pe >= 0 && pe < npes());
  Pe& p = pes_[static_cast<std::size_t>(pe)];
  if (p.dead) return;
  p.dead = true;
  ++ndead_;
  p.crash_at = kNoPendingDeadline;

  // Drop the dead PE's in-flight traffic: effects it issued die on the
  // wire, and effects targeting it have no NIC to land on. Rebuilding the
  // queue here (rather than filtering at delivery) keeps pending()/
  // pending_to() exact, which quiet() loops and the new_run() leak asserts
  // rely on.
  std::priority_queue<PendingOp, std::vector<PendingOp>, std::greater<>> keep;
  while (!pending_.empty()) {
    PendingOp op = pending_.top();
    pending_.pop();
    if (op.initiator != pe && op.target != pe) {
      keep.push(std::move(op));
      continue;
    }
    --pes_[static_cast<std::size_t>(op.initiator)].pending;
    --pes_[static_cast<std::size_t>(op.target)].pending_to;
  }
  pending_.swap(keep);
}

void Fabric::register_arena(int pe, std::byte* base, std::size_t size) {
  SWS_CHECK(pe >= 0 && pe < npes(), "arena PE out of range");
  Pe& p = pes_[static_cast<std::size_t>(pe)];
  p.base = base;
  p.size = size;
}

std::byte* Fabric::translate(int target, std::uint64_t offset,
                             std::size_t n) const {
  SWS_ASSERT(target >= 0 && target < npes());
  const Pe& t = pes_[static_cast<std::size_t>(target)];
  SWS_ASSERT_MSG(t.base != nullptr, "target arena not registered");
  SWS_ASSERT_MSG(offset + n <= t.size, "one-sided access out of arena bounds");
  return t.base + offset;
}

std::uint64_t* Fabric::translate_u64(int target, std::uint64_t offset) const {
  SWS_ASSERT_MSG(offset % 8 == 0, "AMO target must be 8-byte aligned");
  return reinterpret_cast<std::uint64_t*>(translate(target, offset, 8));
}

void Fabric::set_op_observer(OpObserver cb) {
  SWS_CHECK(!observer_ || !cb, "an op observer is already installed");
  observer_ = std::move(cb);
}

void Fabric::charge(int initiator, int target, OpKind kind,
                    std::uint64_t offset, std::size_t bytes) {
  SWS_ASSERT(initiator >= 0 && initiator < npes());
  // Crash-stop: the initiator dies *before* this op's effect if its
  // planned time has passed — the op is never issued.
  if (crashes_armed_) maybe_crash(initiator);
  const Tier tier = model_.tier(initiator, target);
  const bool remote = tier > 0;
  const bool nbi = kind == OpKind::kNbiAmoAdd || kind == OpKind::kNbiAmoSet;
  // Local work may have run ahead of the time floor; an op another PE can
  // observe — NIC occupancy, the target's memory, the shared pending
  // queue — first rejoins the exact (vtime, pe) order.
  const bool local_work = !remote && !nbi;
  if (!local_work) time_.rejoin();
  Nanos c = model_.cost(kind, bytes, tier);
  FabricStats& s = pes_[static_cast<std::size_t>(initiator)].stats;
  ++s.ops[static_cast<int>(kind)];
  (remote ? s.remote_ops : s.local_ops) += 1;
  if (remote) ++s.tier_ops[static_cast<std::size_t>(tier - 1)];

  // Target-NIC occupancy: concurrent remote ops against one PE queue
  // behind each other.
  const Nanos occ = remote ? model_.params().link(tier).target_occupancy : 0;
  if (occ > 0) {
    const Nanos now = time_.now(initiator);
    Nanos& busy = pes_[static_cast<std::size_t>(target)].busy_until;
    const Nanos start = std::max(now, busy);
    busy = start + occ;
    const Nanos wait = start - now;
    s.occupancy_wait_ns += wait;
    c += wait;
  }

  if (faults_)
    c += faults_->charge_penalty(initiator, c);

  s.blocking_ns += c;
  // Op observation: report the charge window before the clock moves.
  // Reads only — a recorded op must not perturb the schedule, which is
  // what keeps determinism A/B byte-identical with tracing enabled.
  if (observer_)
    observer_(OpRecord{initiator, target, kind, offset, bytes,
                       time_.now(initiator), c});
  if (local_work) {
    time_.advance_local(initiator, c, [&] { return reach(initiator); });
    return;
  }
  // A remote blocking op's effect lands on the target when the initiator
  // resumes: until then the target must not run ahead past it.
  time_.advance(initiator, c, remote && !nbi ? target : -1);
}

// ------------------------------------------------------------- blocking

void Fabric::put(int initiator, int target, std::uint64_t offset,
                 const void* src, std::size_t n) {
  charge(initiator, target, OpKind::kPut, offset, n);
  if (write_suppressed(initiator, target, offset, n)) return;
  std::memcpy(translate(target, offset, n), src, n);
  pes_[static_cast<std::size_t>(initiator)].stats.bytes_put += n;
}

void Fabric::get(int initiator, int target, std::uint64_t offset, void* dst,
                 std::size_t n) {
  charge(initiator, target, OpKind::kGet, offset, n);
  if (effect_suppressed(initiator, target)) {
    std::memset(dst, 0xFF, n);  // poison: all-ones, like kDeadFetchValue
    return;
  }
  std::memcpy(dst, translate(target, offset, n), n);
  pes_[static_cast<std::size_t>(initiator)].stats.bytes_got += n;
}

std::uint64_t Fabric::amo_fetch_add(int initiator, int target,
                                    std::uint64_t offset,
                                    std::uint64_t value) {
  charge(initiator, target, OpKind::kAmoFetchAdd, offset, 8);
  if (write_suppressed(initiator, target, offset, 8)) return kDeadFetchValue;
  std::uint64_t& word = *translate_u64(target, offset);
  return std::exchange(word, word + value);
}

std::uint64_t Fabric::amo_compare_swap(int initiator, int target,
                                       std::uint64_t offset,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  charge(initiator, target, OpKind::kAmoCompareSwap, offset, 8);
  if (write_suppressed(initiator, target, offset, 8)) return kDeadFetchValue;
  std::uint64_t& word = *translate_u64(target, offset);
  const std::uint64_t prior = word;
  if (prior == expected) word = desired;
  return prior;  // OpenSHMEM cswap returns the prior value
}

std::uint64_t Fabric::amo_swap(int initiator, int target, std::uint64_t offset,
                               std::uint64_t value) {
  charge(initiator, target, OpKind::kAmoSwap, offset, 8);
  if (write_suppressed(initiator, target, offset, 8)) return kDeadFetchValue;
  return std::exchange(*translate_u64(target, offset), value);
}

std::uint64_t Fabric::amo_fetch(int initiator, int target,
                                std::uint64_t offset) {
  charge(initiator, target, OpKind::kAmoFetch, offset, 8);
  if (effect_suppressed(initiator, target)) return kDeadFetchValue;
  return *translate_u64(target, offset);
}

void Fabric::amo_set(int initiator, int target, std::uint64_t offset,
                     std::uint64_t value) {
  charge(initiator, target, OpKind::kAmoSet, offset, 8);
  if (write_suppressed(initiator, target, offset, 8)) return;
  *translate_u64(target, offset) = value;
}

// --------------------------------------------------------- non-blocking

void Fabric::enqueue_nbi(int initiator, int target, PendingEffect effect) {
  const Nanos base_delay =
      model_.delivery_delay(8, model_.tier(initiator, target));
  Nanos deadline = time_.now(initiator) + base_delay;
  bool duplicate = false;
  Nanos dup_deadline = 0;
  if (faults_) {
    const FaultInjector::Delivery v = faults_->delivery_verdict(initiator);
    deadline += v.extra_delay;  // retransmits after loss
    if (v.duplicate) {
      duplicate = true;
      dup_deadline = deadline + v.dup_extra_delay;
    }
  }
  const int copies = duplicate ? 2 : 1;
  pes_[static_cast<std::size_t>(initiator)].pending += copies;
  pes_[static_cast<std::size_t>(target)].pending_to += copies;
  pending_.push(PendingOp{deadline, next_seq_++, initiator, target, effect});
  if (duplicate) {
    // Both copies enter pending_ together, so pending_to(target)==0 proves
    // no stray duplicate is in flight.
    pending_.push(
        PendingOp{dup_deadline, next_seq_++, initiator, target, effect});
  }
  // Shrink our batching horizon so the sequencer cannot run past the new
  // deadline without delivering. Fault-extended (and duplicate) deadlines
  // are covered: the original's deadline is the earliest of the copies.
  time_.clamp_horizon(initiator, deadline);
}

void Fabric::nbi_amo_add(int initiator, int target, std::uint64_t offset,
                         std::uint64_t value) {
  charge(initiator, target, OpKind::kNbiAmoAdd, offset, 8);
  if (effect_suppressed(initiator, target)) return;
  enqueue_nbi(initiator, target,
              {PendingEffect::Kind::kAmoAdd, translate_u64(target, offset),
               value});
}

void Fabric::nbi_amo_set(int initiator, int target, std::uint64_t offset,
                         std::uint64_t value) {
  charge(initiator, target, OpKind::kNbiAmoSet, offset, 8);
  if (effect_suppressed(initiator, target)) return;
  enqueue_nbi(initiator, target,
              {PendingEffect::Kind::kAmoSet, translate_u64(target, offset),
               value});
}

Nanos Fabric::deliver_until(Nanos now) {
  // Called from the sequencer when global virtual time reaches a floor at
  // or past the earliest pending deadline. Applies every effect whose
  // deadline passed, in (deadline, issue-sequence) order — deterministic.
  while (!pending_.empty() && pending_.top().deadline <= now) apply_top();
  return pending_.empty() ? kNoPendingDeadline : pending_.top().deadline;
}

int Fabric::pending(int pe) const {
  return pes_[static_cast<std::size_t>(pe)].pending;
}

int Fabric::pending_to(int pe) {
  // Other PEs bump the count at issue, not at delivery: the reader must
  // be in the exact (vtime, pe) order to see every issue before it.
  time_.rejoin();
  return pes_[static_cast<std::size_t>(pe)].pending_to;
}

void Fabric::quiet(int pe) {
  // Advance until all of our in-flight ops are delivered. Deliveries fire
  // from the sequencer hook as time passes; the step is the outermost
  // tier's nbi delay so we overshoot by at most one delivery window.
  const Nanos outer_delay = model_.params().link(model_.ntiers()).nbi_delay;
  const Nanos step = outer_delay > 0 ? outer_delay : Nanos{100};
  while (pending(pe) > 0) {
    if (crashes_armed_) maybe_crash(pe);  // a dying PE dies here too
    time_.advance(pe, step);
  }
}

// ------------------------------------------------------------ accounting

const FabricStats& Fabric::stats(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < npes());
  return pes_[static_cast<std::size_t>(pe)].stats;
}

FabricStats Fabric::total_stats() const {
  FabricStats t;
  for (const Pe& p : pes_) t.merge(p.stats);
  return t;
}

void Fabric::reset_stats() {
  for (Pe& p : pes_) p.stats = FabricStats{};
}

void Fabric::publish_metrics(obs::MetricsRegistry& reg) const {
  const auto fabric = std::bind_front(&Fabric::stats, this);
  for (std::size_t k = 0; k < kNumOpKinds; ++k)
    reg.counter(
        std::string("fabric.ops.") + op_kind_name(static_cast<OpKind>(k)),
        "one-sided ops issued, by kind",
        obs::per_pe(npes(), fabric,
                    [k](const FabricStats& s) { return s.ops[k]; }));
  reg.counter("fabric.remote_ops", "ops whose target != initiator",
              obs::per_pe(npes(), fabric, &FabricStats::remote_ops));
  reg.counter("fabric.local_ops", "ops whose target == initiator",
              obs::per_pe(npes(), fabric, &FabricStats::local_ops));
  for (Tier t = 1; t <= model_.ntiers(); ++t)
    reg.counter("fabric.tier_ops.t" + std::to_string(t),
                "remote ops whose target sits at this tier distance",
                obs::per_pe(npes(), fabric, [t](const FabricStats& s) {
                  return s.tier_ops[static_cast<std::size_t>(t - 1)];
                }));
  reg.counter("fabric.bytes_put", "payload bytes written",
              obs::per_pe(npes(), fabric, &FabricStats::bytes_put));
  reg.counter("fabric.bytes_got", "payload bytes read",
              obs::per_pe(npes(), fabric, &FabricStats::bytes_got));
  reg.counter("fabric.blocking_ns", "initiator-blocking time",
              obs::per_pe(npes(), fabric, &FabricStats::blocking_ns));
  reg.counter("fabric.occupancy_wait_ns", "queueing behind busy NICs",
              obs::per_pe(npes(), fabric, &FabricStats::occupancy_wait_ns));
  if (crashes_armed_)
    reg.counter("fabric.dead_target_ops", "ops issued against crashed PEs",
                obs::per_pe(npes(), fabric, &FabricStats::dead_target_ops));

  if (faults_) {
    const auto fault = std::bind_front(&FaultInjector::stats, faults_.get());
    reg.counter("fabric.faults.spikes", "latency spikes injected",
                obs::per_pe(npes(), fault, &FaultStats::spikes));
    reg.counter("fabric.faults.drops", "lost transmissions",
                obs::per_pe(npes(), fault, &FaultStats::drops));
    reg.counter("fabric.faults.dups", "duplicated deliveries",
                obs::per_pe(npes(), fault, &FaultStats::dups));
    reg.counter("fabric.faults.retransmit_extra_ns",
                "delay paid to retransmits",
                obs::per_pe(npes(), fault, &FaultStats::retransmit_extra_ns));
    reg.counter("fabric.faults.spike_extra_ns", "delay paid to spikes",
                obs::per_pe(npes(), fault, &FaultStats::spike_extra_ns));
  }
}

}  // namespace sws::net
