#include "net/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace sws::net {

Fabric::Fabric(VirtualTimeModel& time, NetworkModel model, int npes)
    : time_(time), model_(model) {
  if (model_.params().faults.enabled())
    faults_ = std::make_unique<FaultInjector>(model_.params().faults, npes);
  crashes_armed_ = model_.params().faults.crashes_enabled();
  reset(npes);
  time_.set_delivery_hook([this](Nanos now) { return deliver_until(now); });
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
  ++arenas_[static_cast<std::size_t>(target)].landed;
  --pending_per_pe_[static_cast<std::size_t>(initiator)];
  --pending_per_target_[static_cast<std::size_t>(target)];
}

void Fabric::reset(int npes) {
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  while (!pending_.empty()) pending_.pop();
  next_seq_ = 0;
  model_.resize(npes);
  arenas_.assign(static_cast<std::size_t>(npes), Arena{});
  busy_until_.assign(static_cast<std::size_t>(npes), Nanos{0});
  stats_.assign(static_cast<std::size_t>(npes), FabricStats{});
  labels_.assign(static_cast<std::size_t>(npes), LabelSlot{});
  pending_per_pe_.assign(static_cast<std::size_t>(npes), 0);
  pending_per_target_.assign(static_cast<std::size_t>(npes), 0);
  if (faults_) faults_->reset(npes);
  crash_at_.assign(static_cast<std::size_t>(npes), kNoPendingDeadline);
  dead_.assign(static_cast<std::size_t>(npes), false);
  ndead_ = 0;
  if (crashes_armed_) arm_crashes();
}

void Fabric::arm_crashes() {
  for (const CrashEvent& e : model_.params().faults.crashes) {
    SWS_CHECK(e.pe >= 0 && e.pe < npes(), "crash event PE out of range");
    Nanos& at = crash_at_[static_cast<std::size_t>(e.pe)];
    at = std::min(at, e.at_ns);
  }
}

void Fabric::new_run() {
  // Apply any leftovers so no memory effect is silently dropped. (A run
  // that drives raw queues without a final quiet may legitimately end
  // with in-flight completions; a TaskPool run may not — its teardown
  // asserts pending(pe)==0 after quiet-at-barrier.)
  while (!pending_.empty()) apply_top();
  // After the drain, the per-PE counters must agree with the (now empty)
  // queue — anything else means an op leaked across runs.
  for (const int p : pending_per_pe_)
    SWS_ASSERT_MSG(p == 0,
                   "pending nbi ops leaked across runs (initiator count)");
  for (const int p : pending_per_target_)
    SWS_ASSERT_MSG(p == 0, "pending nbi ops leaked across runs (target count)");
  std::fill(busy_until_.begin(), busy_until_.end(), Nanos{0});
  std::fill(labels_.begin(), labels_.end(), LabelSlot{});
  // Reseed the fault streams so run N+1 replays run N's decisions.
  if (faults_) faults_->new_run();
  if (crashes_armed_) {
    // Clocks restart at 0, so the planned crashes re-fire: every PE is
    // alive again and the same CrashEvents replay — run N+1 reproduces
    // run N's deaths exactly.
    std::fill(dead_.begin(), dead_.end(), false);
    ndead_ = 0;
    std::fill(crash_at_.begin(), crash_at_.end(), kNoPendingDeadline);
    arm_crashes();
  }
}

void Fabric::maybe_crash(int pe) {
  const std::size_t i = static_cast<std::size_t>(pe);
  if (crash_at_[i] == kNoPendingDeadline) return;
  const Nanos now = time_.now(pe);
  if (now < crash_at_[i]) return;
  // Fire exactly once, at the first op boundary past the planned instant.
  crash_at_[i] = kNoPendingDeadline;
  mark_dead(pe);
  throw PeKilled{pe, now};
}

void Fabric::mark_dead(int pe) {
  SWS_ASSERT(pe >= 0 && pe < npes());
  const std::size_t i = static_cast<std::size_t>(pe);
  if (dead_[i]) return;
  dead_[i] = true;
  ++ndead_;
  crash_at_[i] = kNoPendingDeadline;

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
    --pending_per_pe_[static_cast<std::size_t>(op.initiator)];
    --pending_per_target_[static_cast<std::size_t>(op.target)];
  }
  pending_.swap(keep);
}

void Fabric::register_arena(int pe, std::byte* base, std::size_t size) {
  SWS_CHECK(pe >= 0 && pe < npes(), "arena PE out of range");
  Arena& a = arenas_[static_cast<std::size_t>(pe)];
  a.base = base;
  a.size = size;
}

std::byte* Fabric::translate(int target, std::uint64_t offset,
                             std::size_t n) const {
  SWS_ASSERT(target >= 0 && target < npes());
  const Arena& a = arenas_[static_cast<std::size_t>(target)];
  SWS_ASSERT_MSG(a.base != nullptr, "target arena not registered");
  SWS_ASSERT_MSG(offset + n <= a.size, "one-sided access out of arena bounds");
  return a.base + offset;
}

std::uint64_t* Fabric::translate_u64(int target, std::uint64_t offset) const {
  SWS_ASSERT_MSG(offset % 8 == 0, "AMO target must be 8-byte aligned");
  return reinterpret_cast<std::uint64_t*>(translate(target, offset, 8));
}

void Fabric::note_op(int initiator, int target, OpKind kind,
                     std::uint64_t offset) {
  LabelSlot& pl = labels_[static_cast<std::size_t>(initiator)];
  pl.l = OpLabel{kind, target, offset, pl.span};
}

const OpLabel& Fabric::last_op(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < npes());
  return labels_[static_cast<std::size_t>(pe)].l;
}

void Fabric::set_span(int pe, std::uint64_t span) noexcept {
  labels_[static_cast<std::size_t>(pe)].span = span;
}

void Fabric::charge(int initiator, int target, OpKind kind,
                    std::size_t bytes) {
  SWS_ASSERT(initiator >= 0 && initiator < npes());
  // Crash-stop: the initiator dies *before* this op's effect if its
  // planned time has passed — the op is never issued.
  if (crashes_armed_) maybe_crash(initiator);
  const Tier tier = model_.tier(initiator, target);
  const bool remote = tier > 0;
  Nanos c = model_.cost(kind, bytes, tier);
  FabricStats& s = stats_[static_cast<std::size_t>(initiator)];
  ++s.ops[static_cast<int>(kind)];
  (remote ? s.remote_ops : s.local_ops) += 1;
  if (remote) ++s.tier_ops[static_cast<std::size_t>(tier - 1)];

  // Target-NIC occupancy: concurrent remote ops against one PE queue
  // behind each other.
  const Nanos occ = remote ? model_.params().link(tier).target_occupancy : 0;
  if (occ > 0) {
    const Nanos now = time_.now(initiator);
    Nanos& busy = busy_until_[static_cast<std::size_t>(target)];
    const Nanos start = std::max(now, busy);
    busy = start + occ;
    const Nanos wait = start - now;
    s.occupancy_wait_ns += wait;
    c += wait;
  }

  if (faults_)
    c += faults_->charge_penalty(initiator, c);

  s.blocking_ns += c;
  // Span-scoped op observation: report the charge window to the tracer
  // before the clock moves. Reads only — a recorded op must not perturb
  // the schedule, which is what keeps determinism A/B byte-identical
  // with tracing enabled.
  if (observer_) {
    const LabelSlot& pl = labels_[static_cast<std::size_t>(initiator)];
    if (pl.span != 0) {
      OpRecord r;
      r.initiator = initiator;
      r.target = target;
      r.kind = kind;
      r.offset = pl.l.offset;
      r.span = pl.span;
      r.bytes = bytes;
      r.begin = time_.now(initiator);
      r.dur = c;
      observer_(r);
    }
  }
  time_.advance(initiator, c);
}

// ------------------------------------------------------------- blocking

void Fabric::put(int initiator, int target, std::uint64_t offset,
                 const void* src, std::size_t n) {
  note_op(initiator, target, OpKind::kPut, offset);
  charge(initiator, target, OpKind::kPut, n);
  if (write_suppressed(initiator, target)) return;
  std::memcpy(translate(target, offset, n), src, n);
  stats_[static_cast<std::size_t>(initiator)].bytes_put += n;
}

void Fabric::get(int initiator, int target, std::uint64_t offset, void* dst,
                 std::size_t n) {
  note_op(initiator, target, OpKind::kGet, offset);
  charge(initiator, target, OpKind::kGet, n);
  if (effect_suppressed(initiator, target)) {
    std::memset(dst, 0xFF, n);  // poison: all-ones, like kDeadFetchValue
    return;
  }
  std::memcpy(dst, translate(target, offset, n), n);
  stats_[static_cast<std::size_t>(initiator)].bytes_got += n;
}

std::uint64_t Fabric::amo_fetch_add(int initiator, int target,
                                    std::uint64_t offset,
                                    std::uint64_t value) {
  note_op(initiator, target, OpKind::kAmoFetchAdd, offset);
  charge(initiator, target, OpKind::kAmoFetchAdd, 8);
  if (write_suppressed(initiator, target)) return kDeadFetchValue;
  std::uint64_t& word = *translate_u64(target, offset);
  return std::exchange(word, word + value);
}

std::uint64_t Fabric::amo_compare_swap(int initiator, int target,
                                       std::uint64_t offset,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  note_op(initiator, target, OpKind::kAmoCompareSwap, offset);
  charge(initiator, target, OpKind::kAmoCompareSwap, 8);
  if (write_suppressed(initiator, target)) return kDeadFetchValue;
  std::uint64_t& word = *translate_u64(target, offset);
  const std::uint64_t prior = word;
  if (prior == expected) word = desired;
  return prior;  // OpenSHMEM cswap returns the prior value
}

std::uint64_t Fabric::amo_swap(int initiator, int target, std::uint64_t offset,
                               std::uint64_t value) {
  note_op(initiator, target, OpKind::kAmoSwap, offset);
  charge(initiator, target, OpKind::kAmoSwap, 8);
  if (write_suppressed(initiator, target)) return kDeadFetchValue;
  return std::exchange(*translate_u64(target, offset), value);
}

std::uint64_t Fabric::amo_fetch(int initiator, int target,
                                std::uint64_t offset) {
  note_op(initiator, target, OpKind::kAmoFetch, offset);
  charge(initiator, target, OpKind::kAmoFetch, 8);
  if (effect_suppressed(initiator, target)) return kDeadFetchValue;
  return *translate_u64(target, offset);
}

void Fabric::amo_set(int initiator, int target, std::uint64_t offset,
                     std::uint64_t value) {
  note_op(initiator, target, OpKind::kAmoSet, offset);
  charge(initiator, target, OpKind::kAmoSet, 8);
  if (write_suppressed(initiator, target)) return;
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
  pending_per_pe_[static_cast<std::size_t>(initiator)] += copies;
  pending_per_target_[static_cast<std::size_t>(target)] += copies;
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
  note_op(initiator, target, OpKind::kNbiAmoAdd, offset);
  charge(initiator, target, OpKind::kNbiAmoAdd, 8);
  if (effect_suppressed(initiator, target)) return;
  enqueue_nbi(initiator, target,
              {PendingEffect::Kind::kAmoAdd, translate_u64(target, offset),
               value});
}

void Fabric::nbi_amo_set(int initiator, int target, std::uint64_t offset,
                         std::uint64_t value) {
  note_op(initiator, target, OpKind::kNbiAmoSet, offset);
  charge(initiator, target, OpKind::kNbiAmoSet, 8);
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
  return pending_per_pe_[static_cast<std::size_t>(pe)];
}

int Fabric::pending_to(int pe) const {
  return pending_per_target_[static_cast<std::size_t>(pe)];
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
  return stats_[static_cast<std::size_t>(pe)];
}

FabricStats Fabric::total_stats() const {
  FabricStats t;
  for (const FabricStats& s : stats_) t.merge(s);
  return t;
}

void Fabric::reset_stats() {
  std::fill(stats_.begin(), stats_.end(), FabricStats{});
}

void Fabric::publish_metrics(obs::MetricsRegistry& reg) const {
  auto set_per_pe = [&](obs::MetricId id, auto&& field) {
    for (int pe = 0; pe < npes(); ++pe)
      reg.set(id, pe, field(stats_[static_cast<std::size_t>(pe)]));
  };
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    const auto id = reg.counter(
        std::string("fabric.ops.") + op_kind_name(static_cast<OpKind>(k)),
        "one-sided ops issued, by kind");
    set_per_pe(id, [k](const FabricStats& s) { return s.ops[k]; });
  }
  set_per_pe(reg.counter("fabric.remote_ops", "ops whose target != initiator"),
             [](const FabricStats& s) { return s.remote_ops; });
  set_per_pe(reg.counter("fabric.local_ops", "ops whose target == initiator"),
             [](const FabricStats& s) { return s.local_ops; });
  for (Tier t = 1; t <= model_.ntiers(); ++t) {
    const auto id =
        reg.counter("fabric.tier_ops.t" + std::to_string(t),
                    "remote ops whose target sits at this tier distance");
    set_per_pe(id, [t](const FabricStats& s) {
      return s.tier_ops[static_cast<std::size_t>(t - 1)];
    });
  }
  set_per_pe(reg.counter("fabric.bytes_put", "payload bytes written"),
             [](const FabricStats& s) { return s.bytes_put; });
  set_per_pe(reg.counter("fabric.bytes_got", "payload bytes read"),
             [](const FabricStats& s) { return s.bytes_got; });
  set_per_pe(reg.counter("fabric.blocking_ns", "initiator-blocking time"),
             [](const FabricStats& s) { return s.blocking_ns; });
  set_per_pe(
      reg.counter("fabric.occupancy_wait_ns", "queueing behind busy NICs"),
      [](const FabricStats& s) { return s.occupancy_wait_ns; });
  if (crashes_armed_)
    set_per_pe(reg.counter("fabric.dead_target_ops",
                           "ops issued against crashed PEs"),
               [](const FabricStats& s) { return s.dead_target_ops; });

  if (faults_) {
    auto set_fault = [&](const char* name, const char* help, auto&& field) {
      const auto id = reg.counter(std::string("fabric.faults.") + name, help);
      for (int pe = 0; pe < npes(); ++pe)
        reg.set(id, pe, field(faults_->stats(pe)));
    };
    set_fault("spikes", "latency spikes injected",
              [](const FaultStats& s) { return s.spikes; });
    set_fault("drops", "lost transmissions",
              [](const FaultStats& s) { return s.drops; });
    set_fault("dups", "duplicated deliveries",
              [](const FaultStats& s) { return s.dups; });
    set_fault("retransmit_extra_ns", "delay paid to retransmits",
              [](const FaultStats& s) { return s.retransmit_extra_ns; });
    set_fault("spike_extra_ns", "delay paid to spikes",
              [](const FaultStats& s) { return s.spike_extra_ns; });
  }
}

}  // namespace sws::net
