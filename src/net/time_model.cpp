#include "net/time_model.hpp"

#include <string>
#include <utility>

#include "common/assert.hpp"

namespace sws::net {

VirtualTimeModel::VirtualTimeModel(int npes) { reset(npes); }

void VirtualTimeModel::reset(int npes) {
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  SWS_ASSERT_MSG(body_ == nullptr, "reset() during a run");
  if (npes > slot_capacity_) {
    slots_ = std::make_unique<PeSlot[]>(static_cast<std::size_t>(npes));
    slot_capacity_ = npes;
  }
  npes_ = npes;
  for (int i = 0; i < npes; ++i) {
    PeSlot& s = slot(i);
    s.vtime = 0;
    s.horizon = 0;
    s.finished = false;
  }
  ready_.reset(npes);
  parks_.assign(static_cast<std::size_t>(npes), Park{});
  nparked_ = 0;
  next_delivery_ = 0;
  switches_ = 0;
  lookahead_ = 0;
  ahead_ = false;
  inflight_until_.assign(static_cast<std::size_t>(npes), 0);
  // PE 0 runs first: all clocks are 0 and ties break by id. Horizons
  // start at 0, so the first advance of every PE enters the sequencer and
  // computes a real horizon.
  active_ = npes > 0 ? 0 : -1;
  next_sample_ = sample_interval_;
}

void VirtualTimeModel::run_pes(int npes,
                               const std::function<void(int)>& body) {
  SWS_CHECK(body_ == nullptr, "VirtualTimeModel::run_pes is not reentrant");
  reset(npes);
  if (npes == 0) return;
  const auto n = static_cast<std::size_t>(npes);
  while (fibers_.size() < n) fibers_.push_back(std::make_unique<Fiber>());
  fibers_.resize(n);
  // reset() may have reallocated the slots, and every context is
  // abandoned mid-run by the last one anyway: arm them all afresh.
  for (int pe = 0; pe < npes; ++pe)
    fibers_[static_cast<std::size_t>(pe)]->arm(
        slot(pe).ctx, &VirtualTimeModel::fiber_main, this);
  body_ = &body;
  fiber_switch(caller_, slot(0).ctx);
  // Every PE has finished; the last one switched back here.
  body_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void VirtualTimeModel::fiber_main(void* self) {
  auto& m = *static_cast<VirtualTimeModel*>(self);
  // A fiber first runs when the sequencer activates it.
  const int pe = m.active_;
  try {
    (*m.body_)(pe);
  } catch (...) {
    // Nothing may unwind past this frame: it is the bottom of the stack.
    if (!m.error_) m.error_ = std::current_exception();
  }
  m.finish(pe);
}

void VirtualTimeModel::set_delivery_hook(DeliveryHook hook) {
  hook_ = std::move(hook);
  next_delivery_ = 0;  // the new hook has not been asked yet
}

void VirtualTimeModel::set_sample_hook(SampleHook hook, Nanos interval_ns) {
  sample_hook_ = std::move(hook);
  sample_interval_ = sample_hook_ ? interval_ns : 0;
  next_sample_ = sample_interval_;
}

void VirtualTimeModel::set_ready_arbiter(ReadyArbiter arb) {
  arbiter_ = std::move(arb);
}

int VirtualTimeModel::pick_next(int caller) {
  // The tree's (vtime, pe) order breaks ties by lowest id. Callers
  // refresh the active PE's key before picking, so the top is
  // authoritative.
  const int best = ready_.top();
  if (best < 0 || !arbiter_) return best;

  // Collect every PE tied at the minimum: each is a legal next event, and
  // which one runs decides how the in-flight memory effects interleave.
  // Only worth O(N) when an arbiter is actually installed.
  const Nanos floor = slot(best).vtime;
  ready_scratch_.clear();
  for (int i = 0; i < npes_; ++i) {
    const PeSlot& s = slot(i);
    if (!s.finished && s.vtime == floor)
      ready_scratch_.push_back(i);
  }
  if (ready_scratch_.size() == 1) return best;
  const int chosen = arbiter_(caller, ready_scratch_, floor);
  SWS_ASSERT_MSG(chosen >= 0 && chosen < npes_ && !slot(chosen).finished &&
                     slot(chosen).vtime == floor,
                 "arbiter returned a PE outside the ready set");
  return chosen;
}

void VirtualTimeModel::deliver_due(Nanos floor) {
  // Deliver everything that is now in the past before the PE resumes, so
  // it observes a consistent "nothing from the future" memory state; the
  // hook reports the earliest deadline still pending so batching can
  // never skip over a delivery. Below that deadline nothing is due, so
  // the hook is not asked: next_delivery_ only ever errs low (drops raise
  // the true minimum; every enqueue lowers the cache via clamp_horizon),
  // which costs one extra call, never a missed delivery.
  if (floor >= next_delivery_)
    next_delivery_ = hook_ ? hook_(floor) : kNoPendingDeadline;
}

void VirtualTimeModel::fire_hooks(Nanos now) {
  // Windowed sampling: fire once per boundary the floor has crossed, in
  // order. Observation-only — the hook reads state, never schedules
  // events — so the schedule is byte-identical with sampling off. The
  // literal loops of parked PEs would have put the floor on their first
  // slice end past the boundary if that is below `now`: a sample sees the
  // deliveries due by that floor and each parked PE at its slice end.
  if (sample_interval_ > 0 && now >= next_sample_) {
    do {
      const Nanos b = next_sample_;
      deliver_due(nparked_ > 0 ? park_clocks_at(b, now) : now);
      sample_hook_(b);
      next_sample_ += sample_interval_;
    } while (now >= next_sample_);
    // A keyed parked PE's clock is its key again: activation reads it.
    for (int i = 0; nparked_ > 0 && i < npes_; ++i) {
      const Park& pk = parks_[static_cast<std::size_t>(i)];
      if (pk.period != 0 && pk.key != ReadyTree::kNoVtime)
        slot(i).vtime = pk.key;
    }
  }
  deliver_due(now);
}

Nanos VirtualTimeModel::park_clocks_at(Nanos b, Nanos now) {
  Nanos floor = now;
  for (int i = 0; i < npes_; ++i) {
    const Park& pk = parks_[static_cast<std::size_t>(i)];
    if (pk.period == 0) continue;
    const Nanos t = pk.slice_end(b);
    slot(i).vtime = t;
    if (t < floor) floor = t;
  }
  return floor;
}

std::string VirtualTimeModel::parked_pes() const {
  std::string s = "every unfinished PE is parked, nobody can wake them:";
  for (int i = 0; i < npes_; ++i)
    if (parks_[static_cast<std::size_t>(i)].period != 0)
      s += " " + std::to_string(i);
  return s;
}

Nanos VirtualTimeModel::refresh_horizon(int pe, Reach reach) {
  fire_hooks(slot(pe).vtime);
  lookahead_ = 0;
  // Batching off: an installed arbiter must see every advance as a
  // potential tie.
  if (arbiter_) return 0;
  const Nanos second = ready_.second_vtime();
  lookahead_ = lookahead_horizon(pe, second, reach);
  Nanos h = second;
  if (next_delivery_ < h) h = next_delivery_;
  // Cap batches at the next sampling boundary so samples land exactly
  // when the floor crosses it (a smaller horizon never changes the
  // schedule — arbiter mode pins it to 0 and stays byte-identical).
  if (sample_interval_ > 0 && next_sample_ < h) h = next_sample_;
  return h;
}

Nanos VirtualTimeModel::lookahead_horizon(int pe, Nanos floor,
                                          Reach reach) const {
  if (reach == Reach::kExact || lookahead_ns_ == 0 || arbiter_) return 0;
  // A blocking op to `pe` in flight lands at its initiator's key, which is
  // at or above the floor.
  if (floor < inflight_until_[static_cast<std::size_t>(pe)]) return 0;
  // Nothing another PE issues at or after `floor` lands before floor + L;
  // a sample, or a delivery the PE may observe, below that still caps the
  // run.
  Nanos h = floor > ReadyTree::kNoVtime - lookahead_ns_
                ? ReadyTree::kNoVtime
                : floor + lookahead_ns_;
  if (reach == Reach::kDelivery && next_delivery_ < h) h = next_delivery_;
  if (sample_interval_ > 0 && next_sample_ < h) h = next_sample_;
  return h;
}

void VirtualTimeModel::activate(int next) {
  active_ = next;
  lookahead_ = 0;
  ahead_ = false;
  if (next < 0) {
    // Parked PEs would poll forever in the literal loop.
    SWS_ASSERT_MSG(nparked_ == 0, parked_pes().c_str());
    return;
  }
  // Lazy horizon: most activated PEs switch away on their next advance,
  // so the second_vtime() walk waits until one stays the minimum.
  PeSlot& s = slot(next);
  s.horizon = 0;
  fire_hooks(s.vtime);
}

void VirtualTimeModel::switch_from(int pe, bool exiting) {
  SWS_ASSERT_MSG(body_ != nullptr, "PE handoff outside run_pes()");
  const int next = active_;
  switches_ += next >= 0 ? 1 : 0;
  fiber_switch(slot(pe).ctx, next < 0 ? caller_ : slot(next).ctx, exiting);
}

void VirtualTimeModel::finish(int pe) {
  SWS_ASSERT(active_ == pe);
  slot(pe).finished = true;
  ready_.remove(pe);
  activate(pick_next(pe));
  switch_from(pe, /*exiting=*/true);
  SWS_UNREACHABLE();  // a finished fiber is only re-armed, never resumed
}

void VirtualTimeModel::advance(int pe, Nanos dt, int target) {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  PeSlot& s = slot(pe);
  SWS_ASSERT_MSG(active_ == pe, "advance() by a PE not holding the baton");
  const Nanos nv = s.vtime + dt;
  if (nv < s.horizon) {
    // Run-to-horizon fast path: still strictly the global minimum and
    // strictly before the next delivery deadline — nothing to pick,
    // nothing to deliver, nobody to wake. Store the clock and return.
    s.vtime = nv;
    return;
  }
  s.vtime = nv;
  if (target >= 0) {
    Nanos& until = inflight_until_[static_cast<std::size_t>(target)];
    if (until <= nv) until = nv + 1;
  }
  repick(pe, Reach::kExact);
}

void VirtualTimeModel::repick(int pe, Reach reach) {
  PeSlot& s = slot(pe);
  ahead_ = false;
  ready_.update(pe, s.vtime);
  const int next = pick_next(pe);
  SWS_ASSERT(next >= 0);  // we are unfinished, so somebody is runnable
  if (next == pe) {
    // Still the minimum: deliver anything our own advance made due and
    // batch up to the refreshed horizon.
    s.horizon = refresh_horizon(pe, reach);
    return;
  }
  if (reach != Reach::kExact) {
    // Not the minimum any more, but nothing `next` or anyone after it
    // issues can land on us before H: keep the baton.
    const Nanos h = lookahead_horizon(pe, slot(next).vtime, reach);
    if (s.vtime < h) {
      lookahead_ = h;
      ahead_ = true;
      return;
    }
  }
  activate(next);
  switch_from(pe, /*exiting=*/false);
}

Nanos VirtualTimeModel::now(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  return slot(pe).vtime;
}

void VirtualTimeModel::park(int pe, Nanos period, Nanos deadline) {
  SWS_ASSERT(period > 0);
  if (arbiter_) {
    // The explorer must see every poll slice as a potential tie.
    advance(pe, period);
    return;
  }
  SWS_ASSERT(pe >= 0 && pe < npes_);
  SWS_ASSERT_MSG(active_ == pe, "park() by a PE not holding the baton");
  PeSlot& s = slot(pe);
  Park& pk = parks_[static_cast<std::size_t>(pe)];
  pk.t0 = s.vtime;
  pk.period = period;
  ++nparked_;
  if (deadline == kNoPendingDeadline) {
    pk.key = ReadyTree::kNoVtime;
    ready_.remove(pe);
  } else {
    // The slice end at which the polling loop's crash check would fire.
    pk.key = s.vtime = pk.slice_end(deadline);
    ready_.update(pe, pk.key);
  }
  const int next = pick_next(pe);
  activate(next);
  if (next != pe) switch_from(pe, /*exiting=*/false);
  // Resumed with the clock at the slice end pk.key.
  pk.period = 0;
  --nparked_;
}

void VirtualTimeModel::wake(int pe, int writer) {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  SWS_ASSERT_MSG(active_ == writer, "wake() by a PE not holding the baton");
  Park& pk = parks_[static_cast<std::size_t>(pe)];
  if (pk.period == 0) return;
  // The write happened in the writer's event at (its clock, writer); the
  // first poll after it in (vtime, pe) order is the one that observes it.
  PeSlot& w = slot(writer);
  Nanos t = pk.slice_end(w.vtime);
  if (t == w.vtime && pe < writer) t += pk.period;
  if (t >= pk.key) return;
  pk.key = slot(pe).vtime = t;
  // The writer's key may lag its clock, but (t, pe) still loses to it.
  ready_.update(pe, t);
  if (t < w.horizon) w.horizon = t;
  if (t < lookahead_) lookahead_ = t;
}

void VirtualTimeModel::clamp_horizon(int pe, Nanos deadline) {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  SWS_ASSERT_MSG(active_ == pe,
                 "clamp_horizon() by a PE not holding the baton");
  PeSlot& s = slot(pe);
  if (deadline < s.horizon) s.horizon = deadline;
  if (deadline < lookahead_) lookahead_ = deadline;
  if (deadline < next_delivery_) next_delivery_ = deadline;
}

}  // namespace sws::net
