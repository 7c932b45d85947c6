#include "net/time_model.hpp"

#include <mutex>
#include <thread>
#include <utility>

#include "common/assert.hpp"

namespace sws::net {

// ------------------------------------------------------------------ base

void TimeModel::run_pes(int npes, const std::function<void(int)>& body) {
  reset(npes);
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(npes));
  for (int pe = 0; pe < npes; ++pe) {
    threads.emplace_back([pe, &body, &err_mu, &first_error] {
      try {
        body(pe);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------- virtual

VirtualTimeModel::VirtualTimeModel(int npes) { reset(npes); }

VirtualTimeModel::~VirtualTimeModel() = default;

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
    s.vtime.store(0, std::memory_order_relaxed);
    s.horizon = 0;
    s.finished = false;
  }
  ready_.reset(npes);
  next_delivery_ = 0;
  switches_ = 0;
  // PE 0 runs first: all clocks are 0 and ties break by id. Horizons
  // start at 0, so the first advance of every PE enters the sequencer and
  // computes a real horizon.
  active_.store(npes > 0 ? 0 : -1, std::memory_order_relaxed);
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
  const int pe = m.active_.load(std::memory_order_relaxed);
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
  const Nanos floor = slot(best).vtime.load(std::memory_order_relaxed);
  ready_scratch_.clear();
  for (int i = 0; i < npes_; ++i) {
    const PeSlot& s = slot(i);
    if (!s.finished && s.vtime.load(std::memory_order_relaxed) == floor)
      ready_scratch_.push_back(i);
  }
  if (ready_scratch_.size() == 1) return best;
  const int chosen = arbiter_(caller, ready_scratch_, floor);
  SWS_ASSERT_MSG(chosen >= 0 && chosen < npes_ && !slot(chosen).finished &&
                     slot(chosen).vtime.load(std::memory_order_relaxed) ==
                         floor,
                 "arbiter returned a PE outside the ready set");
  return chosen;
}

Nanos VirtualTimeModel::refresh_horizon(int pe) {
  // Deliver everything that is now in the past before the PE resumes, so
  // it observes a consistent "nothing from the future" memory state; the
  // hook reports the earliest deadline still pending so batching can
  // never skip over a delivery. Below that deadline nothing is due, so
  // the hook is not asked: next_delivery_ only ever errs low (drops raise
  // the true minimum; every enqueue lowers the cache via clamp_horizon),
  // which costs one extra call, never a missed delivery.
  const Nanos now = slot(pe).vtime.load(std::memory_order_relaxed);
  if (now >= next_delivery_)
    next_delivery_ = hook_ ? hook_(now) : kNoPendingDeadline;
  // Windowed sampling: fire once per boundary the floor has crossed, in
  // order. Observation-only — the hook reads state, never schedules
  // events — so the schedule is byte-identical with sampling off.
  if (sample_interval_ > 0) {
    while (now >= next_sample_) {
      sample_hook_(next_sample_);
      next_sample_ += sample_interval_;
    }
  }
  // Batching off: an installed arbiter must see every advance as a
  // potential tie.
  if (arbiter_) return 0;
  Nanos h = ready_.second_vtime();
  if (next_delivery_ < h) h = next_delivery_;
  // Cap batches at the next sampling boundary so samples land exactly
  // when the floor crosses it (a smaller horizon never changes the
  // schedule — arbiter mode pins it to 0 and stays byte-identical).
  if (sample_interval_ > 0 && next_sample_ < h) h = next_sample_;
  return h;
}

void VirtualTimeModel::activate(int next) {
  active_.store(next, std::memory_order_relaxed);
  if (next < 0) return;
  slot(next).horizon = refresh_horizon(next);
}

void VirtualTimeModel::switch_from(int pe, bool exiting) {
  SWS_ASSERT_MSG(body_ != nullptr, "PE handoff outside run_pes()");
  const int next = active_.load(std::memory_order_relaxed);
  switches_ += next >= 0 ? 1 : 0;
  fiber_switch(slot(pe).ctx, next < 0 ? caller_ : slot(next).ctx, exiting);
}

void VirtualTimeModel::finish(int pe) {
  SWS_ASSERT(active_.load(std::memory_order_relaxed) == pe);
  slot(pe).finished = true;
  ready_.remove(pe);
  activate(pick_next(pe));
  switch_from(pe, /*exiting=*/true);
  SWS_UNREACHABLE();  // a finished fiber is only re-armed, never resumed
}

void VirtualTimeModel::advance(int pe, Nanos dt) {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  PeSlot& s = slot(pe);
  SWS_ASSERT_MSG(active_.load(std::memory_order_relaxed) == pe,
                 "advance() by a PE not holding the baton");
  const Nanos nv = s.vtime.load(std::memory_order_relaxed) + dt;
  if (nv < s.horizon) {
    // Run-to-horizon fast path: still strictly the global minimum and
    // strictly before the next delivery deadline — nothing to pick,
    // nothing to deliver, nobody to wake. Publish the clock and return.
    s.vtime.store(nv, std::memory_order_release);
    return;
  }
  s.vtime.store(nv, std::memory_order_release);
  ready_.update(pe, nv);
  const int next = pick_next(pe);
  SWS_ASSERT(next >= 0);  // we are unfinished, so somebody is runnable
  if (next == pe) {
    // Still the minimum: deliver anything our own advance made due and
    // batch up to the refreshed horizon.
    s.horizon = refresh_horizon(pe);
    return;
  }
  activate(next);
  switch_from(pe, /*exiting=*/false);
}

Nanos VirtualTimeModel::now(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  return slot(pe).vtime.load(std::memory_order_acquire);
}

void VirtualTimeModel::clamp_horizon(int pe, Nanos deadline) {
  SWS_ASSERT(pe >= 0 && pe < npes_);
  SWS_ASSERT_MSG(active_.load(std::memory_order_relaxed) == pe,
                 "clamp_horizon() by a PE not holding the baton");
  PeSlot& s = slot(pe);
  if (deadline < s.horizon) s.horizon = deadline;
  if (deadline < next_delivery_) next_delivery_ = deadline;
}

// ------------------------------------------------------------------ real

RealTimeModel::RealTimeModel(int npes)
    : epoch_(std::chrono::steady_clock::now()), npes_(npes) {}

void RealTimeModel::reset(int npes) {
  npes_ = npes;
  epoch_ = std::chrono::steady_clock::now();
}

void RealTimeModel::advance(int pe, Nanos dt) {
  (void)pe;
  // Delays below this busy-wait (accuracy); longer ones sleep (the host
  // has few cores; spinning starves other PE threads).
  constexpr Nanos kSpinThresholdNs = 100'000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(dt);
  if (dt >= kSpinThresholdNs) {
    std::this_thread::sleep_until(deadline);
  } else {
    while (std::chrono::steady_clock::now() < deadline) {
      // Busy-wait; yield so oversubscribed hosts still make progress.
      std::this_thread::yield();
    }
  }
}

Nanos RealTimeModel::now(int pe) const {
  (void)pe;
  return static_cast<Nanos>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
}

void RealTimeModel::set_delivery_hook(DeliveryHook hook) {
  // Real mode applies non-blocking ops immediately; nothing to deliver.
  (void)hook;
}

}  // namespace sws::net
