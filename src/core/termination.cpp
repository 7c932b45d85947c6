#include "core/termination.hpp"

#include <utility>

#include "common/assert.hpp"
#include "core/recovery.hpp"

namespace sws::core {

// -------------------------------------------------------------- counter

CounterTermination::CounterTermination(pgas::Runtime& rt)
    : counter_(rt.heap().alloc(sizeof(std::uint64_t), 8)),
      unflushed_(static_cast<std::size_t>(rt.npes()), 0) {}

void CounterTermination::reset_pe(pgas::PeContext& ctx) {
  unflushed_[static_cast<std::size_t>(ctx.pe())] = 0;
  if (ctx.pe() == 0) ctx.local_store(counter_, 0);
}

void CounterTermination::flush(pgas::PeContext& ctx) {
  std::int64_t& unflushed = unflushed_[static_cast<std::size_t>(ctx.pe())];
  if (unflushed == 0) return;
  // Two's-complement add applies signed deltas to the u64 counter.
  ctx.fabric().amo_fetch_add(ctx.pe(), /*target=*/0, counter_.off,
                             static_cast<std::uint64_t>(unflushed));
  unflushed = 0;
}

void CounterTermination::count_created(pgas::PeContext& ctx,
                                       std::uint64_t n) {
  unflushed_[static_cast<std::size_t>(ctx.pe())] +=
      static_cast<std::int64_t>(n);
}

void CounterTermination::count_completed(pgas::PeContext& ctx,
                                         std::uint64_t n) {
  unflushed_[static_cast<std::size_t>(ctx.pe())] -=
      static_cast<std::int64_t>(n);
}

void CounterTermination::task_boundary(pgas::PeContext& ctx) {
  // The safety invariant: never sit on a positive delta. Negative deltas
  // only make the global counter an over-estimate, so they may batch until
  // the next idle check.
  if (unflushed_[static_cast<std::size_t>(ctx.pe())] > 0) flush(ctx);
}

bool CounterTermination::check(pgas::PeContext& ctx) {
  flush(ctx);
  return ctx.fetch(/*target=*/0, counter_) == 0;
}

// ------------------------------------------------------------- resilient

ResilientTermination::ResilientTermination(pgas::Runtime& rt,
                                           DeathRegistry* registry)
    : npes_(rt.npes()),
      slots_(rt.heap().alloc(
          sizeof(std::uint64_t) * static_cast<std::size_t>(rt.npes()), 64)),
      done_(rt.heap().alloc(sizeof(std::uint64_t), 8)),
      registry_(registry),
      local_(static_cast<std::size_t>(rt.npes())) {
  SWS_ASSERT(registry_ != nullptr);
}

void ResilientTermination::reset_pe(pgas::PeContext& ctx) {
  auto& me = local_[static_cast<std::size_t>(ctx.pe())];
  me = PerPe{};
  me.prev_seqs.assign(static_cast<std::size_t>(npes_), 0);
  ctx.heap().zero(ctx.pe(), slots_,
                  sizeof(std::uint64_t) * static_cast<std::size_t>(npes_));
  ctx.heap().zero(ctx.pe(), done_, sizeof(std::uint64_t));
}

// Counting is local-only: the wave protocol needs exact local totals, and
// a shared counter would send real traffic at its home PE, which may
// already be dead.
void ResilientTermination::count_created(pgas::PeContext& ctx,
                                         std::uint64_t n) {
  (void)ctx;
  local_[static_cast<std::size_t>(ctx.pe())].created += n;
}

void ResilientTermination::count_completed(pgas::PeContext& ctx,
                                           std::uint64_t n) {
  (void)ctx;
  local_[static_cast<std::size_t>(ctx.pe())].executed += n;
}

void ResilientTermination::task_boundary(pgas::PeContext& ctx) { (void)ctx; }

bool ResilientTermination::check(pgas::PeContext& ctx) {
  auto& me = local_[static_cast<std::size_t>(ctx.pe())];
  if (ctx.local_load(done_) != 0) return true;

  const int coord = registry_->lowest_live(ctx.pe());
  if (coord != ctx.pe()) {
    // Reporter. Settle our in-flight nbi ops first so "idle" is a stable
    // claim (an unflushed completion notification could still wake a
    // peer), then publish. amo_swap rather than amo_set: the returned
    // prior word is poison iff the coordinator is dead, which is how
    // coordinator failover propagates without any extra probe.
    ctx.quiet();
    ++me.seq;
    const std::uint64_t old = ctx.fabric().amo_swap(
        ctx.pe(), coord,
        slots_.off + static_cast<std::uint64_t>(ctx.pe()) * 8,
        encode_report(me.created + me.executed, me.seq));
    if (old == net::kDeadFetchValue) registry_->note_dead(ctx.pe(), coord);
    return false;
  }
  return coordinator_check(ctx);
}

bool ResilientTermination::coordinator_check(pgas::PeContext& ctx) {
  auto& me = local_[static_cast<std::size_t>(ctx.pe())];

  // A reporter that dies silently leaves a stale slot that would stall
  // waves forever; lease-paced probing is the only way to learn about it.
  if (ctx.now() - me.last_probe >= registry_->config().lease_ns) {
    registry_->probe_all(ctx);
    me.last_probe = ctx.now();
  }
  const int known = registry_->known_count(ctx.pe());
  if (known != me.prev_known) {
    me.prev_known = known;
    me.have_prev = false;  // membership changed: restart the double wave
  }

  ctx.quiet();
  std::uint64_t sum = me.created + me.executed;  // own totals, own idleness
  bool fresh = true;
  std::vector<std::uint16_t> seqs(static_cast<std::size_t>(npes_), 0);
  for (int r = 0; r < npes_; ++r) {
    if (r == ctx.pe() || registry_->known_dead(ctx.pe(), r)) continue;
    const std::uint64_t v =
        ctx.local_load(slots_.plus(static_cast<std::uint64_t>(r) * 8));
    if ((v & 0b11) != 0b11) {
      me.have_prev = false;  // r never reported / not idle: no wave yet
      return false;
    }
    const auto s = static_cast<std::uint16_t>((v >> 2) & 0xFFFF);
    seqs[static_cast<std::size_t>(r)] = s;
    if (me.have_prev && s == me.prev_seqs[static_cast<std::size_t>(r)])
      fresh = false;
    sum += v >> 18;
  }

  if (me.have_prev && fresh && sum == me.prev_sum) {
    // Two consecutive all-idle waves, every report renewed in between,
    // activity sum unmoved: nothing was created or executed anywhere and
    // every survivor was empty at both ends. Quiesced — broadcast.
    for (int r = 0; r < npes_; ++r) {
      if (r == ctx.pe() || registry_->known_dead(ctx.pe(), r)) continue;
      ctx.fabric().amo_set(ctx.pe(), r, done_.off, 1);
    }
    ctx.fabric().amo_set(ctx.pe(), ctx.pe(), done_.off, 1);
    return true;
  }
  me.prev_sum = sum;
  me.prev_seqs = std::move(seqs);
  me.have_prev = true;
  return false;
}

void ResilientTermination::on_exit(pgas::PeContext& ctx) {
  // Gossip on exit: if the coordinator died partway through its done
  // broadcast, whoever did get the flag re-spreads it, so no survivor can
  // be stranded waiting on a dead coordinator's half-finished broadcast.
  if (ctx.local_load(done_) == 0) return;
  for (int r = 0; r < npes_; ++r) {
    if (r == ctx.pe() || registry_->known_dead(ctx.pe(), r)) continue;
    ctx.fabric().amo_set(ctx.pe(), r, done_.off, 1);
  }
}

}  // namespace sws::core
