#include "core/sdc_queue.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "core/recovery.hpp"

namespace sws::core {

namespace {

/// Pause between lock attempts (thieves and the owner alike), and the
/// retry hint a thief returns after max_lock_attempts: the holder needs
/// roughly this long to drain.
constexpr net::Nanos kLockBackoffNs = 400;

}  // namespace

SdcQueue::SdcQueue(pgas::Runtime& rt, const QueueConfig& queue, SdcConfig cfg)
    : TaskQueue(rt, queue),
      cfg_(cfg),
      meta_(rt.heap().alloc(
          kRingOff + sizeof(std::uint64_t) * cfg.completion_ring * 2, 64)),
      owners_(static_cast<std::size_t>(rt.npes())) {
  SWS_CHECK(cfg.completion_ring > 0, "completion ring must be non-empty");
  SWS_CHECK(queue.capacity <= kCountMask,
            "capacity exceeds the completion-record count field");
  if (rt.config().net.faults.crashes_enabled())
    SWS_CHECK(rt.npes() <= 256,
              "crash recovery packs the thief PE into 8 intent-record bits");
}

void SdcQueue::reset_shared(pgas::PeContext& ctx) {
  owners_[static_cast<std::size_t>(ctx.pe())] = OwnerState{};
  // Zero only what the last run can have written (Runtime::run applies
  // every leftover nbi effect before any reset, and symmetric allocations
  // start zeroed). Completion records exist only for claimed sequences,
  // below the cursor; a crash-mode thief writes intent[seq] before its
  // claim advances the cursor and may die in between, hence the + 1.
  const std::uint64_t used = std::min<std::uint64_t>(
      ctx.local_load(meta_.plus(kSeqOff)) + 1, cfg_.completion_ring);
  std::byte* meta = ctx.local(meta_);
  std::memset(meta, 0, kRingOff + sizeof(std::uint64_t) * used);
  std::memset(meta + intent_off(0), 0, sizeof(std::uint64_t) * used);
}

std::uint64_t SdcQueue::owner_tail(pgas::PeContext& ctx) const {
  return ctx.local_load(meta_.plus(kTailOff));
}

// ------------------------------------------------------------ owner side

bool SdcQueue::shared_available(pgas::PeContext& ctx) const {
  // Thieves advance the tail; read it atomically.
  return owner_tail(ctx) < local(ctx).split_abs;
}

bool SdcQueue::try_release(pgas::PeContext& ctx) {
  auto& l = local(ctx);
  // Release is legal without locking only because it happens when the
  // shared portion is empty (paper §3.1): a racing thief sees an empty
  // queue and aborts.
  if (owner_tail(ctx) != l.split_abs) return false;
  const auto nlocal = static_cast<std::uint32_t>(l.head_abs - l.split_abs);
  if (nlocal < 2) return false;
  const std::uint32_t expose = nlocal / 2;
  l.split_abs += expose;
  // Single atomic update of the split point — no lock required.
  ctx.fabric().amo_set(ctx.pe(), ctx.pe(), meta_.off + kSplitOff,
                       l.split_abs);
  ++l.stats.releases;
  return true;
}

void SdcQueue::lock_own(pgas::PeContext& ctx) {
  // Owner competes for its own spinlock against thieves.
  const auto want = static_cast<std::uint64_t>(ctx.pe()) + 1;
  const bool crashes = crash_mode(ctx);
  net::Nanos lease_start = crashes ? ctx.now() : 0;
  while (ctx.fabric().amo_compare_swap(ctx.pe(), ctx.pe(),
                                       meta_.off + kLockOff, 0, want) != 0) {
    if (crashes &&
        ctx.now() - lease_start >= recovery_->config().lease_ns) {
      // A live thief holds the lock for microseconds; spinning a whole
      // lease means the holder is suspect. Probe it and break the lock if
      // it is dead, otherwise keep waiting.
      break_dead_lock(ctx);
      lease_start = ctx.now();
      continue;
    }
    ctx.compute(kLockBackoffNs);
  }
}

void SdcQueue::unlock(pgas::PeContext& ctx, int target) {
  ctx.fabric().amo_set(ctx.pe(), target, meta_.off + kLockOff, 0);
}

bool SdcQueue::try_acquire(pgas::PeContext& ctx) {
  auto& l = local(ctx);
  if (l.head_abs != l.split_abs) return false;  // local work remains
  if (!shared_available(ctx)) return false;

  // The split index is read by thieves mid-steal, so moving it backwards
  // requires the queue lock (paper §3.1).
  lock_own(ctx);
  const std::uint64_t tail = owner_tail(ctx);
  const std::uint64_t avail = l.split_abs - tail;
  bool took = false;
  if (avail > 0) {
    const std::uint64_t take = (avail + 1) / 2;
    l.split_abs -= take;
    ctx.fabric().amo_set(ctx.pe(), ctx.pe(), meta_.off + kSplitOff,
                         l.split_abs);
    took = true;
    ++l.stats.acquires;
  }
  unlock(ctx, ctx.pe());
  return took;
}

void SdcQueue::progress(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  drain_completions(ctx);
  if (!crash_mode(ctx)) return;

  // Crash mode: watch for the two stalls only a death can cause.
  const net::Nanos now = ctx.now();
  const net::Nanos lease = recovery_->config().lease_ns;

  // (a) Reclaim wedged on an open claim. A live claimant completes in
  // microseconds, so a head claim open for a lease — or a claim backlog
  // deep enough to threaten completion-ring wraparound — triggers
  // reconciliation, which probes the claimant and fences it iff dead.
  const std::uint64_t cur_seq = ctx.local_load(meta_.plus(kSeqOff));
  if (o.reclaim_seq < cur_seq) {
    if (o.stall_seq != o.reclaim_seq) {
      o.stall_seq = o.reclaim_seq;
      o.stall_since = now;
    } else if (now - o.stall_since >= lease ||
               cur_seq - o.reclaim_seq > cfg_.completion_ring / 2) {
      if (reconcile_dead_claims(ctx) > 0) drain_completions(ctx);
      o.stall_seq = o.reclaim_seq;
      o.stall_since = ctx.now();
    }
  }

  // (b) Our lock held by the same peer for a whole lease (a dead holder
  // would otherwise freeze stealing from this queue forever — the owner
  // itself only contends in try_acquire).
  const std::uint64_t holder = ctx.local_load(meta_.plus(kLockOff));
  if (holder == 0 || holder == static_cast<std::uint64_t>(ctx.pe()) + 1) {
    o.lock_holder = 0;
  } else if (holder != o.lock_holder) {
    o.lock_holder = holder;
    o.lock_since = now;
  } else if (now - o.lock_since >= lease) {
    break_dead_lock(ctx);
    o.lock_holder = 0;
  }
}

void SdcQueue::drain_completions(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  // Drain the deferred-copy ring in claim order; each finished slot frees
  // its block of ring space. Records are sequence-tagged, so reclaim is
  // monotone even when the fabric duplicates or delays completion AMOs.
  for (;;) {
    const pgas::SymPtr slot = meta_.plus(completion_off(o.reclaim_seq));
    const std::uint64_t v = ctx.local_load(slot);
    if (v == 0) break;
    const std::uint64_t tag = v >> kCountBits;
    if (tag == o.reclaim_seq + 1) {
      l.reclaim_abs += v & kCountMask;
      ctx.local_store(slot, 0);
      ++o.reclaim_seq;
      continue;
    }
    // A duplicated delivery from an earlier lap of the ring landed after
    // its slot was already consumed: its tag is behind the cursor.
    // Discard it — the space was reclaimed when the original arrived.
    SWS_ASSERT_MSG(tag <= o.reclaim_seq,
                   "completion ring overrun: record tagged from the future");
    ctx.local_store(slot, 0);
  }
}

bool SdcQueue::break_dead_lock(pgas::PeContext& ctx) {
  const std::uint64_t holder = ctx.local_load(meta_.plus(kLockOff));
  if (holder == 0 || holder == static_cast<std::uint64_t>(ctx.pe()) + 1)
    return false;
  const int pe = static_cast<int>(holder - 1);
  if (!recovery_->known_dead(ctx.pe(), pe) && !recovery_->probe(ctx, pe))
    return false;
  // Only the holder could release the word and it is dead, and thieves
  // only CAS 0 -> want, so this CAS races nothing: it either frees the
  // lock or the word already changed (impossible once the holder died,
  // but a failed CAS is still just "nothing broken").
  if (ctx.fabric().amo_compare_swap(ctx.pe(), ctx.pe(), meta_.off + kLockOff,
                                    holder, 0) != holder)
    return false;
  ++local(ctx).stats.leases_broken;
  return true;
}

std::uint32_t SdcQueue::reconcile_dead_claims(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  // Freeze the metadata (no new claims), then let every effect already in
  // flight toward us land: a live claimant's completion may be the very
  // record we are about to misread as missing. Claims from peers that
  // died are not in flight — the fabric dropped them at crash time.
  lock_own(ctx);
  while (ctx.fabric().pending_to(ctx.pe()) > 0)
    ctx.compute(kLockBackoffNs);
  drain_completions(ctx);

  std::uint32_t fenced = 0;
  const std::uint64_t cur_seq = ctx.local_load(meta_.plus(kSeqOff));
  while (o.reclaim_seq < cur_seq) {
    const std::uint64_t s = o.reclaim_seq;
    // drain_completions stopped here, so claim s is open. Intent precedes
    // the claim inside the critical section, so a consumed sequence always
    // has its record.
    const std::uint64_t iv = ctx.local_load(meta_.plus(intent_off(s)));
    SWS_ASSERT_MSG((iv >> 32) == s + 1,
                   "sdc recovery: claimed sequence without an intent record");
    const int thief = static_cast<int>((iv >> kCountBits) & 0xFF);
    const auto take = iv & kCountMask;
    if (!recovery_->known_dead(ctx.pe(), thief) &&
        !recovery_->probe(ctx, thief))
      break;  // live claimant mid-copy: its completion will arrive
    // Claim s covers [reclaim_abs, reclaim_abs + take): claims advance the
    // tail contiguously in sequence order and everything before s is
    // reclaimed. The dead thief never finished its copy, so the owner
    // still holds the authoritative bytes — take custody and re-publish.
    for (std::uint64_t i = 0; i < take; ++i)
      l.recovered.push_back(buffer_.read_local(ctx, l.reclaim_abs + i));
    l.reclaim_abs += take;
    ++o.reclaim_seq;
    ++fenced;
    ++l.stats.leases_broken;
    l.stats.tasks_recovered += take;
    drain_completions(ctx);  // live completions behind the wedge
  }
  unlock(ctx, ctx.pe());
  return fenced;
}

void SdcQueue::fence_dead(pgas::PeContext& ctx) {
  if (!crash_mode(ctx)) return;
  break_dead_lock(ctx);
  drain_completions(ctx);
  if (claims_open(ctx)) reconcile_dead_claims(ctx);
}

bool SdcQueue::claims_open(pgas::PeContext& ctx) const {
  // Every claim advances seq; reclaim_seq passes it only once the claim's
  // completion is drained or the claim is fenced.
  return owners_[static_cast<std::size_t>(ctx.pe())].reclaim_seq <
         ctx.local_load(meta_.plus(kSeqOff));
}

// ------------------------------------------------------------ thief side

StealResult SdcQueue::steal(pgas::PeContext& thief, int victim,
                            std::vector<Task>& out) {
  SWS_ASSERT(victim != thief.pe());
  auto& st = local(thief).stats;
  auto& fab = thief.fabric();
  const auto want = static_cast<std::uint64_t>(thief.pe()) + 1;

  // (1) acquire the remote queue lock, aborting early if the queue drains
  // while we wait (the "aborting steals" in SDC). The poison word is
  // nonzero, so a CAS against a dead victim's lock reads as "held
  // forever"; without the raw-word checks the thief would bounce between
  // kRetry and kEmpty for the rest of the run.
  std::uint32_t attempts = 0;
  for (;;) {
    const std::uint64_t lockword = fab.amo_compare_swap(
        thief.pe(), victim, meta_.off + kLockOff, 0, want);
    if (lockword == 0) break;
    if (lockword == net::kDeadFetchValue) return dead_victim(thief, victim);
    std::uint64_t meta[3];  // split, tail, seq
    fab.get(thief.pe(), victim, meta_.off + kSplitOff, meta, sizeof meta);
    if (meta[0] == net::kDeadFetchValue) return dead_victim(thief, victim);
    if (meta[1] >= meta[0]) {
      ++st.steals_empty;
      return {StealOutcome::kEmpty, 0};
    }
    if (++attempts >= cfg_.max_lock_attempts) {
      ++st.steals_retry;
      // Lock convoy: the holder needs roughly one backoff to drain.
      return {StealOutcome::kRetry, 0, kLockBackoffNs};
    }
    thief.compute(kLockBackoffNs);
  }

  // (2) fetch the metadata to size the steal.
  std::uint64_t meta[3];  // split, tail, seq
  fab.get(thief.pe(), victim, meta_.off + kSplitOff, meta, sizeof meta);
  if (meta[0] == net::kDeadFetchValue) return dead_victim(thief, victim);
  const std::uint64_t split = meta[0];
  const std::uint64_t tail = meta[1];
  const std::uint64_t seq = meta[2];
  const std::uint64_t avail = split > tail ? split - tail : 0;
  if (avail == 0) {
    unlock(thief, victim);
    ++st.steals_empty;
    return {StealOutcome::kEmpty, 0};
  }

  // Steal half of the available work (work-stealing's sweet spot, §2).
  const auto take =
      static_cast<std::uint32_t>(avail > 1 ? avail / 2 : 1);

  // Crash mode only: record claim intent *before* the claim is visible,
  // so if we die with the claim published the owner can reconstruct what
  // we held (see encode_intent). Blocking put inside the critical section.
  if (fab.crashes_planned()) {
    const std::uint64_t iv = encode_intent(seq, thief.pe(), take);
    fab.put(thief.pe(), victim, meta_.off + intent_off(seq), &iv, sizeof iv);
  }

  // (3) claim: advance the tail and the steal sequence in one put.
  const std::uint64_t claim[2] = {tail + take, seq + 1};
  fab.put(thief.pe(), victim, meta_.off + kTailOff, claim, sizeof claim);

  // (4) release the lock — the copy proceeds outside the critical section.
  unlock(thief, victim);

  // (5) copy the stolen block (deferred copy). If the victim died under
  // the copy, the claim dies with the victim's queue.
  if (!buffer_.get_remote(thief, victim, buffer_.wrap(tail), take, out))
    return dead_victim(thief, victim);

  // (6) passive completion notification; the owner reclaims ring space on
  // its next progress() pass. The record carries its claim sequence and is
  // written with an idempotent set, so duplicated delivery is harmless.
  fab.nbi_amo_set(thief.pe(), victim, meta_.off + completion_off(seq),
                  encode_completion(seq, take));

  ++st.steals_ok;
  st.tasks_stolen += take;
  return {StealOutcome::kSuccess, take};
}

std::string SdcQueue::audit(pgas::PeContext& ctx) const {
  const auto& l = local(ctx);
  auto bad = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    return std::string("sdc audit: ") + what + " (" + std::to_string(a) +
           " vs " + std::to_string(b) + ")";
  };

  // Cursor order: reclaim <= tail <= split <= head. Completions can only
  // lag claims, and thieves only advance the tail up to the split.
  const std::uint64_t tail = owner_tail(ctx);
  const std::uint64_t split = ctx.local_load(meta_.plus(kSplitOff));
  if (l.reclaim_abs > tail)
    return bad("reclaim past tail", l.reclaim_abs, tail);
  if (tail > l.split_abs)
    return bad("tail past split", tail, l.split_abs);
  if (split != l.split_abs)
    return bad("split mirror out of sync", split, l.split_abs);
  if (l.split_abs > l.head_abs)
    return bad("split past head", l.split_abs, l.head_abs);
  if (l.head_abs - l.reclaim_abs > buffer_.capacity())
    return bad("occupied span exceeds capacity", l.head_abs - l.reclaim_abs,
               buffer_.capacity());

  // The spinlock only ever holds 0 (free) or thief_pe + 1.
  const std::uint64_t lock = ctx.local_load(meta_.plus(kLockOff));
  if (lock > static_cast<std::uint64_t>(ctx.fabric().npes()))
    return bad("lock word corrupt", lock,
               static_cast<std::uint64_t>(ctx.fabric().npes()));
  return {};
}

}  // namespace sws::core
