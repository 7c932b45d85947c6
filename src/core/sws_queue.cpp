#include "core/sws_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/recovery.hpp"

namespace sws::core {

namespace {

/// Validate before any symmetric allocation so bad parameters fail with a
/// clear error instead of heap exhaustion.
QueueConfig validated(QueueConfig q) {
  SWS_CHECK(q.capacity <= kMaxITasks,
            "capacity exceeds the stealval itasks field");
  return q;
}

SwsConfig validated(SwsConfig c) {
  SWS_CHECK(c.bulk_claim_max >= 1 && c.bulk_claim_max <= kMaxBulkClaim,
            "bulk_claim_max must be in [1, kMaxBulkClaim]");
  return c;
}

/// Steal-pressure threshold cap: an allotment counts as hot when thieves'
/// observed asteals delta covers every one of its blocks (they consumed it
/// whole), capped at this many for large allotments. The owner retires an
/// allotment the moment it drains, so the delta can never run far past the
/// block count — an absolute threshold above it would be unreachable for
/// the small allotments steal storms actually produce. A hot retirement
/// makes the next release expose 3/4 of the local portion instead of half.
constexpr std::uint32_t kHighPressure = 8;

/// Owner poll interval while waiting for an epoch's steals to finish; also
/// the retry hint a thief gets while the owner holds the stealval locked.
constexpr net::Nanos kEpochPollNs = 400;

/// Damping (§4.3): failed attempts past a target's exhaustion before a
/// thief puts it in empty-mode.
constexpr std::uint32_t kDampingSlack = 8;

}  // namespace

SwsQueue::SwsQueue(pgas::Runtime& rt, const QueueConfig& queue, SwsConfig cfg)
    : TaskQueue(rt, validated(queue)),
      cfg_(validated(cfg)),
      stealval_(rt.heap().alloc(sizeof(std::uint64_t), 8)),
      completion_(rt.heap()),
      owners_(static_cast<std::size_t>(rt.npes())),
      thieves_(static_cast<std::size_t>(rt.npes())) {
  for (auto& t : thieves_) {
    t.empty_mode.assign(static_cast<std::size_t>(rt.npes()), 0);
    t.seen_blocks.assign(static_cast<std::size_t>(rt.npes()), 0);
  }
}

void SwsQueue::reset_shared(pgas::PeContext& ctx) {
  owners_[static_cast<std::size_t>(ctx.pe())] = OwnerState{};
  auto& t = thieves_[static_cast<std::size_t>(ctx.pe())];
  std::fill(t.empty_mode.begin(), t.empty_mode.end(), std::uint8_t{0});
  std::fill(t.seen_blocks.begin(), t.seen_blocks.end(), std::uint8_t{0});
  t.claim_size = 1;
  // Valid-but-empty stealval: thieves decode itasks == 0 and give up
  // without claiming anything.
  ctx.local_store(stealval_, 0);
  for (std::uint32_t e = 0; e < kNumEpochs; ++e)
    completion_.clear_epoch(ctx, e);
}

// ------------------------------------------------------------ owner side

StealVal SwsQueue::owner_stealval(pgas::PeContext& ctx) const {
  return StealVal::decode(ctx.local_load(stealval_));
}

bool SwsQueue::shared_available(pgas::PeContext& ctx) const {
  // Unclaimed tasks remain while the claimed prefix hasn't consumed the
  // whole allotment. Local atomic read — no communication.
  const StealVal sv = owner_stealval(ctx);
  if (sv.itasks == 0) return false;
  const std::uint32_t nblocks = steal_block_count(sv.itasks);
  const std::uint32_t claimed = std::min(sv.asteals, nblocks);
  return steal_block_offset(sv.itasks, claimed) < sv.itasks;
}

std::uint32_t SwsQueue::retire_allotment(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& st = local(ctx).stats;

  // Disable stealing: thieves that hit the sentinel see a locked epoch and
  // abort; their stray asteals increments die with the sentinel.
  const std::uint64_t old_word = ctx.fabric().amo_swap(
      ctx.pe(), ctx.pe(), stealval_.off, locked_sentinel());
  const StealVal old = StealVal::decode(old_word);
  SWS_ASSERT_MSG(!old.locked(), "queue was already locked by its owner");
  SWS_ASSERT(old.epoch == o.epoch && old.itasks == o.itasks);

  const std::uint32_t nblocks = steal_block_count(o.itasks);
  const std::uint32_t claimed = std::min(old.asteals, nblocks);
  if (claimed > 0) {
    o.outstanding.push_back(
        AllotmentRecord{o.epoch, o.alloc_base_abs, o.itasks, claimed});
  }

  const std::uint32_t next_epoch =
      cfg_.epochs ? (o.epoch + 1) % kNumEpochs : o.epoch;
  // Wait until the completion array we are about to reuse is free. With
  // epochs on, that is only the *other* epoch's outstanding record; with
  // epochs off we must drain everything — the §4.1 behaviour the epochs
  // optimization removes.
  auto must_wait = [&]() {
    for (const auto& rec : o.outstanding) {
      if (!cfg_.epochs) return true;  // any outstanding record blocks us
      if (rec.epoch == next_epoch) return true;
    }
    return false;
  };
  const bool crashes = crash_mode(ctx);
  net::Nanos lease_start = crashes ? ctx.now() : 0;
  while (true) {
    progress(ctx);
    if (!must_wait()) break;
    if (crashes &&
        ctx.now() - lease_start >= recovery_->config().lease_ns) {
      // A healthy thief turns a claim into a completion in microseconds
      // even through the fault layer's full retransmit budget; a claim
      // still open after a whole lease means its thief is suspect. Probe,
      // and if a death is confirmed, drain every effect still in flight
      // toward us (a live thief's notify may be the thing we're missing)
      // before fencing what remains.
      recovery_->probe_all(ctx);
      if (recovery_->known_count(ctx.pe()) > 0) {
        while (ctx.fabric().pending_to(ctx.pe()) > 0) {
          ctx.compute(kEpochPollNs);
          st.acquire_poll_ns += kEpochPollNs;
        }
        progress(ctx);  // absorb completions that just landed
        if (must_wait()) fence_dead_claims(ctx);
      }
      lease_start = ctx.now();
      continue;
    }
    ctx.compute(kEpochPollNs);
    st.acquire_poll_ns += kEpochPollNs;
  }

  // Under duplication faults, a finished prefix proves the *originals*
  // landed but a duplicate completion AMO may still be in flight — and a
  // fetch-add replayed into a recycled epoch would corrupt a fresh slot.
  // Both copies of a duplicated op enter the fabric's pending set at
  // issue time, so pending_to(us)==0 certifies no stray copy remains.
  if (ctx.fabric().fault_duplicates_possible()) {
    while (ctx.fabric().pending_to(ctx.pe()) > 0) {
      ctx.compute(kEpochPollNs);
      st.acquire_poll_ns += kEpochPollNs;
    }
  }

  completion_.clear_epoch(ctx, next_epoch);
  o.epoch = next_epoch;
  return claimed;
}

void SwsQueue::publish(pgas::PeContext& ctx, std::uint32_t itasks) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  o.itasks = itasks;
  o.asteals_seen = 0;  // fresh allotment: pressure deltas restart at zero
  const StealVal sv{0, o.epoch, itasks, buffer_.wrap(o.alloc_base_abs)};
  // Atomic store re-enables stealing in one local AMO.
  ctx.fabric().amo_set(ctx.pe(), ctx.pe(), stealval_.off, sv.encode());
}

bool SwsQueue::try_release(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  // Release requires the shared portion exhausted and spare local work.
  if (shared_available(ctx)) return false;
  const auto nlocal = static_cast<std::uint32_t>(l.head_abs - l.split_abs);
  if (nlocal < 2) return false;

  const std::uint32_t retired_claims = retire_allotment(ctx);
  // Expose the oldest half of the local portion as the new allotment — or,
  // in bulk mode under observed steal pressure, three quarters: hot victims
  // feed bigger allotments so bulk claims have whole multi-block spans to
  // amortize over.
  std::uint32_t expose = nlocal / 2;
  // Hot iff thieves claimed the whole retiring allotment (asteals delta or
  // the retire swap's authoritative claim count covers its block count,
  // floored at 1 so an initial empty allotment never counts, capped at
  // kHighPressure for large ones).
  const std::uint32_t hot_at = std::min(
      kHighPressure, std::max<std::uint32_t>(steal_block_count(o.itasks), 1));
  if (cfg_.bulk_claim_max > 1 &&
      std::max(o.pressure, retired_claims) >= hot_at) {
    expose = (3 * nlocal) / 4;
    ++l.stats.pressure_releases;
  }
  o.pressure = 0;
  expose = std::min(expose, kMaxITasks);
  o.alloc_base_abs = l.split_abs;
  l.split_abs += expose;
  publish(ctx, expose);
  ++l.stats.releases;
  return true;
}

bool SwsQueue::try_acquire(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  if (l.head_abs != l.split_abs) return false;  // local work remains
  if (!shared_available(ctx)) return false;

  // The swap inside retire_allotment is authoritative: thieves may have
  // claimed more blocks since our shared_available peek.
  const std::uint32_t claimed = retire_allotment(ctx);
  const std::uint64_t claim_end =
      o.alloc_base_abs + steal_block_offset(o.itasks, claimed);
  const auto unclaimed =
      static_cast<std::uint32_t>(o.alloc_base_abs + o.itasks - claim_end);

  bool took = false;
  if (unclaimed > 0) {
    // Pull the upper half back into the local portion; the lower half
    // becomes the new (smaller) allotment.
    const std::uint32_t take = (unclaimed + 1) / 2;
    l.split_abs -= take;
    took = true;
    ++l.stats.acquires;
  }
  o.alloc_base_abs = claim_end;
  publish(ctx, static_cast<std::uint32_t>(l.split_abs - claim_end));
  return took;
}

void SwsQueue::renew_allotment(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  const std::uint32_t claimed = retire_allotment(ctx);
  const std::uint64_t claim_end =
      o.alloc_base_abs + steal_block_offset(o.itasks, claimed);
  o.alloc_base_abs = claim_end;
  publish(ctx, static_cast<std::uint32_t>(local(ctx).split_abs - claim_end));
}

void SwsQueue::progress(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  // Wraparound protection (owner half): once the asteals counter runs hot
  // — a probe storm against a long-lived allotment — retire it and
  // republish the unclaimed remainder, which resets asteals to 0 long
  // before any thief can wrap the 24-bit field and double-claim a block.
  // retire_allotment() re-enters progress() from its wait loop with the
  // locked sentinel already in place, so the !locked() gate makes the
  // renewal non-recursive.
  {
    const StealVal sv = owner_stealval(ctx);
    // Steal-pressure sampling (bulk mode): the same local read the renew
    // check needs also yields the per-epoch asteals delta — the owner's
    // only signal for how hard thieves are hitting this allotment.
    if (cfg_.bulk_claim_max > 1 && !sv.locked()) {
      if (sv.asteals > o.asteals_seen) o.pressure += sv.asteals - o.asteals_seen;
      o.asteals_seen = sv.asteals;
    }
    if (!sv.locked() && sv.asteals >= kAStealsRenewAt) {
      renew_allotment(ctx);
      ++l.stats.renews;
    }
  }
  // Retired allotments reclaim in order; within one, only the finished
  // *prefix* of blocks frees space (paper §4.2).
  while (!o.outstanding.empty()) {
    const AllotmentRecord& rec = o.outstanding.front();
    const std::uint32_t prefix =
        completion_.finished_prefix(ctx, rec.epoch, rec.claimed_blocks);
    l.reclaim_abs = std::max(
        l.reclaim_abs, rec.base_abs + steal_block_offset(rec.itasks, prefix));
    if (prefix < rec.claimed_blocks) return;  // oldest epoch still pending
    o.outstanding.pop_front();
  }
  // All retired allotments drained: the live allotment's finished prefix
  // is also reclaimable.
  if (o.itasks > 0) {
    const std::uint32_t nblocks = steal_block_count(o.itasks);
    const std::uint32_t prefix = completion_.finished_prefix(
        ctx, o.epoch, std::min(nblocks, CompletionSpace::kSlotsPerEpoch));
    l.reclaim_abs =
        std::max(l.reclaim_abs,
                 o.alloc_base_abs + steal_block_offset(o.itasks, prefix));
  } else {
    l.reclaim_abs = std::max(l.reclaim_abs, o.alloc_base_abs);
  }
}

std::uint32_t SwsQueue::fence_dead_claims(pgas::PeContext& ctx) {
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  auto& l = local(ctx);
  std::uint32_t fenced = 0;
  // Every record here was retired before this wait began, so each of its
  // claims is at least one full lease old; with pending-to-us drained, an
  // unfinished slot can only belong to a thief that died between its
  // fetch-add claim and its completion notify. The ring data under the
  // claim is intact — reclaim never advanced past it (that is exactly the
  // stall being broken) — so the owner takes custody of the tasks and
  // finishes the slot itself. The dead thief may have copied the block
  // before dying without ever running it; re-publication makes execution
  // at-least-once, deduplicated at completion accounting (docs/resilience.md).
  for (const auto& rec : o.outstanding) {
    for (std::uint32_t b = 0; b < rec.claimed_blocks; ++b) {
      if (completion_.read(ctx, rec.epoch, b) != 0) continue;
      const StealBlock blk = steal_block(rec.itasks, b);
      for (std::uint32_t i = 0; i < blk.size; ++i)
        l.recovered.push_back(
            buffer_.read_local(ctx, rec.base_abs + blk.offset + i));
      completion_.force_finished(ctx, rec.epoch, b, blk.size);
      ++fenced;
      ++l.stats.leases_broken;
      l.stats.tasks_recovered += blk.size;
    }
  }
  return fenced;
}

void SwsQueue::fence_dead(pgas::PeContext& ctx) {
  if (!crash_mode(ctx)) return;
  auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  progress(ctx);
  const StealVal sv = owner_stealval(ctx);
  const bool live_claims = sv.itasks > 0 && sv.asteals > 0;
  if (o.outstanding.empty() && !live_claims) return;

  // Claims on the live allotment only become fenceable records once the
  // allotment is retired; republish the unclaimed remainder (renew-style)
  // so thieves keep their access to it.
  if (live_claims) renew_allotment(ctx);
  if (o.outstanding.empty()) return;

  // Age every remaining claim past the lease before fencing: a live thief
  // that claimed just before the retire above turns its claim into a
  // completion in far less than one lease, so whatever is still open
  // afterwards — with all in-flight effects toward us drained — belongs
  // to a dead thief.
  const net::Nanos until = ctx.now() + recovery_->config().lease_ns;
  while (ctx.now() < until) {
    ctx.compute(kEpochPollNs);
    local(ctx).stats.acquire_poll_ns += kEpochPollNs;
  }
  while (ctx.fabric().pending_to(ctx.pe()) > 0)
    ctx.compute(kEpochPollNs);
  progress(ctx);
  if (!o.outstanding.empty()) fence_dead_claims(ctx);
  progress(ctx);
}

bool SwsQueue::claims_open(pgas::PeContext& ctx) const {
  const auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  if (!o.outstanding.empty()) return true;  // a retired claim not yet done
  const StealVal sv = owner_stealval(ctx);
  if (sv.locked() || sv.itasks == 0) return false;
  const std::uint32_t claimed =
      std::min({sv.asteals, steal_block_count(sv.itasks),
                CompletionSpace::kSlotsPerEpoch});
  return completion_.finished_prefix(ctx, o.epoch, claimed) < claimed;
}

// ------------------------------------------------------------ thief side

bool SwsQueue::has_work(const StealVal& sv) noexcept {
  if (sv.locked() || sv.itasks == 0) return false;
  // A saturated counter means "wait for the owner to renew", never "work
  // available" — claiming near the wrap point risks block aliasing.
  if (sv.asteals >= kAStealsSoftCap) return false;
  return sv.asteals < steal_block_count(sv.itasks);
}

StealResult SwsQueue::steal(pgas::PeContext& thief, int victim,
                            std::vector<Task>& out) {
  SWS_ASSERT(victim != thief.pe());
  auto& st = local(thief).stats;
  auto& fab = thief.fabric();
  auto& tstate = thieves_[static_cast<std::size_t>(thief.pe())];
  auto& mode = tstate.empty_mode[static_cast<std::size_t>(victim)];

  // Bulk claims: in bulk mode the thief's adaptive claim size decides
  // how many blocks this one fetch-add tries to take. Success doubles it
  // (capped at bulk_claim_max); it halves on signals that a victim
  // genuinely can't feed a bulk claim — an empty read-only probe (the
  // victim has nothing published), a soft-cap refusal, a dead victim.
  // Two *transient* outcomes deliberately leave it alone: losing the
  // claim race to peers (fetch-add landed past the last block) and
  // catching the owner's locked rotation sentinel. Under a steal storm
  // both happen constantly between wins, and shrinking on either pins
  // every claim at one block exactly when bulk claims pay off most.
  // Overshoot past the last block only burns dead asteals units, which
  // the soft-cap/renewal guards bound.
  std::uint8_t* csize =
      cfg_.bulk_claim_max > 1 ? &tstate.claim_size : nullptr;
  std::uint32_t want =
      csize != nullptr
          ? std::min<std::uint32_t>(*csize, cfg_.bulk_claim_max)
          : 1;
  // Observed-allotment cap: never ask for more than half the victim's
  // last-seen block count. A warmed-up thief (claim_size at max) hitting
  // a small owner would otherwise swallow the whole allotment with every
  // AMO, funneling all other thieves through that owner's renewal cadence
  // — the single-victim-storm pathology (bench/ablation_bulk). Half
  // leaves the remainder claimable concurrently; unknown victims (0)
  // fall back to the pure adaptive size.
  if (csize != nullptr) {
    const std::uint8_t seen =
        tstate.seen_blocks[static_cast<std::size_t>(victim)];
    if (seen > 0)
      want = std::min<std::uint32_t>(
          want, std::max<std::uint32_t>(std::uint32_t{seen} / 2, 1));
  }
  // Refresh the per-victim observation from any decoded live allotment.
  auto note_allotment = [&](const StealVal& v) {
    if (csize != nullptr && !v.locked() && v.itasks > 0)
      tstate.seen_blocks[static_cast<std::size_t>(victim)] =
          static_cast<std::uint8_t>(
              std::min<std::uint32_t>(steal_block_count(v.itasks), 255));
  };
  auto grow_claim = [&] {
    if (csize != nullptr)
      *csize = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(want * 2, cfg_.bulk_claim_max));
  };
  auto shrink_claim = [&] {
    if (csize != nullptr)
      *csize = static_cast<std::uint8_t>(std::max<std::uint32_t>(want / 2, 1));
  };

  // The poison word decodes to a *locked* stealval (the 2-bit epoch field
  // reads as the sentinel), so without the raw-word checks below a dead
  // victim would look permanently busy and the thief would retry forever.
  // kPeerDead instead evicts the victim from the steal set for good.
  auto dead_victim = [&] {
    shrink_claim();
    return TaskQueue::dead_victim(thief, victim);
  };

  if (mode != 0) {
    // Empty-mode (§4.3): read-only probe so exhausted targets don't have
    // their asteals counter inflated toward overflow. With damping off,
    // mode is only ever set by the saturation guard below — the probe is
    // then mandatory wraparound protection, not an optimization.
    ++st.damping_probes;
    const std::uint64_t probe_word =
        fab.amo_fetch(thief.pe(), victim, stealval_.off);
    if (probe_word == net::kDeadFetchValue) return dead_victim();
    const StealVal probe = StealVal::decode(probe_word);
    note_allotment(probe);
    if (!has_work(probe)) {
      shrink_claim();  // the victim provably has nothing published
      ++st.steals_empty;
      return {StealOutcome::kEmpty, 0};
    }
    mode = 0;  // back to full-mode; fall through and claim for real
  }

  // (1) The single-communication discover+claim: fetch-add the packed
  // asteals field. In bulk mode the addend is `want` units, claiming the
  // next `want` contiguous blocks at once; the returned prior value is our
  // claim ticket either way.
  const std::uint64_t word =
      fab.amo_fetch_add(thief.pe(), victim, stealval_.off,
                        AStealsField::unit() * want);
  if (word == net::kDeadFetchValue) return dead_victim();
  const StealVal sv = StealVal::decode(word);
  note_allotment(sv);

  if (sv.locked()) {
    ++st.steals_retry;
    // The owner rotates epochs on its poll cadence; retrying sooner than
    // that only re-reads the sentinel.
    return {StealOutcome::kRetry, 0, kEpochPollNs};
  }
  if (sv.asteals + want > kAStealsSoftCap) {
    // Wraparound protection (thief half): a claim whose last unit would
    // land at/past the cap could alias an already-claimed block once the
    // counter wraps mod 2^24 — with bulk increments, checking the fetched
    // prior alone is not enough. Refuse the claim and go probe-first until
    // the owner's progress() renews the allotment (asteals back to 0).
    mode = 1;
    shrink_claim();
    ++st.steals_retry;
    return {StealOutcome::kRetry, 0, kEpochPollNs};
  }
  const std::uint32_t nblocks = steal_block_count(sv.itasks);
  if (sv.itasks == 0 || sv.asteals >= nblocks) {
    if (cfg_.damping && sv.asteals >= nblocks + kDampingSlack) mode = 1;
    ++st.steals_empty;
    return {StealOutcome::kEmpty, 0};
  }

  // Our claim is fully determined by (itasks, asteals, want): blocks
  // [asteals, min(asteals + want, nblocks)) — volume by repeated halving,
  // displacement by the claimed prefix (§4.1). A claim that runs past the
  // last block keeps what exists; the overshot units are dead indices no
  // other thief can receive (their fetched priors are larger still).
  const std::uint32_t b0 = sv.asteals;
  const std::uint32_t k = std::min(b0 + want, nblocks) - b0;
  const std::uint32_t first_off = steal_block_offset(sv.itasks, b0);
  const std::uint32_t ntasks = steal_block_offset(sv.itasks, b0 + k) - first_off;
  SWS_ASSERT(k > 0 && ntasks > 0);
  const std::uint32_t start_mod =
      (sv.tail + first_off) % buffer_.capacity();

  // (2) copy the claimed blocks — contiguous in the ring, so even a
  // multi-block claim is one coalesced get (two when it wraps).
  // If the victim died between our claim and the copy, the claim dies
  // with it: no completion is owed to anyone.
  if (!buffer_.get_remote(thief, victim, start_mod, ntasks, out))
    return dead_victim();

  // (3) passive completion notification, one non-blocking AMO per claimed
  // block — the owner's finished-prefix reclaim is per block, so a bulk
  // claim must light up each of its slots.
  for (std::uint32_t b = 0; b < k; ++b)
    completion_.notify_finished(thief, victim, sv.epoch, b0 + b,
                                steal_block_size(sv.itasks, b0 + b));

  grow_claim();
  ++st.steals_ok;
  st.tasks_stolen += ntasks;
  st.blocks_claimed += k;
  if (k > 1) ++st.bulk_claims;
  // A claim that took every block of a multi-block allotment: the exact
  // shape the observed-allotment cap exists to suppress (the storm regime
  // of bench/ablation_bulk asserts it stays rare).
  if (k == nblocks && nblocks > 1) ++st.full_claims;
  return {StealOutcome::kSuccess, ntasks, 0, k};
}

std::string SwsQueue::audit(pgas::PeContext& ctx) const {
  const auto& o = owners_[static_cast<std::size_t>(ctx.pe())];
  const auto& l = local(ctx);
  auto bad = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    return std::string("sws audit: ") + what + " (" + std::to_string(a) +
           " vs " + std::to_string(b) + ")";
  };

  // Ring geometry: reclaim <= live allotment base <= split <= head, the
  // allotment is exactly [alloc_base, split), and the whole occupied span
  // fits in the ring.
  if (l.reclaim_abs > l.split_abs)
    return bad("reclaim past split", l.reclaim_abs, l.split_abs);
  if (o.alloc_base_abs > l.split_abs)
    return bad("alloc_base past split", o.alloc_base_abs, l.split_abs);
  if (l.split_abs > l.head_abs)
    return bad("split past head", l.split_abs, l.head_abs);
  if (o.alloc_base_abs + o.itasks != l.split_abs)
    return bad("allotment size inconsistent with split",
               o.alloc_base_abs + o.itasks, l.split_abs);
  if (l.head_abs - l.reclaim_abs > buffer_.capacity())
    return bad("occupied span exceeds capacity", l.head_abs - l.reclaim_abs,
               buffer_.capacity());

  // Outstanding retired allotments: well-formed records, disjoint and in
  // retirement order, all strictly before the live allotment. The reclaim
  // cursor may sit *inside* the oldest record (it tracks that record's
  // finished prefix) but never past its claimed end.
  std::uint64_t prev_end = 0;
  bool oldest = true;
  for (const auto& rec : o.outstanding) {
    if (rec.epoch >= kNumEpochs)
      return bad("outstanding record epoch out of range", rec.epoch,
                 kNumEpochs);
    if (rec.claimed_blocks == 0 ||
        rec.claimed_blocks > CompletionSpace::kSlotsPerEpoch)
      return bad("outstanding claimed_blocks out of range",
                 rec.claimed_blocks, CompletionSpace::kSlotsPerEpoch);
    if (rec.claimed_end_abs() > o.alloc_base_abs)
      return bad("outstanding record overlaps live allotment", rec.base_abs,
                 o.alloc_base_abs);
    if (rec.base_abs < prev_end)
      return bad("outstanding records overlap", rec.base_abs, prev_end);
    prev_end = rec.claimed_end_abs();
    if (oldest) {
      if (l.reclaim_abs > rec.claimed_end_abs())
        return bad("reclaim past the oldest outstanding record",
                   l.reclaim_abs, rec.claimed_end_abs());
      oldest = false;
    }
  }

  // Published stealval vs. owner mirror. Between any two owner-side
  // operations the word must be unlocked (every op that swaps in the
  // sentinel republishes before returning) and must agree with the
  // owner's private cursors.
  const StealVal sv = owner_stealval(ctx);
  if (sv.locked())
    return bad("stealval locked between owner operations", sv.epoch,
               kNumEpochs);
  if (sv.epoch != o.epoch)
    return bad("stealval epoch mismatch", sv.epoch, o.epoch);
  if (sv.itasks != o.itasks)
    return bad("stealval itasks mismatch", sv.itasks, o.itasks);
  if (sv.tail != buffer_.wrap(o.alloc_base_abs))
    return bad("stealval tail mismatch", sv.tail,
               buffer_.wrap(o.alloc_base_abs));
  return {};
}

}  // namespace sws::core
