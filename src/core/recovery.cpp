#include "core/recovery.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/fabric.hpp"

namespace sws::core {

DeathRegistry::DeathRegistry(pgas::Runtime& rt, const RecoveryConfig& cfg)
    : cfg_(cfg),
      npes_(rt.npes()),
      heartbeat_(rt.heap().alloc(sizeof(std::uint64_t))),
      dead_(static_cast<std::size_t>(npes_) * static_cast<std::size_t>(npes_)),
      known_(static_cast<std::size_t>(npes_)) {}

void DeathRegistry::reset_pe(pgas::PeContext& ctx) {
  const int me = ctx.pe();
  const auto row = dead_.begin() + static_cast<std::ptrdiff_t>(index(me, 0));
  std::fill(row, row + npes_, false);
  known_[static_cast<std::size_t>(me)] = 0;
  ctx.heap().zero(me, heartbeat_, sizeof(std::uint64_t));
}

int DeathRegistry::lowest_live(int observer) const noexcept {
  for (int pe = 0; pe < npes_; ++pe)
    if (!known_dead(observer, pe)) return pe;
  return -1;  // unreachable: the observer itself is alive
}

bool DeathRegistry::note_dead(int observer, int pe) {
  SWS_ASSERT(pe >= 0 && pe < npes_ && observer != pe);
  const std::size_t i = index(observer, pe);
  if (dead_[i]) return false;
  dead_[i] = true;
  ++known_[static_cast<std::size_t>(observer)];
  return true;
}

bool DeathRegistry::probe(pgas::PeContext& ctx, int pe) {
  if (known_dead(ctx.pe(), pe)) return true;
  // Live PEs keep their heartbeat word at zero; only a crashed target
  // makes a fetch return the poison value.
  if (ctx.fetch(pe, heartbeat_) != net::kDeadFetchValue) return false;
  note_dead(ctx.pe(), pe);
  return true;
}

int DeathRegistry::probe_all(pgas::PeContext& ctx) {
  int news = 0;
  for (int pe = 0; pe < npes_; ++pe) {
    if (pe == ctx.pe() || known_dead(ctx.pe(), pe)) continue;
    if (probe(ctx, pe)) ++news;
  }
  return news;
}

}  // namespace sws::core
