// Collectives built from one-sided operations, in the style PGAS runtimes
// actually use: a dissemination barrier (log2 P rounds of 8-byte puts with
// generation-number flags) and a centralized sum reduction for the
// low-frequency setup/teardown paths.
#include "common/assert.hpp"
#include "pgas/runtime.hpp"

namespace sws::pgas {
namespace {

/// Poll interval while waiting on a flag. The wait parks between polls
/// (VirtualTimeModel::park), but its clocks stay on this slice grid.
constexpr net::Nanos kPollNs = 200;

int dissemination_rounds(int npes) {
  int rounds = 0;
  for (int span = 1; span < npes; span <<= 1) ++rounds;
  return rounds;
}

}  // namespace

void PeContext::barrier() {
  const int p = npes();
  if (p == 1) return;
  const auto& coll = rt_.coll();
  const std::uint64_t gen = ++barrier_gen_;
  const int rounds = dissemination_rounds(p);
  SWS_ASSERT(rounds <= Runtime::CollectiveSpace::kMaxRounds);

  for (int r = 0; r < rounds; ++r) {
    const int partner = (pe_ + (1 << r)) % p;
    const SymPtr flag = coll.barrier_flags.plus(static_cast<std::uint64_t>(r) * 8);
    fabric().amo_set(pe_, partner, flag.off, gen);
    rt_.time().wake(partner, pe_);
    // Wait for our own round-r flag to reach this generation. Flags are
    // monotonic, so a fast partner being a generation ahead is harmless,
    // and so is a wake meant for another round: the flag is re-checked.
    // Parked, the PE resumes at the poll slice that sees the write (or
    // dies at the one that crosses its planned crash time), as a loop of
    // compute(kPollNs) would.
    while (local_load(flag) < gen) {
      rt_.time().park(pe_, kPollNs, fabric().crash_deadline(pe_));
      fabric().poll_crash(pe_);
    }
  }
}

std::uint64_t PeContext::sum_u64(std::uint64_t value) {
  const auto& coll = rt_.coll();
  const SymPtr slot =
      coll.reduce_slots.plus(static_cast<std::uint64_t>(pe_) * 8);
  fabric().amo_set(pe_, /*target=*/0, slot.off, value);
  barrier();
  if (pe_ == 0) {
    std::uint64_t total = 0;
    for (int i = 0; i < npes(); ++i)
      total += local_load(coll.reduce_slots.plus(static_cast<std::uint64_t>(i) * 8));
    fabric().amo_set(pe_, 0, coll.reduce_result.off, total);
  }
  barrier();
  return fetch(/*target=*/0, coll.reduce_result);
}

}  // namespace pgas
