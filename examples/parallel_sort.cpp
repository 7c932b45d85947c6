// Parallel PGAS quicksort: recursive partitioning as pool tasks, data in
// the symmetric heap, all access through one-sided communication.
//
// Each PE owns a shard of keys in symmetric memory. A sort task names a
// (shard, lo, hi) range; whoever executes it — owner or thief — fetches
// the range with a one-sided get, partitions (or finishes with std::sort
// below the cutoff), writes it back with a put, and spawns subtasks for
// the two sides. Ranges are disjoint and parents complete before children
// spawn, so the remote reads/writes never overlap.
//
//   ./parallel_sort [--npes 8] [--n 200000] [--queue sws|sdc] [--cutoff 4096]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/options.hpp"
#include "common/rng.hpp"
#include "sws.hpp"

namespace {

struct SortRange {
  std::uint32_t shard;   // PE owning the keys
  std::uint32_t lo, hi;  // index range [lo, hi) within the shard
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  const auto total_n =
      static_cast<std::uint32_t>(opt.get("n", std::int64_t{200'000}));
  const auto cutoff = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(opt.get("cutoff", std::int64_t{4096})));

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  const std::uint32_t shard_n =
      total_n / static_cast<std::uint32_t>(rcfg.npes);
  rcfg.heap_bytes =
      static_cast<std::size_t>(shard_n) * 8 + (std::size_t{2} << 20);
  pgas::Runtime rt(rcfg);

  const pgas::SymPtr data =
      rt.heap().alloc(static_cast<std::size_t>(shard_n) * 8, 64);

  core::TaskRegistry registry;
  core::TaskFnId sort_fn = 0;
  sort_fn = registry.register_fn(
      "sort.range", [&](core::Worker& w, std::span<const std::byte> bytes) {
        SortRange r;
        std::memcpy(&r, bytes.data(), sizeof(r));
        const std::uint32_t n = r.hi - r.lo;
        const int shard = static_cast<int>(r.shard);

        // One-sided fetch of the range (owner pays only loopback cost).
        std::vector<std::uint64_t> keys(n);
        w.ctx().get(shard, data, std::uint64_t{r.lo} * 8, keys.data(),
                    static_cast<std::size_t>(n) * 8);
        w.compute(static_cast<net::Nanos>(n) * 2);  // partition work

        if (n <= cutoff) {
          std::sort(keys.begin(), keys.end());
          w.ctx().put(shard, data, std::uint64_t{r.lo} * 8, keys.data(),
                      static_cast<std::size_t>(n) * 8);
          return;
        }

        // Median-of-three pivot, then partition and write back.
        const std::uint64_t a = keys.front(), b = keys[n / 2],
                            c = keys.back();
        const std::uint64_t pivot =
            std::max(std::min(a, b), std::min(std::max(a, b), c));
        auto mid = std::partition(keys.begin(), keys.end(),
                                  [&](std::uint64_t x) { return x < pivot; });
        // Guard against degenerate splits (all keys >= pivot).
        if (mid == keys.begin()) ++mid;
        const auto cut =
            r.lo + static_cast<std::uint32_t>(mid - keys.begin());
        w.ctx().put(shard, data, std::uint64_t{r.lo} * 8, keys.data(),
                    static_cast<std::size_t>(n) * 8);

        w.spawn(core::Task::of(sort_fn, SortRange{r.shard, r.lo, cut}));
        if (cut < r.hi)
          w.spawn(core::Task::of(sort_fn, SortRange{r.shard, cut, r.hi}));
      });

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  opt.exit_if_unknown();
  pcfg.queue.slot_bytes = 32;
  pcfg.queue.capacity = 16384;
  core::TaskPool pool(rt, registry, pcfg);

  std::uint64_t shards_sorted = 0;
  rt.run([&](pgas::PeContext& ctx) {
    // Deterministic pseudo-random keys into this PE's own shard.
    Xoshiro256 rng(rt.config().seed, static_cast<std::uint64_t>(ctx.pe()));
    auto* a = reinterpret_cast<std::uint64_t*>(ctx.local(data));
    for (std::uint32_t i = 0; i < shard_n; ++i) a[i] = rng.next();
    ctx.barrier();

    pool.run_pe(ctx, [&](core::Worker& w) {
      // Every PE seeds its own shard's sort; skewed partition trees then
      // balance through stealing.
      w.spawn(core::Task::of(
          sort_fn,
          SortRange{static_cast<std::uint32_t>(w.pe()), 0, shard_n}));
    });

    std::uint64_t sorted = 1;
    for (std::uint32_t i = 1; i < shard_n; ++i)
      if (a[i - 1] > a[i]) sorted = 0;
    const std::uint64_t total = ctx.sum_u64(sorted);
    if (ctx.pe() == 0) shards_sorted = total;
  });

  const core::PoolRunReport r = pool.report();
  std::cout << "keys sorted : "
            << shard_n * static_cast<std::uint32_t>(rt.npes()) << " across "
            << rt.npes() << " shards\n"
            << "tasks       : " << r.total.tasks_executed << "\n"
            << "steals      : " << r.total.steals_ok << " ("
            << r.total.tasks_stolen << " ranges moved)\n"
            << "runtime     : "
            << static_cast<double>(r.total.run_time_ns) / 1e6
            << " ms (virtual)\n";
  if (shards_sorted != static_cast<std::uint64_t>(rt.npes())) {
    std::cerr << "SORT FAILED on "
              << static_cast<std::uint64_t>(rt.npes()) - shards_sorted
              << " shard(s)\n";
    return 1;
  }
  std::cout << "verified: every shard is sorted\n";
  return 0;
}
