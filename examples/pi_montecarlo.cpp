// Monte-Carlo π: explicit work scatter with spawn_on + a PGAS reduction.
//
// The root spawns one sampling task per PE directly into each PE's inbox
// (Worker::spawn_on — the paper's "spawn tasks onto remote queues"),
// every PE accumulates its hit count in symmetric memory, and the result
// reduces with sum_u64. No stealing required — this example shows the
// pool being used as a plain SPMD task launcher.
//
//   ./pi_montecarlo [--npes 8] [--samples-per-pe 2000000] [--queue sws|sdc]
#include <cstring>
#include <iostream>

#include "common/options.hpp"
#include "sws.hpp"

namespace {

struct ChunkArgs {
  std::uint64_t samples;
  std::uint64_t seed;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  const auto samples_per_pe = static_cast<std::uint64_t>(
      opt.get("samples-per-pe", std::int64_t{2'000'000}));

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  pgas::Runtime rt(rcfg);

  // Per-PE hit counter in symmetric memory.
  const pgas::SymPtr hits = rt.heap().alloc(8);

  core::TaskRegistry registry;
  const core::TaskFnId chunk_fn = registry.register_fn(
      "pi.chunk", [&](core::Worker& w, std::span<const std::byte> bytes) {
        ChunkArgs a;
        std::memcpy(&a, bytes.data(), sizeof(a));
        Xoshiro256 rng(a.seed, static_cast<std::uint64_t>(w.pe()));
        std::uint64_t inside = 0;
        for (std::uint64_t i = 0; i < a.samples; ++i) {
          const double x = rng.uniform(), y = rng.uniform();
          if (x * x + y * y < 1.0) ++inside;
        }
        // ~4 ns per sample of virtual compute keeps the DES honest.
        w.compute(a.samples * 4);
        w.ctx().set(w.pe(), hits, inside);
      });

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  opt.exit_if_unknown();
  pcfg.queue.slot_bytes = 32;
  core::TaskPool pool(rt, registry, pcfg);

  std::uint64_t total_inside = 0;
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      if (w.pe() != 0) return;
      for (int pe = 0; pe < w.npes(); ++pe)
        w.spawn_on(pe, core::Task::of(
                           chunk_fn,
                           ChunkArgs{samples_per_pe,
                                     rt.config().seed + 31ull * pe}));
    });
    // Reduce after the pool quiesces.
    const std::uint64_t mine = ctx.local_load(hits);
    const std::uint64_t sum = ctx.sum_u64(mine);
    if (ctx.pe() == 0) total_inside = sum;
  });

  const std::uint64_t total =
      samples_per_pe * static_cast<std::uint64_t>(rt.npes());
  const double pi = 4.0 * static_cast<double>(total_inside) /
                    static_cast<double>(total);
  std::cout << "samples : " << total << " across " << rt.npes() << " PEs\n"
            << "pi      : " << pi << " (error "
            << pi - 3.14159265358979 << ")\n"
            << "runtime : "
            << static_cast<double>(rt.last_run_duration()) / 1e6
            << " ms (virtual)\n";
  return (pi > 3.10 && pi < 3.18) ? 0 : 1;
}
