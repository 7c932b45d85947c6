// Figure 6: steal operation time vs. steal volume, for 24-byte and
// 192-byte tasks, SDC vs SWS.
//
// Method (matches the paper's microbenchmark): the victim releases an
// allotment of 2V tasks; a single thief's first steal-half claims exactly
// V of them. The time from initiating the steal to having the tasks local
// is one sample; each (system, size, volume) point averages `reps`
// samples. Expectation: at small volumes SWS ≈ half of SDC (latency
// dominated); at large volumes the task copy dominates and the curves
// converge.
#include <iostream>

#include "bench_common.hpp"

using namespace sws;

namespace {

double measure_steal_us(core::QueueKind kind, std::uint32_t volume,
                        std::uint32_t slot_bytes, int reps,
                        std::uint64_t seed) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 2;
  rcfg.seed = seed;
  rcfg.heap_bytes = std::size_t{16} << 20;
  pgas::Runtime rt(rcfg);

  const core::QueueConfig qc{std::max<std::uint32_t>(4 * volume, 64),
                             slot_bytes};
  std::unique_ptr<core::TaskQueue> q;
  if (kind == core::QueueKind::kSws) {
    q = std::make_unique<core::SwsQueue>(rt, qc);
  } else {
    q = std::make_unique<core::SdcQueue>(rt, qc);
  }

  Summary per_steal_us;
  rt.run([&](pgas::PeContext& ctx) {
    for (int rep = 0; rep < reps; ++rep) {
      q->reset_pe(ctx);
      ctx.barrier();
      if (ctx.pe() == 0) {
        for (std::uint32_t i = 0; i < 4 * volume; ++i)
          (void)q->push_local(ctx, core::Task(0, nullptr, 0));
        (void)q->try_release(ctx);  // exposes 2V => first steal takes V
      }
      ctx.barrier();
      if (ctx.pe() == 1) {
        std::vector<core::Task> loot;
        const net::Nanos t0 = ctx.now();
        const core::StealResult r = q->steal(ctx, 0, loot);
        const net::Nanos dt = ctx.now() - t0;
        if (r.outcome == core::StealOutcome::kSuccess && r.ntasks == volume)
          per_steal_us.add(static_cast<double>(dt) / 1e3);
        ctx.quiet();
      }
      ctx.barrier();
      if (ctx.pe() == 0) {
        core::Task t;
        while (q->pop_local(ctx, t)) {}
        q->progress(ctx);
      }
      ctx.barrier();
    }
  });
  return per_steal_us.mean();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  opt.exit_if_unknown();
  const int reps = std::max(settings.reps, 3);

  const std::uint32_t volumes[] = {1, 2, 4, 8, 16, 32, 64, 128,
                                   256, 512, 1024};
  const std::uint32_t sizes[] = {24, 192};

  Table t("Fig 6 — steal operation time vs steal volume (us per steal)");
  t.set_header({"volume", "SDC 24B", "SWS 24B", "ratio 24B", "SDC 192B",
                "SWS 192B", "ratio 192B"});
  for (const std::uint32_t v : volumes) {
    double r[2][2];
    for (int s = 0; s < 2; ++s) {
      r[s][0] = measure_steal_us(core::QueueKind::kSdc, v, sizes[s], reps,
                                 settings.seed);
      r[s][1] = measure_steal_us(core::QueueKind::kSws, v, sizes[s], reps,
                                 settings.seed);
    }
    t.add_row({Table::num(std::uint64_t{v}), Table::num(r[0][0], 2),
               Table::num(r[0][1], 2), Table::num(r[0][0] / r[0][1], 2),
               Table::num(r[1][0], 2), Table::num(r[1][1], 2),
               Table::num(r[1][0] / r[1][1], 2)});
    std::cerr << "  [fig6] volume=" << v << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "expectation: ratio ≈ 2 at small volumes (latency-bound), "
               "converging toward 1 as the task copy dominates.\n";
  return 0;
}
