// Ablation: contended-victim behaviour.
//
// The paper's conclusion: SWS "has significantly better properties when a
// target is contended" — SDC thieves serialize on the victim's spinlock
// (and burn round trips retrying), while SWS thieves each claim with one
// fetch-add that the NIC serializes in nanoseconds.
//
// Setup: one victim releases a large allotment; N thieves all steal at
// once. We measure the mean and worst per-thief time to complete one
// steal, and the retry traffic.
#include <iostream>
#include <memory>

#include "bench_common.hpp"

using namespace sws;

namespace {

struct ContentionResult {
  Summary per_thief_us;
  double max_us = 0;
  std::uint64_t retries = 0;
  std::uint64_t comms = 0;
};

ContentionResult run_contended(core::QueueKind kind, int thieves, int reps,
                               std::uint64_t seed) {
  const int npes = thieves + 1;
  pgas::RuntimeConfig rcfg;
  rcfg.npes = npes;
  rcfg.seed = seed;
  rcfg.heap_bytes = 4 << 20;
  pgas::Runtime rt(rcfg);

  const core::QueueConfig qc{/*capacity=*/8192, /*slot_bytes=*/32};
  std::unique_ptr<core::TaskQueue> q;
  if (kind == core::QueueKind::kSws) {
    q = std::make_unique<core::SwsQueue>(rt, qc);
  } else {
    core::SdcConfig c;
    c.max_lock_attempts = 64;  // thieves must eventually get through
    q = std::make_unique<core::SdcQueue>(rt, qc, c);
  }

  ContentionResult out;
  rt.fabric().reset_stats();
  rt.run([&](pgas::PeContext& ctx) {
    for (int rep = 0; rep < reps; ++rep) {
      q->reset_pe(ctx);
      ctx.barrier();
      if (ctx.pe() == 0) {
        for (std::uint32_t i = 0; i < 4096; ++i)
          (void)q->push_local(ctx, core::Task(0, nullptr, 0));
        (void)q->try_release(ctx);  // 2048 shared: everyone can have a block
      }
      ctx.barrier();
      if (ctx.pe() != 0) {
        // One steal attempt per thief; retry only while the victim is
        // locked. A steal-half allotment has ~log2 blocks, so with many
        // thieves the late ones legitimately find it empty — they are
        // excluded from the timing but their traffic still counts.
        std::vector<core::Task> loot;
        const net::Nanos t0 = ctx.now();
        core::StealResult r;
        do {
          r = q->steal(ctx, 0, loot);
        } while (r.outcome == core::StealOutcome::kRetry);
        const net::Nanos dt = ctx.now() - t0;
        if (r.outcome == core::StealOutcome::kSuccess) {
          out.per_thief_us.add(static_cast<double>(dt) / 1e3);
          out.max_us = std::max(out.max_us, static_cast<double>(dt) / 1e3);
        }
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
  for (int pe = 1; pe < npes; ++pe) {
    out.retries += q->op_stats(pe).steals_retry;
    out.comms += rt.fabric().stats(pe).remote_ops;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto settings = bench::BenchSettings::from_options(opt);
  opt.exit_if_unknown();
  const int reps = std::max(settings.reps, 3);

  Table t("Ablation — contended victim: N thieves, one target");
  t.set_header({"thieves", "SDC mean us", "SDC max us", "SDC retries",
                "SWS mean us", "SWS max us", "SWS retries", "mean ratio"});
  for (const int thieves : {1, 2, 4, 8, 16, 32, 63}) {
    const auto sdc = run_contended(core::QueueKind::kSdc, thieves, reps,
                                   settings.seed);
    const auto sws = run_contended(core::QueueKind::kSws, thieves, reps,
                                   settings.seed);
    t.add_row({Table::num(std::int64_t{thieves}),
               Table::num(sdc.per_thief_us.mean(), 2),
               Table::num(sdc.max_us, 2), Table::num(sdc.retries),
               Table::num(sws.per_thief_us.mean(), 2),
               Table::num(sws.max_us, 2), Table::num(sws.retries),
               Table::num(sdc.per_thief_us.mean() / sws.per_thief_us.mean(),
                          2)});
    std::cerr << "  [contention] thieves=" << thieves << " done\n";
  }
  bench::emit(t, settings);
  std::cout << "paper (conclusion): SWS \"has significantly better "
               "properties when a target is contended\" — no lock convoy, "
               "claims serialize only at NIC occupancy granularity.\n";
  return 0;
}
