// Bouncing Producer-Consumer demo (paper §5.2.1): watch a producer chain
// bounce between PEs while consumers fan out behind it.
//
//   ./bpc_demo [--npes 8] [--queue sws|sdc] [--n 64] [--depth 20]
//              [--consumer-us 5000] [--producer-us 1000]
#include <iostream>

#include "common/options.hpp"
#include "common/table.hpp"
#include "sws.hpp"

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  workloads::BpcParams p;
  p.consumers_per_producer =
      static_cast<std::uint32_t>(opt.get("n", std::int64_t{64}));
  p.depth = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{20}));
  p.consumer_ns =
      static_cast<net::Nanos>(opt.get("consumer-us", std::int64_t{5000})) *
      1000;
  p.producer_ns =
      static_cast<net::Nanos>(opt.get("producer-us", std::int64_t{1000})) *
      1000;

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  pgas::Runtime rt(rcfg);

  core::TaskRegistry registry;
  workloads::BpcBenchmark bpc(registry, p);

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  opt.exit_if_unknown();
  pcfg.queue.slot_bytes = 32;  // paper Table 2: 32-byte BPC tasks
  core::TaskPool pool(rt, registry, pcfg);

  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });

  const core::PoolRunReport r = pool.report();
  if (r.total.tasks_executed != p.expected_tasks()) {
    std::cerr << "MISMATCH: executed " << r.total.tasks_executed
              << ", expected " << p.expected_tasks() << "\n";
    return 1;
  }

  const double secs = static_cast<double>(r.total.run_time_ns) / 1e9;
  const double ideal =
      static_cast<double>(p.total_compute_ns()) / rcfg.npes / 1e9;
  std::cout << "tasks executed : " << r.total.tasks_executed << " (verified)\n"
            << "runtime        : " << secs * 1e3 << " ms (virtual), ideal "
            << ideal * 1e3 << " ms\n"
            << "efficiency     : " << 100.0 * ideal / secs << " %\n"
            << "steals         : " << r.total.steals_ok << "\n\n";

  Table t("per-PE work distribution");
  t.set_header({"pe", "tasks", "stolen-in", "steal ms", "search ms"});
  for (int pe = 0; pe < rt.npes(); ++pe) {
    const core::WorkerStats& w = pool.worker_stats(pe);
    t.add_row({Table::num(std::uint64_t(pe)), Table::num(w.tasks_executed),
               Table::num(w.tasks_stolen),
               Table::num(static_cast<double>(w.steal_time_ns) / 1e6, 3),
               Table::num(static_cast<double>(w.search_time_ns) / 1e6, 3)});
  }
  t.print(std::cout);
  return 0;
}
