// Unbalanced Tree Search driver (paper §5.2.2): counts the nodes of a
// deterministic SHA-1 tree in parallel and validates against a sequential
// traversal.
//
//   ./uts_search [--npes 16] [--queue sws|sdc] [--shape geo|bin]
//                [--b0 4] [--depth 12] [--seed 19] [--verify true]
#include <iostream>

#include "common/options.hpp"
#include "sws.hpp"

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  workloads::UtsParams p;
  p.shape = opt.get("shape", std::string("geo")) == "bin"
                ? workloads::UtsParams::Shape::kBinomial
                : workloads::UtsParams::Shape::kGeometric;
  p.b0 = static_cast<std::uint32_t>(opt.get("b0", std::int64_t{4}));
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{12}));
  p.root_seed = static_cast<std::uint32_t>(opt.get("seed", std::int64_t{19}));
  p.node_compute_ns = static_cast<net::Nanos>(
      opt.get("node-ns", std::int64_t{110}));

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{16}));
  pgas::Runtime rt(rcfg);

  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  const bool verify = opt.get("verify", true);
  opt.exit_if_unknown();
  pcfg.queue.slot_bytes = 48;  // paper Table 2: 48-byte UTS tasks
  core::TaskPool pool(rt, registry, pcfg);

  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  const core::PoolRunReport r = pool.report();
  const double secs = static_cast<double>(r.total.run_time_ns) / 1e9;
  std::cout << "tree nodes     : " << r.total.tasks_executed << "\n"
            << "runtime        : " << secs * 1e3 << " ms (virtual)\n"
            << "throughput     : "
            << static_cast<double>(r.total.tasks_executed) / secs / 1e6
            << " Mnodes/s\n"
            << "steals         : " << r.total.steals_ok << " ("
            << r.total.tasks_stolen << " nodes moved)\n"
            << "steal time     : "
            << static_cast<double>(r.total.steal_time_ns) / 1e6 << " ms\n"
            << "search time    : "
            << static_cast<double>(r.total.search_time_ns) / 1e6 << " ms\n"
            << "load balance   : " << r.per_pe_executed.min() << ".."
            << r.per_pe_executed.max() << " nodes/PE (mean "
            << r.per_pe_executed.mean() << ")\n";

  if (verify) {
    const auto truth = workloads::uts_sequential_count(p);
    if (truth.nodes != r.total.tasks_executed) {
      std::cerr << "MISMATCH: sequential traversal found " << truth.nodes
                << " nodes\n";
      return 1;
    }
    std::cout << "verified against sequential traversal (max depth "
              << truth.max_depth << ", " << truth.leaves << " leaves)\n";
  }
  return 0;
}
