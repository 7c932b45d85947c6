// Table 2: benchmark workload characteristics — total tasks, average task
// time, task size — for the scaled configurations this reproduction uses,
// next to the paper's originals.
#include <iostream>

#include "bench_common.hpp"

using namespace sws;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const auto settings = bench::BenchSettings::from_options(opt);
  opt.exit_if_unknown();

  // The scaled defaults used by fig7/fig8 (see those binaries).
  workloads::BpcParams bpc;
  bpc.consumers_per_producer = 256;
  bpc.depth = 40;
  workloads::UtsParams uts;
  uts.b0 = 4;
  uts.gen_mx = 15;
  uts.node_compute_ns = 400;
  const auto tree = workloads::uts_sequential_count(uts);

  const double bpc_avg_ms =
      static_cast<double>(bpc.total_compute_ns()) / 1e6 /
      static_cast<double>(bpc.expected_tasks());

  Table t("Table 2 — workload characteristics (this reproduction vs paper)");
  t.set_header({"benchmark", "total tasks", "avg task time", "task size"});
  t.add_row({"BPC (ours)", Table::num(bpc.expected_tasks()),
             Table::num(bpc_avg_ms, 3) + " ms", "32 bytes"});
  t.add_row({"BPC (paper)", "2,457,901", "5 ms", "32 bytes"});
  t.add_row({"UTS (ours)", Table::num(tree.nodes),
             Table::num(static_cast<double>(uts.node_compute_ns) / 1e6, 5) +
                 " ms",
             "48 bytes"});
  t.add_row({"UTS (paper)", "270,751,679,750", "0.00011 ms", "48 bytes"});
  bench::emit(t, settings);

  std::cout << "UTS tree (geometric, b0=" << uts.b0
            << ", gen_mx=" << uts.gen_mx << "): " << tree.nodes
            << " nodes, max depth " << tree.max_depth << ", " << tree.leaves
            << " leaves\n"
            << "Substitution note: workload sizes are scaled to the "
               "simulated platform; shapes (task mix, irregularity) are "
               "preserved — see DESIGN.md §2.\n";
  return 0;
}
