// Quickstart: spawn a recursive fan-out of tasks and let the SWS pool
// balance them across simulated PEs.
//
//   ./quickstart [--npes 8] [--queue sws|sdc] [--fanout 4] [--depth 6]
//                [--task-us 50] [--seed 42]
//
// Each task charges `task-us` of compute and spawns `fanout` children
// until `depth` reaches zero; the pool prints where the work actually ran.
#include <cstring>
#include <iostream>

#include "common/options.hpp"
#include "sws.hpp"

namespace {

struct NodeArgs {
  std::uint32_t depth;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  rcfg.seed = static_cast<std::uint64_t>(opt.get("seed", std::int64_t{42}));

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  pcfg.queue.capacity = 16384;
  pcfg.queue.slot_bytes = 32;

  const auto fanout = static_cast<std::uint32_t>(opt.get("fanout", std::int64_t{4}));
  const auto depth = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{6}));
  const auto task_ns =
      static_cast<net::Nanos>(opt.get("task-us", std::int64_t{50})) * 1000;
  opt.exit_if_unknown();

  pgas::Runtime rt(rcfg);
  core::TaskRegistry registry;

  core::TaskFnId node_fn = 0;
  node_fn = registry.register_fn(
      "node", [&](core::Worker& w, std::span<const std::byte> bytes) {
        NodeArgs a;
        std::memcpy(&a, bytes.data(), sizeof(a));
        w.compute(task_ns);
        if (a.depth == 0) return;
        for (std::uint32_t i = 0; i < fanout; ++i)
          w.spawn(core::Task::of(node_fn, NodeArgs{a.depth - 1}));
      });

  core::TaskPool pool(rt, registry, pcfg);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      if (w.pe() == 0) w.spawn(core::Task::of(node_fn, NodeArgs{depth}));
    });
  });

  const core::PoolRunReport r = pool.report();
  std::uint64_t expected = 0, layer = 1;
  for (std::uint32_t d = 0; d <= depth; ++d) expected += layer, layer *= fanout;

  std::cout << "queue      : "
            << (pcfg.kind == core::QueueKind::kSws ? "SWS" : "SDC") << "\n"
            << "npes       : " << rt.npes() << "\n"
            << "tasks      : " << r.total.tasks_executed << " (expected "
            << expected << ")\n"
            << "steals     : " << r.total.steals_ok << " ("
            << r.total.tasks_stolen << " tasks moved)\n"
            << "runtime    : " << static_cast<double>(r.total.run_time_ns) / 1e6
            << " ms (virtual)\n"
            << "steal time : "
            << static_cast<double>(r.total.steal_time_ns) / 1e6 << " ms\n"
            << "search time: "
            << static_cast<double>(r.total.search_time_ns) / 1e6 << " ms\n"
            << "balance    : mean " << r.per_pe_executed.mean() << " / max "
            << r.per_pe_executed.max() << " tasks per PE\n";

  return r.total.tasks_executed == expected ? 0 : 1;
}
