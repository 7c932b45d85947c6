// Figure 2 / Figures 3–4 / Table 1 (textual regeneration): the per-steal
// communication breakdown of both protocols, measured from live runs
// against the fabric's op counters, plus the stealval layouts and the
// shared-task state machine.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"

using namespace sws;

namespace {

net::FabricStats delta(const net::FabricStats& a, const net::FabricStats& b) {
  net::FabricStats d = a;
  for (std::size_t i = 0; i < net::kNumOpKinds; ++i) d.ops[i] -= b.ops[i];
  d.remote_ops -= b.remote_ops;
  d.local_ops -= b.local_ops;
  d.blocking_ns -= b.blocking_ns;
  return d;
}

/// Measure one successful steal and one failed (empty-victim) probe.
template <typename Queue>
void measure(const char* name, Queue& q, pgas::Runtime& rt, Table& t) {
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    if (ctx.pe() == 0) {
      for (std::uint32_t i = 0; i < 200; ++i)
        (void)q.push_local(ctx, core::Task::of(0, i));
      (void)q.try_release(ctx);
    }
    ctx.barrier();
    if (ctx.pe() == 1) {
      std::vector<core::Task> loot;
      const net::FabricStats s0 = ctx.fabric().stats(1);
      (void)q.steal(ctx, 0, loot);
      const net::FabricStats ok = delta(ctx.fabric().stats(1), s0);
      const net::FabricStats s1 = ctx.fabric().stats(1);
      (void)q.steal(ctx, 2, loot);  // PE 2 never released: a failed search
      const net::FabricStats empty = delta(ctx.fabric().stats(1), s1);

      t.add_row({name, "successful steal", Table::num(ok.remote_ops),
                 Table::num(ok.blocking_ops()),
                 Table::num(ok.blocking_ns / 1000) + " us"});
      t.add_row({name, "failed search", Table::num(empty.remote_ops),
                 Table::num(empty.blocking_ops()),
                 Table::num(empty.blocking_ns / 1000) + " us"});
    }
    ctx.barrier();
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const auto settings = bench::BenchSettings::from_options(opt);
  opt.exit_if_unknown();

  pgas::RuntimeConfig rcfg;
  rcfg.npes = 3;
  rcfg.heap_bytes = 1 << 20;
  pgas::Runtime rt(rcfg);

  Table t("Fig 2 — steal communication counts (measured)");
  t.set_header({"system", "operation", "comms", "blocking", "blocked time"});
  const core::QueueConfig qc{/*capacity=*/1024, /*slot_bytes=*/32};
  core::SdcQueue sdc(rt, qc);
  core::SwsConfig swsc;
  swsc.damping = false;  // keep every probe a true AMO for counting
  core::SwsQueue sws(rt, qc, swsc);
  measure("SDC", sdc, rt, t);
  measure("SWS", sws, rt, t);
  bench::emit(t, settings);

  std::cout << "SDC steal sequence : lock CAS -> metadata get -> tail/seq put"
               " -> unlock -> task get -> nbi completion  (paper: 6 comms, 5"
               " blocking)\n"
            << "SWS steal sequence : stealval fetch-add -> task get -> nbi"
               " completion  (paper: 3 comms, 2 blocking)\n\n";

  // Figures 3/4: the stealval layout, rendered from the field definitions.
  Table layout("Figs 3-4 — stealval bit layout (epoch variant)");
  layout.set_header({"field", "bits", "shift", "max", "writer"});
  layout.add_row({"asteals", Table::num(std::uint64_t{core::AStealsField::kWidth}),
                  Table::num(std::uint64_t{core::AStealsField::kShift}),
                  Table::num(core::AStealsField::kMax), "thieves (fetch-add)"});
  layout.add_row({"epoch", Table::num(std::uint64_t{core::EpochField::kWidth}),
                  Table::num(std::uint64_t{core::EpochField::kShift}),
                  Table::num(core::EpochField::kMax), "owner"});
  layout.add_row({"itasks", Table::num(std::uint64_t{core::ITasksField::kWidth}),
                  Table::num(std::uint64_t{core::ITasksField::kShift}),
                  Table::num(core::ITasksField::kMax), "owner"});
  layout.add_row({"tail", Table::num(std::uint64_t{core::TailField::kWidth}),
                  Table::num(std::uint64_t{core::TailField::kShift}),
                  Table::num(core::TailField::kMax), "owner"});
  bench::emit(layout, settings);

  // The paper's worked example.
  const core::StealVal example{2, 0, 150, 500};
  const core::StealBlock blk = core::steal_block(150, 2);
  std::cout << "worked example (paper fig 3): asteals=2 itasks=150 tail=500"
            << "  => encoded 0x" << std::hex << example.encode() << std::dec
            << "\n  next steal: " << blk.size << " tasks at index "
            << 500 + blk.offset << " (paper: 19 tasks at 612)\n\n";

  Table states("Table 1 — shared task states");
  states.set_header({"state", "meaning"});
  states.add_row({"Available (A)", "unclaimed, inside the live allotment"});
  states.add_row({"Claimed (C)", "block claimed via fetch-add; copy running"});
  states.add_row({"Finished (F)", "completion notification received"});
  states.add_row({"Invalid (I)", "outside any live or in-flight region"});
  bench::emit(states, settings);
  return 0;
}
