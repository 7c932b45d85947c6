// Smaller cross-cutting cases: fabric run-boundary semantics, scheduler
// config knobs, enum name tables, and odds and ends.
#include <gtest/gtest.h>

#include <set>

#include "sws.hpp"

namespace sws {
namespace {

TEST(FabricNewRun, DrainsPendingEffectsInsteadOfDroppingThem) {
  net::VirtualTimeModel tm(2);
  net::Fabric fab(tm, net::NetworkParams{}, 2);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 2; ++pe) {
    arenas.emplace_back(64, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), 64);
  }
  tm.run_pes(2, [&](int pe) {
    if (pe == 0) fab.nbi_amo_add(0, 1, 0, 42);  // never quiesced
  });
  ASSERT_EQ(fab.pending(0), 1) << "effect still parked at run end";
  fab.new_run();
  EXPECT_EQ(fab.pending(0), 0);
  std::uint64_t v;
  std::memcpy(&v, arenas[1].data(), 8);
  EXPECT_EQ(v, 42u) << "the effect must be applied, not lost";
}

TEST(OpKindNames, AllDistinctAndNamed) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < net::kNumOpKinds; ++i) {
    const std::string n = net::op_kind_name(static_cast<net::OpKind>(i));
    EXPECT_NE(n, "?");
    EXPECT_TRUE(names.insert(n).second) << n;
  }
}

TEST(TraceKindNames, AllDistinctAndNamed) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(core::TraceKind::kTerminated); ++i) {
    const std::string n =
        core::trace_kind_name(static_cast<core::TraceKind>(i));
    EXPECT_NE(n, "?");
    EXPECT_TRUE(names.insert(n).second) << n;
  }
}

TEST(SummaryReset, ClearsEverything) {
  Summary s;
  s.add(5);
  s.add(10);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

// -------------------------------------------------- scheduler config knobs

struct Fan {
  core::TaskFnId fn = 0;
  explicit Fan(core::TaskRegistry& reg) {
    fn = reg.register_fn("fan", [this](core::Worker& w,
                                       std::span<const std::byte> b) {
      std::uint32_t d;
      std::memcpy(&d, b.data(), 4);
      w.compute(3000);
      if (d > 0)
        for (int i = 0; i < 4; ++i)
          w.spawn(core::Task::of(fn, d - 1));
    });
  }
};

core::PoolRunReport run_fan(const core::PoolConfig& pc, std::uint32_t depth) {
  pgas::RuntimeConfig rc;
  rc.npes = 4;
  rc.heap_bytes = 2 << 20;
  pgas::Runtime rt(rc);
  core::TaskRegistry reg;
  Fan fan(reg);
  core::TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      if (w.pe() == 0) w.spawn(core::Task::of(fan.fn, depth));
    });
  });
  return pool.report();
}

TEST(SchedulerKnobs, ZeroBackoffStillTerminates) {
  core::PoolConfig pc;
  pc.queue.slot_bytes = 32;
  pc.steal.backoff_min_ns = 0;
  EXPECT_EQ(run_fan(pc, 4).total.tasks_executed, 341u);
}

TEST(RuntimeDuration, TracksLongestPe) {
  pgas::RuntimeConfig rc;
  rc.npes = 3;
  rc.heap_bytes = 1 << 20;
  pgas::Runtime rt(rc);
  rt.run([&](pgas::PeContext& ctx) {
    if (ctx.pe() == 2) ctx.compute(123'456);
  });
  EXPECT_GE(rt.last_run_duration(), 123'456u);
}

TEST(PeContextLocal, SetThenLocalLoadRoundTrips) {
  pgas::RuntimeConfig rc;
  rc.npes = 2;
  rc.heap_bytes = 1 << 20;
  pgas::Runtime rt(rc);
  const pgas::SymPtr p = rt.heap().alloc(8);
  rt.run([&](pgas::PeContext& ctx) {
    ctx.set(ctx.pe(), p, 1000 + static_cast<std::uint64_t>(ctx.pe()));
    EXPECT_EQ(ctx.local_load(p), 1000u + static_cast<std::uint64_t>(ctx.pe()));
  });
}

TEST(SymPtrArithmetic, PlusOffsetsBytes) {
  const pgas::SymPtr p{100};
  EXPECT_EQ(p.plus(28).off, 128u);
  EXPECT_FALSE(p.is_null());
  EXPECT_TRUE(pgas::SymPtr{}.is_null());
  EXPECT_TRUE((pgas::SymPtr{100} == pgas::SymPtr{100}));
}

}  // namespace
}  // namespace sws
