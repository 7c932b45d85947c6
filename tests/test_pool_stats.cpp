// WorkerStats/PoolRunReport aggregation math, plus a pool sweep over the
// task slot sizes the paper benchmarks (24 B … 192 B).
#include <gtest/gtest.h>

#include "core/pool_stats.hpp"
#include "core/scheduler.hpp"

namespace sws::core {
namespace {

TEST(WorkerStats, MergeSumsCountsAndMaxesRuntime) {
  WorkerStats a, b;
  a.tasks_executed = 10;
  a.steal_time_ns = 100;
  a.run_time_ns = 500;
  b.tasks_executed = 5;
  b.steal_time_ns = 50;
  b.run_time_ns = 900;
  a.merge(b);
  EXPECT_EQ(a.tasks_executed, 15u);
  EXPECT_EQ(a.steal_time_ns, 150u);
  EXPECT_EQ(a.run_time_ns, 900u) << "run time is the max, not the sum";
}

TEST(PoolRunReport, AggregatesPerPeDistributions) {
  PoolRunReport r;
  for (int pe = 0; pe < 4; ++pe) {
    WorkerStats w;
    w.tasks_executed = static_cast<std::uint64_t>(10 * (pe + 1));
    w.steal_time_ns = static_cast<std::uint64_t>(1'000'000 * pe);
    w.run_time_ns = 42;
    r.add(w);
  }
  EXPECT_EQ(r.npes, 4);
  EXPECT_EQ(r.total.tasks_executed, 100u);
  EXPECT_EQ(r.total.steal_time_ns, 6'000'000u);
  EXPECT_EQ(r.total.run_time_ns, 42u);
  EXPECT_DOUBLE_EQ(r.per_pe_executed.mean(), 25.0);
  EXPECT_DOUBLE_EQ(r.per_pe_executed.min(), 10.0);
  EXPECT_DOUBLE_EQ(r.per_pe_executed.max(), 40.0);
}

// ------------------------------------------------- slot-size pool sweep

class SlotSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SlotSizeSweep, PoolRunsAtEveryPaperTaskSize) {
  const std::uint32_t slot = GetParam();
  pgas::RuntimeConfig rc;
  rc.npes = 4;
  rc.heap_bytes = 8 << 20;
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  TaskFnId fn = 0;
  // Payload fills the slot to its task-size capacity.
  const std::uint32_t payload = slot - kTaskHeaderBytes;
  fn = reg.register_fn("fan", [&, payload](Worker& w,
                                           std::span<const std::byte> b) {
    ASSERT_EQ(b.size(), payload);
    std::uint32_t depth;
    std::memcpy(&depth, b.data(), 4);
    w.compute(2000);
    if (depth == 0) return;
    std::vector<std::byte> buf(payload, std::byte{0});
    const std::uint32_t child = depth - 1;
    std::memcpy(buf.data(), &child, 4);
    for (int i = 0; i < 3; ++i)
      w.spawn(Task(fn, buf.data(), payload));
  });
  PoolConfig pc;
  pc.queue.slot_bytes = slot;
  pc.queue.capacity = 4096;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() != 0) return;
      std::vector<std::byte> buf(payload, std::byte{0});
      const std::uint32_t depth = 4;
      std::memcpy(buf.data(), &depth, 4);
      w.spawn(Task(fn, buf.data(), payload));
    });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, 121u);  // 3^0+...+3^4
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, SlotSizeSweep,
                         ::testing::Values(24u, 32u, 48u, 64u, 192u, 256u),
                         [](const auto& info) {
                           return "bytes" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sws::core
