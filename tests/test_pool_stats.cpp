// WorkerStats/PoolRunReport aggregation math, the pool's one record of
// every steal attempt, plus a pool sweep over the task slot sizes the
// paper benchmarks (24 B … 192 B).
#include <gtest/gtest.h>

#include <tuple>

#include "core/pool_stats.hpp"
#include "core/scheduler.hpp"
#include "workloads/uts.hpp"

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

// ------------------------------------------------- one steal record

/// The pool is the one place that records a steal attempt: its outcome
/// counters sum to the attempts, its steal and search times are slices of
/// the phase clock, and the queue.steals_* metrics publish those same
/// per-PE counts. Both protocols, crash-free and with a PE crashing
/// mid-run (whose record is closed on the PeKilled unwinding path).
class StealRecord
    : public ::testing::TestWithParam<std::tuple<QueueKind, bool>> {};

TEST_P(StealRecord, TimesAreClockSlicesAndOutcomesSumToAttempts) {
  const auto [kind, crash] = GetParam();
  pgas::RuntimeConfig rc;
  rc.npes = 8;
  rc.heap_bytes = 4 << 20;
  if (crash) rc.net.faults.crashes.push_back({3, 200'000});
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  workloads::UtsParams p;
  p.b0 = 6;
  p.gen_mx = 8;
  p.root_seed = 3;
  p.node_compute_ns = 500;
  workloads::UtsBenchmark uts(reg, p);
  PoolConfig pc;
  pc.kind = kind;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) { uts.seed(w); });
  });
  ASSERT_EQ(rt.fabric().num_dead(), crash ? 1 : 0);

  obs::MetricsRegistry m(rt.npes());
  pool.publish_metrics(m);
  const obs::MetricsSnapshot snap = m.snapshot();
  const auto published = [&](const std::string& name, int pe) {
    const obs::MetricsSnapshot::Entry* e = snap.find("queue." + name);
    EXPECT_NE(e, nullptr) << name;
    return e != nullptr ? e->per_pe[static_cast<std::size_t>(pe)] : ~0ull;
  };
  const PoolRunReport r = pool.report();
  ASSERT_GT(r.total.steals_ok, 0u);
  ASSERT_GT(r.total.steal_attempts, r.total.steals_ok);
  for (int pe = 0; pe < rt.npes(); ++pe) {
    SCOPED_TRACE("pe " + std::to_string(pe));
    const WorkerStats& s = pool.worker_stats(pe);
    const auto phase = [&](PoolPhase ph) {
      return s.phase_ns[static_cast<std::size_t>(ph)];
    };
    EXPECT_EQ(s.steal_time_ns, phase(PoolPhase::kStealing));
    EXPECT_EQ(s.search_time_ns,
              phase(PoolPhase::kProbing) + phase(PoolPhase::kParked));
    EXPECT_EQ(s.steal_attempts,
              s.steals_ok + s.steals_empty + s.steals_retry + s.steals_dead);
    // One block per SWS claim at bulk_claim_max = 1; SDC reports none.
    EXPECT_EQ(s.blocks_claimed, kind == QueueKind::kSws ? s.steals_ok : 0u);
    EXPECT_EQ(s.bulk_claims, 0u);
    EXPECT_EQ(published("steals_empty", pe), s.steals_empty);
    EXPECT_EQ(published("steals_retry", pe), s.steals_retry);
    EXPECT_EQ(published("bulk_claims", pe), s.bulk_claims);
    EXPECT_EQ(published("blocks_claimed", pe), s.blocks_claimed);
    if (crash) {
      EXPECT_EQ(published("steals_dead", pe), s.steals_dead);
    } else {
      EXPECT_EQ(s.steals_dead, 0u);
    }
  }
  if (!crash) {
    EXPECT_EQ(snap.find("queue.steals_dead"), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, StealRecord,
    ::testing::Combine(::testing::Values(QueueKind::kSws, QueueKind::kSdc),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == QueueKind::kSws ? "Sws"
                                                                    : "Sdc") +
             (std::get<1>(info.param) ? "Crash" : "CrashFree");
    });

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
