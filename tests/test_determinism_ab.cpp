// Determinism A/B harness for the sequencer: the fiber sequencer (ready
// tree + run-to-horizon batching + on-demand nbi delivery + pooled pending
// effects) must produce byte-identical executions run to run, with and
// without observers, and land on the pinned golden fingerprints below. A
// fig2-style UTS workload with nbi-heavy stealing exercises every hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "sws.hpp"

namespace sws {
namespace {

struct PeSnapshot {
  net::FabricStats fabric;
  net::Nanos clock = 0;

  bool operator==(const PeSnapshot& o) const {
    return fabric.ops == o.fabric.ops && fabric.remote_ops == o.fabric.remote_ops &&
           fabric.local_ops == o.fabric.local_ops &&
           fabric.bytes_put == o.fabric.bytes_put &&
           fabric.bytes_got == o.fabric.bytes_got &&
           fabric.blocking_ns == o.fabric.blocking_ns &&
           fabric.occupancy_wait_ns == o.fabric.occupancy_wait_ns &&
           clock == o.clock;
  }
};

struct RunTrace {
  std::vector<PeSnapshot> per_pe;
  std::uint64_t tasks = 0;
  std::uint64_t steals_ok = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t bulk_claims = 0;  ///< multi-block claims (SWS bulk mode)
  net::Nanos duration = 0;
  std::string trace_json;       ///< only when tracing was enabled
  std::string timeseries_json;  ///< only when windowed sampling was enabled
};

void expect_identical(const RunTrace& a, const RunTrace& b,
                      const char* what) {
  EXPECT_EQ(a.tasks, b.tasks) << what;
  EXPECT_EQ(a.steals_ok, b.steals_ok) << what;
  EXPECT_EQ(a.steal_attempts, b.steal_attempts) << what;
  EXPECT_EQ(a.duration, b.duration) << what;
  ASSERT_EQ(a.per_pe.size(), b.per_pe.size()) << what;
  for (std::size_t pe = 0; pe < a.per_pe.size(); ++pe)
    EXPECT_TRUE(a.per_pe[pe] == b.per_pe[pe])
        << what << ": PE " << pe << " diverged (ops/bytes/blocking_ns/clock)";
}

RunTrace run_uts(core::QueueKind kind, int npes, bool trace = false,
                 net::NetworkParams net = {},
                 std::uint32_t bulk = 1, net::Nanos sample_ns = 0) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = 4 << 20;
  rc.seed = 42;
  rc.net = net;
  pgas::Runtime rt(rc);

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 10;
  p.node_compute_ns = 150;

  core::TaskRegistry reg;
  workloads::UtsBenchmark uts(reg, p);
  core::PoolConfig pc;
  pc.kind = kind;
  pc.queue.capacity = 8192;
  pc.queue.slot_bytes = 64;
  pc.sws.bulk_claim_max = bulk;
  if (trace) {
    pc.trace.enable = true;
    pc.trace.events = std::size_t{1} << 18;
  }
  if (sample_ns > 0) pc.trace.sample_interval_ns = sample_ns;
  core::TaskPool pool(rt, reg, pc);
  rt.fabric().reset_stats();
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  RunTrace t;
  for (int pe = 0; pe < npes; ++pe)
    t.per_pe.push_back(PeSnapshot{rt.fabric().stats(pe), rt.time().now(pe)});
  t.tasks = pool.report().total.tasks_executed;
  t.steals_ok = pool.report().total.steals_ok;
  t.steal_attempts = pool.report().total.steal_attempts;
  for (int pe = 0; pe < npes; ++pe)
    t.bulk_claims += pool.worker_stats(pe).bulk_claims;
  t.duration = rt.last_run_duration();
  if (trace) {
    std::ostringstream os;
    pool.dump_trace_json(os);
    t.trace_json = os.str();
  }
  if (sample_ns > 0) {
    std::ostringstream os;
    pool.dump_timeseries_json(os);
    t.timeseries_json = os.str();
  }
  return t;
}

class DeterminismAb : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(DeterminismAb, OptimizedRunsAreRepeatable) {
  const RunTrace a = run_uts(GetParam(), 8);
  const RunTrace b = run_uts(GetParam(), 8);
  ASSERT_GT(a.steals_ok, 10u) << "workload too small to exercise stealing";
  expect_identical(a, b, "serial run-to-run");
}

TEST(DeterminismBulk, BulkClaimRunsAreRepeatable) {
  // SWS bulk claims (one fetch-add claiming several steal-half blocks) add
  // thief-side adaptive state and owner-side pressure tracking; none of it
  // may introduce nondeterminism. Two identical bulk runs must match on
  // every per-PE fabric counter and clock.
  const RunTrace a =
      run_uts(core::QueueKind::kSws, 8, /*trace=*/false, {}, /*bulk=*/4);
  const RunTrace b =
      run_uts(core::QueueKind::kSws, 8, /*trace=*/false, {}, /*bulk=*/4);
  EXPECT_GT(a.bulk_claims, 0u)
      << "workload never exercised a multi-block claim";
  EXPECT_EQ(a.bulk_claims, b.bulk_claims);
  expect_identical(a, b, "bulk=4 run-to-run");
}

TEST(DeterminismBulk, BulkClaimOffNeverBulks) {
  // The default (bulk_claim_max = 1) is the legacy protocol; the golden
  // fingerprints above pin its schedule bit-for-bit. Belt and braces: it
  // must also never record a multi-block claim.
  const RunTrace t = run_uts(core::QueueKind::kSws, 8);
  EXPECT_EQ(t.bulk_claims, 0u);
}

TEST_P(DeterminismAb, TracingIsObservationOnly) {
  // Span tracing + the fabric-op observer read clocks but never advance
  // them: a traced run must be byte-identical to an untraced one.
  const RunTrace off = run_uts(GetParam(), 8);
  const RunTrace on = run_uts(GetParam(), 8, /*trace=*/true);
  EXPECT_FALSE(on.trace_json.empty());
  expect_identical(off, on, "trace-off vs trace-on");
}

TEST_P(DeterminismAb, TracedRunsDumpByteIdenticalJson) {
  const RunTrace a = run_uts(GetParam(), 8, /*trace=*/true);
  const RunTrace b = run_uts(GetParam(), 8, /*trace=*/true);
  expect_identical(a, b, "traced run-to-run");
  // The dump includes every event in merged (time, pe, seq) order, so
  // any nondeterminism in spans/ops/ordering shows up as a byte diff.
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST_P(DeterminismAb, WindowedSamplingIsObservationOnly) {
  // The time-series sampler drains windows at virtual-time boundaries but
  // reads counters and phase clocks without touching them: a sampled run
  // must be byte-identical to an unsampled one on every observable.
  const RunTrace off = run_uts(GetParam(), 8);
  const RunTrace on = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                              /*sample_ns=*/10'000);
  EXPECT_FALSE(on.timeseries_json.empty());
  expect_identical(off, on, "sampling-off vs sampling-on");
}

TEST_P(DeterminismAb, SampledRunsDumpByteIdenticalJson) {
  const RunTrace a = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*sample_ns=*/10'000);
  const RunTrace b = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*sample_ns=*/10'000);
  expect_identical(a, b, "sampled run-to-run");
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
}

TEST_P(DeterminismAb, SamplingAndTracingComposeObservationOnly) {
  // Both observers on at once (the bench_common --trace-out --timeseries-out
  // path) must still land on the unobserved schedule.
  const RunTrace off = run_uts(GetParam(), 8);
  const RunTrace on = run_uts(GetParam(), 8, /*trace=*/true, {}, /*bulk=*/1,
                              /*sample_ns=*/10'000);
  EXPECT_FALSE(on.trace_json.empty());
  EXPECT_FALSE(on.timeseries_json.empty());
  expect_identical(off, on, "unobserved vs trace+sampling");
}

// Cross-version pins: fingerprints captured from the pre-topology build
// (commit 536af5a lineage). The topology redesign promised that flat and
// legacy two-level runs stay byte-identical — any drift in these numbers
// means the schedule changed, not just an accounting detail.
struct GoldenRun {
  const char* what;
  core::QueueKind kind;
  int pes_per_node;  ///< 0 = flat
  net::Nanos duration;
  std::uint64_t blocking, ops, clocks, tasks, steals_ok;
};

// Recaptured when the steal-retry backoff clamp was fixed: the jittered
// pause is now clamped into [backoff_min_ns, backoff_max_ns] before the
// cast, so jitter below min (or above max) no longer escapes the band —
// a legitimate schedule change. Task count (4186) is unchanged: the same
// work ran, only pause timing moved.
constexpr GoldenRun kGolden[] = {
    {"flat SWS", core::QueueKind::kSws, 0,  //
     291924, 513575, 746, 2334444, 4186, 43},
    {"flat SDC", core::QueueKind::kSdc, 0,  //
     341782, 883641, 934, 2733380, 4186, 32},
    {"two-level SWS", core::QueueKind::kSws, 4,  //
     272740, 374966, 850, 2180002, 4186, 60},
    {"two-level SDC", core::QueueKind::kSdc, 4,  //
     336390, 707661, 1231, 2686339, 4186, 48},
};

TEST(DeterminismGolden, SchedulesMatchPreTopologyFingerprints) {
  for (const GoldenRun& g : kGolden) {
    const net::NetworkParams net =
        g.pes_per_node > 0
            ? net::NetworkParams::tiered(net::TopologySpec::parse(
                  "*x" + std::to_string(g.pes_per_node)))
            : net::NetworkParams{};
    const RunTrace t = run_uts(g.kind, 8, /*trace=*/false, net);
    std::uint64_t blocking = 0, ops = 0, clocks = 0;
    for (const PeSnapshot& s : t.per_pe) {
      blocking += s.fabric.blocking_ns;
      ops += s.fabric.total_ops();
      clocks += static_cast<std::uint64_t>(s.clock);
    }
    EXPECT_EQ(t.duration, g.duration) << g.what;
    EXPECT_EQ(blocking, g.blocking) << g.what;
    EXPECT_EQ(ops, g.ops) << g.what;
    EXPECT_EQ(clocks, g.clocks) << g.what;
    EXPECT_EQ(t.tasks, g.tasks) << g.what;
    EXPECT_EQ(t.steals_ok, g.steals_ok) << g.what;
  }
}

INSTANTIATE_TEST_SUITE_P(BothQueues, DeterminismAb,
                         ::testing::Values(core::QueueKind::kSws,
                                           core::QueueKind::kSdc),
                         [](const auto& info) {
                           return info.param == core::QueueKind::kSws ? "SWS"
                                                                      : "SDC";
                         });

}  // namespace
}  // namespace sws
