// Determinism A/B harness for the sequencers: the serial fiber sequencer
// (ready heap + run-to-horizon batching + pooled pending effects) must
// produce byte-identical executions run to run, the sharded parallel
// engine must match it at every thread count, and both must land on the
// pinned golden fingerprints below. A fig2-style UTS workload with
// nbi-heavy stealing exercises every hot path of both engines.
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
                 std::uint32_t bulk = 1, int engine_threads = 1,
                 net::Nanos sample_ns = 0) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = 4 << 20;
  rc.seed = 42;
  rc.net = net;
  rc.engine_threads = engine_threads;
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
  pc.steal.bulk_claim_max = bulk;
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
    t.bulk_claims += pool.queue().op_stats(pe).bulk_claims;
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

// --- parallel engine (ParallelTimeModel) ----------------------------------
//
// The sharded windowed sequencer must be invisible in every observable:
// per-PE fabric counters, clocks, durations, steal/task totals. The serial
// sequencer is the reference for all of it.

TEST_P(DeterminismAb, ParallelEngineMatchesReference) {
  const RunTrace ref = run_uts(GetParam(), 8);
  for (const int threads : {2, 4}) {
    const RunTrace t =
        run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1, threads);
    expect_identical(t, ref,
                     (std::string("engine_threads=") + std::to_string(threads) +
                      " vs serial")
                         .c_str());
  }
}

TEST_P(DeterminismAb, ParallelEngineIsRepeatable) {
  const RunTrace a = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*threads=*/4);
  const RunTrace b = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*threads=*/4);
  ASSERT_GT(a.steals_ok, 10u) << "workload too small to exercise stealing";
  expect_identical(a, b, "4-thread engine run-to-run");
}

TEST(DeterminismParallel, BulkClaimsUnderParallelEngineMatchReference) {
  // Bulk claims + windows together: the widened AMO protocol must stay on
  // the serial schedule when the engine runs concurrent windows.
  const RunTrace ref = run_uts(core::QueueKind::kSws, 8, /*trace=*/false, {},
                               /*bulk=*/4);
  const RunTrace par = run_uts(core::QueueKind::kSws, 8, /*trace=*/false, {},
                               /*bulk=*/4, /*threads=*/4);
  EXPECT_GT(par.bulk_claims, 0u);
  expect_identical(par, ref, "bulk=4 under 4-thread engine vs serial");
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
                              /*threads=*/1, /*sample_ns=*/10'000);
  EXPECT_FALSE(on.timeseries_json.empty());
  expect_identical(off, on, "sampling-off vs sampling-on");
}

TEST_P(DeterminismAb, SampledRunsDumpByteIdenticalJson) {
  const RunTrace a = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*threads=*/1, /*sample_ns=*/10'000);
  const RunTrace b = run_uts(GetParam(), 8, /*trace=*/false, {}, /*bulk=*/1,
                             /*threads=*/1, /*sample_ns=*/10'000);
  expect_identical(a, b, "sampled run-to-run");
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
}

TEST_P(DeterminismAb, SamplingAndTracingComposeObservationOnly) {
  // Both observers on at once (the bench_common --trace-out --timeseries-out
  // path) must still land on the unobserved schedule.
  const RunTrace off = run_uts(GetParam(), 8);
  const RunTrace on = run_uts(GetParam(), 8, /*trace=*/true, {}, /*bulk=*/1,
                              /*threads=*/1, /*sample_ns=*/10'000);
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
        g.pes_per_node > 0 ? net::NetworkParams::two_level(g.pes_per_node)
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

TEST(DeterminismGolden, ParallelEngineMatchesFingerprints) {
  // The strongest gate: the 4-thread windowed engine must land on the
  // *pinned* schedules — not merely agree with a same-binary reference.
  for (const GoldenRun& g : kGolden) {
    const net::NetworkParams net =
        g.pes_per_node > 0 ? net::NetworkParams::two_level(g.pes_per_node)
                           : net::NetworkParams{};
    const RunTrace t = run_uts(g.kind, 8, /*trace=*/false, net, /*bulk=*/1,
                               /*threads=*/4);
    std::uint64_t blocking = 0, ops = 0, clocks = 0;
    for (const PeSnapshot& s : t.per_pe) {
      blocking += s.fabric.blocking_ns;
      ops += s.fabric.total_ops();
      clocks += static_cast<std::uint64_t>(s.clock);
    }
    EXPECT_EQ(t.duration, g.duration) << g.what << " (4-thread engine)";
    EXPECT_EQ(blocking, g.blocking) << g.what << " (4-thread engine)";
    EXPECT_EQ(ops, g.ops) << g.what << " (4-thread engine)";
    EXPECT_EQ(clocks, g.clocks) << g.what << " (4-thread engine)";
    EXPECT_EQ(t.tasks, g.tasks) << g.what << " (4-thread engine)";
    EXPECT_EQ(t.steals_ok, g.steals_ok) << g.what << " (4-thread engine)";
  }
}

// --- ReadyHeap shard partition fuzz ---------------------------------------
//
// The parallel driver computes the global frontier as the lex (vtime, pe)
// minimum over per-shard heap tops. Fuzz that scan against a single-heap
// oracle under a random mix of monotone advances, cross-shard clamps
// (decrease-key), parks (insert) and releases (remove).

TEST(ReadyHeapShard, PartitionedFrontierMatchesSingleHeapOracle) {
  using net::Nanos;
  using net::ReadyHeap;
  for (const int nshards : {1, 2, 3, 5, 8}) {
    const int npes = 24;
    std::uint64_t state = 0x9E3779B97F4A7C15ull ^
                          (static_cast<std::uint64_t>(nshards) << 32);
    const auto rnd = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 11;
    };
    ReadyHeap oracle;
    oracle.rebuild(npes);
    std::vector<ReadyHeap> shards(static_cast<std::size_t>(nshards));
    for (auto& h : shards) h.clear(npes);
    std::vector<int> shard_of(npes);
    for (int pe = 0; pe < npes; ++pe) {
      shard_of[static_cast<std::size_t>(pe)] = pe % nshards;
      shards[static_cast<std::size_t>(pe % nshards)].insert(pe, 0);
    }
    std::vector<Nanos> vt(npes, 0);
    std::vector<bool> present(npes, true);

    const auto frontier = [&](Nanos& fc, int& fp) {
      fc = ReadyHeap::kNoVtime;
      fp = -1;
      for (const ReadyHeap& h : shards) {
        const int p = h.top();
        if (p < 0) continue;
        const Nanos c = h.top_vtime();
        if (c < fc || (c == fc && p < fp)) {
          fc = c;
          fp = p;
        }
      }
    };

    for (int step = 0; step < 20000; ++step) {
      const int pe = static_cast<int>(rnd() % npes);
      ReadyHeap& sh = shards[static_cast<std::size_t>(shard_of[pe])];
      switch (rnd() % 4) {
        case 0:
        case 1: {  // monotone advance
          if (!present[pe]) break;
          vt[pe] += static_cast<Nanos>(rnd() % 500);
          oracle.update(pe, vt[pe]);
          sh.update(pe, vt[pe]);
          break;
        }
        case 2: {  // release / park cycle
          if (present[pe]) {
            present[pe] = false;
            oracle.remove(pe);
            sh.remove(pe);
          } else {
            present[pe] = true;
            vt[pe] += static_cast<Nanos>(rnd() % 300);
            oracle.insert(pe, vt[pe]);
            sh.insert(pe, vt[pe]);
          }
          break;
        }
        case 3: {  // cross-shard clamp: decrease-key
          if (!present[pe]) break;
          const Nanos cut = std::min<Nanos>(vt[pe], rnd() % 200);
          vt[pe] -= cut;
          oracle.update(pe, vt[pe]);
          sh.update(pe, vt[pe]);
          break;
        }
      }
      Nanos fc;
      int fp;
      frontier(fc, fp);
      ASSERT_EQ(fp, oracle.top()) << "nshards=" << nshards << " step=" << step;
      ASSERT_EQ(fc, oracle.top_vtime())
          << "nshards=" << nshards << " step=" << step;
      ASSERT_EQ(sh.contains(pe), present[pe]);
    }

    // Drain: the partitioned heaps must yield the oracle's exact order.
    while (oracle.top() >= 0) {
      Nanos fc;
      int fp;
      frontier(fc, fp);
      ASSERT_EQ(fp, oracle.top());
      ASSERT_EQ(fc, oracle.top_vtime());
      shards[static_cast<std::size_t>(shard_of[fp])].remove(fp);
      oracle.remove(oracle.top());
    }
    for (const ReadyHeap& h : shards) EXPECT_TRUE(h.empty());
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
