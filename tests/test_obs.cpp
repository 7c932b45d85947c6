// Observability layer: metrics registry and snapshot semantics,
// time-series sampling, trace-analysis span reconstruction
// (incl. critical path + convoy pressure), and the end-to-end protocol
// op-shape and time-accounting claims on live 2-PE UTS/BPC traces.
#include <gtest/gtest.h>

#include <initializer_list>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_analysis.hpp"
#include "sws.hpp"

namespace sws::obs {
namespace {

// ----------------------------------------------------------- registry unit

/// A published metric's values, read the way every consumer reads them:
/// through a snapshot.
MetricsSnapshot::Entry entry(const MetricsRegistry& reg,
                             const std::string& name) {
  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot::Entry* e = snap.find(name);
  if (e == nullptr) {
    ADD_FAILURE() << "no metric " << name;
    return {};
  }
  return *e;
}

LogHistogram hist_of(std::initializer_list<std::uint64_t> samples) {
  LogHistogram h;
  for (const std::uint64_t x : samples) h.add(x);
  return h;
}

TEST(MetricsRegistry, CounterStoresPerPeVectorAndTotals) {
  MetricsRegistry reg(3);
  reg.counter("test.count", "help text", {5, 0, 8});
  const auto e = entry(reg, "test.count");
  EXPECT_EQ(e.per_pe, (std::vector<std::uint64_t>{5, 0, 8}));
  EXPECT_EQ(e.total(), 13u);
  EXPECT_EQ(e.help, "help text");
}

TEST(MetricsRegistry, GaugeTotalsByMax) {
  MetricsRegistry reg(2);
  reg.gauge("test.gauge", "", {100, 40});
  reg.gauge("test.gauge", "", {60, 40});  // overwrite, not accumulate
  const auto e = entry(reg, "test.gauge");
  EXPECT_EQ(e.per_pe[0], 60u);
  EXPECT_EQ(e.total(), 60u);
}

TEST(MetricsRegistry, HistogramStoresMergedPublication) {
  MetricsRegistry reg(2);
  LogHistogram merged = hist_of({10});
  merged.merge(hist_of({1000, 1001}));
  reg.histogram("test.hist", "", merged);
  const auto e = entry(reg, "test.hist");
  EXPECT_EQ(e.total(), 3u);
  EXPECT_EQ(e.hist.count(), 3u);
  EXPECT_TRUE(e.per_pe.empty());
}

TEST(MetricsRegistry, RepublishKeepsPositionAndFirstHelp) {
  MetricsRegistry reg(1);
  reg.counter("first", "first help", {1});
  reg.gauge("second", "", {2});
  reg.counter("first", "different help is ignored", {5});
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "first");
  EXPECT_EQ(snap.entries[0].help, "first help");
  EXPECT_EQ(snap.entries[0].per_pe, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(snap.entries[1].name, "second");
  EXPECT_EQ(snap.find("no.such.metric"), nullptr);
}

TEST(MetricsRegistry, WrongLengthVectorThrows) {
  MetricsRegistry reg(2);
  EXPECT_THROW(reg.counter("short", "", {1}), std::invalid_argument);
  EXPECT_THROW(reg.gauge("long", "", {1, 2, 3}), std::invalid_argument);
  EXPECT_TRUE(reg.snapshot().entries.empty())
      << "a rejected publication leaves no entry";
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg(1);
  reg.counter("taken", "", {1});
  EXPECT_THROW(reg.gauge("taken", "", {2}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("taken", "", hist_of({2})),
               std::invalid_argument);
  EXPECT_EQ(entry(reg, "taken").per_pe, (std::vector<std::uint64_t>{1}));
}

TEST(MetricsRegistry, SnapshotIsACopy) {
  MetricsRegistry reg(1);
  reg.counter("c", "", {1});
  const MetricsSnapshot before = reg.snapshot();
  reg.counter("c", "", {9});
  EXPECT_EQ(before.find("c")->total(), 1u);
  EXPECT_EQ(entry(reg, "c").total(), 9u);
}

TEST(MetricsRegistry, PeCountFixedAtConstruction) {
  MetricsRegistry reg(4);
  EXPECT_EQ(reg.npes(), 4);
  reg.counter("c", "", {0, 0, 0, 2});
  reg.gauge("g", "", {0, 0, 0, 1});
  EXPECT_EQ(entry(reg, "c").per_pe[3], 2u) << "PE 3's value lands";
  reg.counter("c", "", {0, 0, 0, 7});
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.npes, 4);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "c") << "re-publishing keeps the position";
  EXPECT_EQ(snap.entries[0].per_pe[3], 7u) << "and overwrites the value";
  EXPECT_EQ(snap.entries[1].name, "g");
}

// -------------------------------------------------------- snapshot algebra

TEST(MetricsSnapshot, MergeSumsCountersMaxesGauges) {
  MetricsRegistry reg(2);
  reg.counter("runs.counter", "", {10, 0});
  reg.gauge("runs.gauge", "", {5, 0});
  reg.histogram("runs.hist", "", hist_of({100}));
  MetricsSnapshot first = reg.snapshot();

  reg.counter("runs.counter", "", {7, 1});
  reg.gauge("runs.gauge", "", {3, 0});
  reg.histogram("runs.hist", "", hist_of({200}));
  MetricsSnapshot second = reg.snapshot();

  first.merge(second);
  EXPECT_EQ(first.find("runs.counter")->total(), 18u);
  EXPECT_EQ(first.find("runs.counter")->per_pe[0], 17u);
  EXPECT_EQ(first.find("runs.gauge")->total(), 5u) << "gauges merge by max";
  EXPECT_EQ(first.find("runs.hist")->hist.count(), 2u);
}

TEST(MetricsSnapshot, MergeAppendsUnknownEntries) {
  MetricsRegistry a(1), b(1);
  a.counter("only.in.a", "", {1});
  b.counter("only.in.b", "", {2});
  MetricsSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  ASSERT_NE(sa.find("only.in.a"), nullptr);
  ASSERT_NE(sa.find("only.in.b"), nullptr);
  EXPECT_EQ(sa.find("only.in.b")->total(), 2u);
}

TEST(MetricsSnapshot, ExportersProduceOutput) {
  MetricsRegistry reg(2);
  reg.counter("exp.counter", "a \"quoted\" help", {0, 3});
  reg.histogram("exp.hist", "", hist_of({42}));
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"schema\":\"sws-metrics\""), std::string::npos);
  EXPECT_NE(json.str().find("\\\"quoted\\\""), std::string::npos)
      << "JSON strings must escape quotes";
  EXPECT_NE(json.str().find("\"per_pe\":[0,3]"), std::string::npos);
  EXPECT_NE(json.str().find("\"buckets\":[[5,1]]"), std::string::npos);
}

TEST(MetricsSnapshot, RepublishedHistogramReplacesWholesale) {
  MetricsRegistry reg(1);
  const LogHistogram src = hist_of({8, 8});
  reg.histogram("pub.hist", "", src);
  reg.histogram("pub.hist", "", src);  // publish twice: no doubling
  EXPECT_EQ(entry(reg, "pub.hist").total(), 2u);
}

// --------------------------------------------------- time-series sampling

TEST(TimeSeries, DeltaExport) {
  std::uint64_t counter = 0;
  TimeSeries ts(10);
  ts.add_series("c", [&] { return counter; });
  ts.add_meta("protocol", "\"sws\"");
  ts.add_meta("npes", "2");
  counter = 5;
  ts.sample(10);
  counter = 4;  // re-attribution can shrink a cumulative source
  ts.sample(20);
  std::ostringstream os;
  ts.write_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\":\"sws-timeseries\""), std::string::npos);
  EXPECT_NE(j.find("\"t\":[10,20]"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"c\",\"v\":[5,-1]"), std::string::npos)
      << "series export signed per-window differences: " << j;

  // Round-trip through the analyzer's parser.
  std::istringstream is(j);
  const TimeSeriesData parsed = parse_timeseries(is);
  EXPECT_EQ(parsed.interval_ns, 10u);
  EXPECT_EQ(parsed.protocol, "sws");
  EXPECT_EQ(parsed.npes, 2);
  ASSERT_EQ(parsed.t.size(), 2u);
  ASSERT_NE(parsed.find("c"), nullptr);
  EXPECT_EQ(parsed.find("c")->v[1], -1);
}

/// `ts` as the analyzer reads its export.
TimeSeriesData exported(const TimeSeries& ts) {
  std::ostringstream os;
  ts.write_json(os);
  std::istringstream is(os.str());
  return parse_timeseries(is);
}

TEST(TimeSeries, SampleIsMonotoneAndIdempotent) {
  std::uint64_t v = 0;
  TimeSeries ts(10);
  ts.add_series("v", [&] { return v; });
  ts.sample(10);
  ts.sample(10);  // duplicate finalize: ignored
  ts.sample(5);   // stale time: ignored
  EXPECT_EQ(exported(ts).t, (std::vector<std::uint64_t>{10}));
  ts.sample(20);
  EXPECT_EQ(exported(ts).t, (std::vector<std::uint64_t>{10, 20}));
  ts.clear();
  EXPECT_TRUE(exported(ts).t.empty());
  ts.sample(10);  // reusable after clear (bench repetitions)
  EXPECT_EQ(exported(ts).t, (std::vector<std::uint64_t>{10}));
}

TEST(TimeSeries, TruncatesAtSampleCap) {
  std::uint64_t v = 0;
  TimeSeries ts(10);
  ts.add_series("v", [&] { return v; });
  for (std::uint64_t i = 1; i <= TimeSeries::kMaxSamples; ++i) ts.sample(i);
  EXPECT_FALSE(exported(ts).truncated) << "exactly at the cap";
  ts.sample(TimeSeries::kMaxSamples + 1);  // past the cap: dropped, flagged
  const TimeSeriesData d = exported(ts);
  EXPECT_TRUE(d.truncated);
  ASSERT_EQ(d.t.size(), TimeSeries::kMaxSamples);
  EXPECT_EQ(d.t.back(), TimeSeries::kMaxSamples);
}

TEST(TimeSeries, ChromeCounterRowsFollowTracerFormat) {
  std::uint64_t v = 0;
  TimeSeries ts(10);
  ts.add_series("acct.working", [&] { return v; });
  v = 1500;
  ts.sample(12345);
  std::ostringstream os;
  ts.write_chrome_counters(os);
  // ",\n"-prefixed rows, µs timestamps with exact .001 resolution — the
  // same convention the tracer's own counter rows use.
  EXPECT_EQ(os.str(),
            ",\n{\"name\":\"acct.working\",\"ph\":\"C\",\"ts\":12.345,"
            "\"pid\":0,\"tid\":0,\"args\":{\"value\":1500}}");
}

TEST(TimeSeriesCheck, AccountingInvariantHoldsAndFails) {
  const auto doc = [](const char* elapsed) {
    return std::string(
               "{\"schema\":\"sws-timeseries\",\"interval_ns\":10,"
               "\"samples\":2,\"truncated\":0,\"protocol\":\"sws\","
               "\"npes\":2,\"t\":[10,20],\"series\":["
               "{\"name\":\"acct.working\",\"v\":[10,9]},"
               "{\"name\":\"acct.probing\",\"v\":[5,11]},"
               "{\"name\":\"acct.stealing\",\"v\":[2,10]},"
               "{\"name\":\"acct.parked\",\"v\":[3,10]},"
               "{\"name\":\"acct.blocked_nbi\","
               "\"v\":[0,0]},"
               "{\"name\":\"acct.recovering\",\"v\":[0,0]},"
               "{\"name\":\"acct.idle_terminating\","
               "\"v\":[0,0]},"
               "{\"name\":\"acct.elapsed_ns\",\"v\":[") +
           elapsed + "]}]}";
  };
  {
    std::istringstream is(doc("20,40"));
    EXPECT_TRUE(check_accounting(parse_timeseries(is)).empty());
  }
  {
    std::istringstream is(doc("20,41"));  // one window off by 1 ns
    const auto errs = check_accounting(parse_timeseries(is));
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("t=20ns"), std::string::npos) << errs[0];
  }
  {
    // No acct.* series at all: nothing to check, vacuously clean.
    std::istringstream is(
        "{\"schema\":\"sws-timeseries\",\"interval_ns\":10,\"samples\":0,"
        "\"truncated\":0,\"t\":[],\"series\":[]}");
    EXPECT_TRUE(check_accounting(parse_timeseries(is)).empty());
  }
}

// ------------------------------------------------- trace-analysis parsing

TEST(TraceAnalysis, ReconstructsSpansFromTracerDump) {
  core::Tracer t(2, 64);
  t.begin(1, 1000, core::TraceKind::kStealSpan, 77, 0);
  t.complete(1, 1010, 300, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kAmoFetchAdd),
             0 | (8u << 16));
  t.complete(1, 1400, 500, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kGet),
             0 | (96u << 16));
  t.complete(1, 1950, 40, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kNbiAmoAdd),
             0 | (8u << 16));
  t.end(1, 2000, core::TraceKind::kStealSpan, 77, 0, 0 | (2u << 8));
  std::ostringstream os;
  core::TraceMeta meta;
  meta.protocol = "sws";
  meta.npes = 2;
  meta.slot_bytes = 48;
  t.dump_chrome_json(os, meta);

  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);
  EXPECT_EQ(rt.protocol, "sws");
  EXPECT_EQ(rt.npes, 2);
  EXPECT_FALSE(rt.truncated);
  ASSERT_EQ(rt.spans.size(), 1u);
  const Span& s = rt.spans[0];
  EXPECT_EQ(s.kind, "steal");
  EXPECT_EQ(s.pe, 1);
  EXPECT_EQ(s.victim(), 0);
  EXPECT_EQ(s.outcome(), 0);
  EXPECT_EQ(s.ntasks(), 2u);
  EXPECT_EQ(s.duration_ns(), 1000u);
  ASSERT_EQ(s.ops.size(), 3u);
  EXPECT_EQ(s.ops[0].op, "amo_fetch_add");
  EXPECT_EQ(s.ops[1].op, "get");
  EXPECT_EQ(s.ops[1].bytes, 96u);
  EXPECT_TRUE(s.ops[0].blocking());
  EXPECT_FALSE(s.ops[2].blocking());

  const AnalyzeReport r = analyze(rt);
  EXPECT_EQ(r.steals_ok, 1u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first, "amo_fetch_add:1 get:1 nbi_amo_add:1");
}

TEST(TraceAnalysis, FlagsOrphansInUntruncatedTrace) {
  core::Tracer t(1, 64);
  t.begin(0, 100, core::TraceKind::kStealSpan, 5, 0);
  // No end: the span id stays open.
  std::ostringstream os;
  core::TraceMeta meta;
  meta.protocol = "sws";
  meta.npes = 1;
  t.dump_chrome_json(os, meta);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);
  EXPECT_EQ(rt.orphan_begins, 1u);
  const AnalyzeReport r = analyze(rt);
  ASSERT_FALSE(r.violations.empty());
}

TEST(TraceAnalysis, RejectsMalformedJson) {
  std::istringstream is("{\"not\": \"an array\"}");
  EXPECT_THROW(parse_chrome_trace(is), std::runtime_error);
  std::istringstream truncated("[{\"name\":\"x\"");
  EXPECT_THROW(parse_chrome_trace(truncated), std::runtime_error);
}

TEST(TraceAnalysis, MissingTopoMetaFailsLoudly) {
  // A protocol-bearing trace from an older writer (no topo key): tier
  // attribution would silently default to flat, so the analyzer must
  // refuse instead of guessing.
  std::istringstream is(
      "[\n{\"name\":\"sws_run_meta\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,"
      "\"pid\":0,\"tid\":0,\"args\":{\"protocol\":\"sws\",\"npes\":2,"
      "\"slot_bytes\":48,\"truncated\":0}}\n]\n");
  const AnalyzeReport r = analyze(parse_chrome_trace(is));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("topo"), std::string::npos)
      << r.violations.front();
}

// ------------------------------------ critical path + convoy (synthetic)

TEST(TraceAnalysis, CriticalPathBlameSumsToPathLength) {
  // PE0 works [0,1000) with one failed steal [100,300); PE1 steals from
  // PE0 over [1000,1400) (one 100 ns fabric op inside) and finishes last.
  // Expected walk: end at PE1, one hop back to PE0, then local to t=0.
  core::Tracer t(2, 64);
  t.begin(0, 100, core::TraceKind::kStealSpan, 5, 1);
  t.end(0, 300, core::TraceKind::kStealSpan, 5, 1, 1);  // outcome empty
  t.begin(1, 1000, core::TraceKind::kStealSpan, 77, 0);
  t.complete(1, 1100, 100, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kAmoFetchAdd),
             0 | (8u << 16));
  t.end(1, 1400, core::TraceKind::kStealSpan, 77, 0, 0 | (2u << 8));
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);

  const CriticalPath cp = critical_path(rt);
  EXPECT_EQ(cp.end_pe, 1);
  EXPECT_EQ(cp.path_ns, 1400u);
  EXPECT_EQ(cp.steal_hops, 1u);
  EXPECT_EQ(cp.steal_fabric_ns, 100u);
  EXPECT_EQ(cp.steal_proto_ns, 300u) << "hop minus its fabric occupancy";
  EXPECT_EQ(cp.search_ns, 200u) << "PE0's failed steal [100,300)";
  EXPECT_EQ(cp.work_ns, 800u);
  EXPECT_EQ(cp.work_ns + cp.search_ns + cp.steal_fabric_ns +
                cp.steal_proto_ns,
            cp.path_ns)
      << "every path nanosecond blamed exactly once";
  ASSERT_EQ(cp.hop_pes.size(), 2u);
  EXPECT_EQ(cp.hop_pes[0], 1);
  EXPECT_EQ(cp.hop_pes[1], 0);
}

TEST(TraceAnalysis, ConvoyRanksVictimsByPeakWindowPressure) {
  // Three thieves hammer victim 0 inside one window; victim 1 sees one
  // spread-out attempt. Victim 0 must rank first on peak pressure. The
  // trace's last row, at 128 µs, sets the window: a 64th of the run,
  // 2 µs.
  core::Tracer t(4, 64);
  for (int pe = 1; pe <= 3; ++pe) {
    const auto id = static_cast<std::uint64_t>(pe);
    t.begin(pe, 100 + static_cast<net::Nanos>(pe), core::TraceKind::kStealSpan,
            id, 0);
    t.end(pe, 200 + static_cast<net::Nanos>(pe), core::TraceKind::kStealSpan,
          id, 0, pe == 1 ? 0 : 1);
  }
  t.begin(0, 5000, core::TraceKind::kStealSpan, 9, 1);
  t.end(0, 5100, core::TraceKind::kStealSpan, 9, 1, 1);
  t.counter(0, 128'000, core::TraceKind::kQueueDepth, 0);
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);
  const ConvoyReport cr = convoy_report(rt);
  EXPECT_EQ(cr.window_ns, 2000u);
  EXPECT_EQ(analyze(rt).window_ns, 2000u) << "one window for both scans";
  ASSERT_EQ(cr.victims.size(), 2u);
  EXPECT_EQ(cr.victims[0].pe, 0);
  EXPECT_EQ(cr.victims[0].inbound_attempts, 3u);
  EXPECT_EQ(cr.victims[0].inbound_ok, 1u);
  EXPECT_EQ(cr.victims[0].peak_window_attempts, 3u);
  EXPECT_EQ(cr.victims[0].peak_window_start_ns, 0u);
  EXPECT_EQ(cr.victims[1].pe, 1);
  EXPECT_EQ(cr.victims[1].peak_window_attempts, 1u);
  EXPECT_EQ(cr.victims[1].peak_window_start_ns, 4000u);
}

TEST(TraceAnalysis, CounterRowsExtendDuration) {
  core::Tracer t(1, 64);
  t.counter(0, 500, core::TraceKind::kQueueDepth, 7);
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);
  // A counter row can be a trace's last: it still extends the duration.
  EXPECT_EQ(rt.duration_ns, 500u);
}

// ----------------------------------------- live end-to-end (Fig 2 claims)

struct UtsRun {
  AnalyzeReport report;
  core::PoolRunReport pool_report;
  MetricsSnapshot metrics;
};

UtsRun run_uts_traced(core::QueueKind kind, int npes = 2,
                      std::uint32_t bulk_claim_max = 1) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = npes;
  rcfg.metrics = true;
  pgas::Runtime rt(rcfg);

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 2000;
  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);

  core::PoolConfig pcfg;
  pcfg.kind = kind;
  pcfg.queue.slot_bytes = 48;
  pcfg.sws.bulk_claim_max = bulk_claim_max;
  pcfg.trace.enable = true;
  pcfg.trace.events = std::size_t{1} << 18;
  core::TaskPool pool(rt, registry, pcfg);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  std::ostringstream os;
  pool.dump_trace_json(os);
  std::istringstream is(os.str());

  UtsRun out;
  out.report = analyze(parse_chrome_trace(is));
  out.pool_report = pool.report();
  pool.publish_metrics(rt.metrics());
  out.metrics = rt.metrics().snapshot();
  return out;
}

TEST(TraceAnalysisLive, SwsStealIsOneFetchAddOneGet) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSws);
  const AnalyzeReport& r = run.report;
  ASSERT_FALSE(r.truncated) << "grow the trace ring";
  ASSERT_GT(r.steals_ok, 0u);
  EXPECT_EQ(r.steals_ok, run.pool_report.total.steals_ok);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  // The paper's SWS claim, verified op by op: every successful steal is
  // one remote fetch-add (fused discovery+claim) + one task-copy get +
  // one non-blocking completion add. 3 ops, 2 blocking.
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first, "amo_fetch_add:1 get:1 nbi_amo_add:1");
  EXPECT_DOUBLE_EQ(r.ops_per_success, 3.0);
  EXPECT_DOUBLE_EQ(r.blocking_per_success, 2.0);
}

TEST(TraceAnalysisLive, SdcStealIsSixOpSequence) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSdc);
  const AnalyzeReport& r = run.report;
  ASSERT_FALSE(r.truncated);
  ASSERT_GT(r.steals_ok, 0u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  // The SDC baseline: lock cswap + metadata get + tail-claim put +
  // unlock set + task-copy get + nbi completion set. 6 ops, 5 blocking.
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first,
            "amo_cswap:1 amo_set:1 get:2 nbi_amo_set:1 put:1");
  EXPECT_DOUBLE_EQ(r.ops_per_success, 6.0);
  EXPECT_DOUBLE_EQ(r.blocking_per_success, 5.0);
}

TEST(TraceAnalysisLive, SwsBulkClaimsKeepOneFetchAdd) {
  // Bulk claims widen the SWS steal: still one fetch-add and one coalesced
  // copy, but one completion add per claimed block. The self-check must
  // admit that shape, and an 8-PE storm must actually claim several
  // blocks at least once.
  const UtsRun run = run_uts_traced(core::QueueKind::kSws, /*npes=*/8,
                                    /*bulk_claim_max=*/4);
  const AnalyzeReport& r = run.report;
  ASSERT_FALSE(r.truncated) << "grow the trace ring";
  ASSERT_GT(r.steals_ok, 0u);
  EXPECT_EQ(r.steals_ok, run.pool_report.total.steals_ok);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  std::uint64_t multi_block = 0;
  for (const auto& [sig, n] : r.signatures) {
    const std::size_t at = sig.find("nbi_amo_add:");
    ASSERT_NE(at, std::string::npos) << sig;
    if (std::stoi(sig.substr(at + 12)) > 1) multi_block += n;
  }
  EXPECT_GE(multi_block, 1u) << "no steal claimed more than one block";
}

TEST(TraceAnalysisLive, CrashModeShapesAdmittedAndSummarized) {
  // A crash-mode run: PE 2 dies mid-run. The analyzer must (a) admit the
  // crash-mode SDC steal shape — the extra claim-intent put inside the
  // critical section is protocol, not a violation — and (b) surface the
  // recovery events in its summary counters.
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = 4;
    rcfg.net.faults.crashes.push_back({2, 300'000});
    pgas::Runtime rt(rcfg);

    workloads::UtsParams p;
    p.b0 = 4;
    p.gen_mx = 9;
    p.node_compute_ns = 2000;
    core::TaskRegistry registry;
    workloads::UtsBenchmark uts(registry, p);

    core::PoolConfig pcfg;
    pcfg.kind = kind;
    pcfg.queue.slot_bytes = 48;
    pcfg.trace.enable = true;
    pcfg.trace.events = std::size_t{1} << 18;
    core::TaskPool pool(rt, registry, pcfg);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });

    std::ostringstream os;
    pool.dump_trace_json(os);
    std::istringstream is(os.str());
    const RunTrace rtr = parse_chrome_trace(is);
    EXPECT_TRUE(rtr.crash_mode);
    const AnalyzeReport r = analyze(rtr);
    ASSERT_FALSE(r.truncated) << "grow the trace ring";
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_GE(r.deaths_detected, 1u)
        << (kind == core::QueueKind::kSdc ? "SDC" : "SWS");
  }
}

TEST(TraceAnalysisLive, MetricsCoverEveryLayer) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSws);
  const MetricsSnapshot& m = run.metrics;
  // Fabric layer (published by Runtime::run via config().metrics).
  const auto* fetch_adds = m.find("fabric.ops.amo_fetch_add");
  ASSERT_NE(fetch_adds, nullptr);
  EXPECT_GE(fetch_adds->total(), run.pool_report.total.steals_ok);
  // Runtime layer.
  ASSERT_NE(m.find("runtime.last_run_duration_ns"), nullptr);
  EXPECT_GT(m.find("runtime.last_run_duration_ns")->total(), 0u);
  EXPECT_EQ(m.find("runtime.runs")->total(), 1u);
  // Pool + queue layers (published by TaskPool::publish_metrics).
  ASSERT_NE(m.find("pool.tasks_executed"), nullptr);
  EXPECT_EQ(m.find("pool.tasks_executed")->total(),
            run.pool_report.total.tasks_executed);
  EXPECT_EQ(m.find("pool.steals_ok")->total(),
            run.pool_report.total.steals_ok);
  ASSERT_NE(m.find("pool.steal_latency_ns"), nullptr);
  EXPECT_EQ(m.find("pool.steal_latency_ns")->hist.count(),
            run.pool_report.total.steals_ok);
  ASSERT_NE(m.find("queue.releases"), nullptr);
  EXPECT_GT(m.find("queue.releases")->total(), 0u);
}

// -------------------------------------- live per-PE time accounting

/// Every PE's run time must be attributed to exactly one taxonomy
/// category: sum(phase_ns) == accounted_ns, exact integer arithmetic.
void expect_accounting_exact(const core::TaskPool& pool, int npes,
                             const char* what) {
  for (int pe = 0; pe < npes; ++pe) {
    const core::WorkerStats& w = pool.worker_stats(pe);
    const net::Nanos sum = std::accumulate(w.phase_ns.begin(),
                                           w.phase_ns.end(), net::Nanos{0});
    EXPECT_EQ(sum, w.accounted_ns) << what << " pe " << pe;
    EXPECT_GT(w.accounted_ns, 0u) << what << " pe " << pe;
  }
}

TEST(TimeAccountingLive, PhaseSumsEqualElapsedOnUtsAndBpc) {
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const char* kname = kind == core::QueueKind::kSws ? "sws" : "sdc";
    {
      pgas::RuntimeConfig rcfg;
      rcfg.npes = 4;
      pgas::Runtime rt(rcfg);
      workloads::UtsParams p;
      p.b0 = 4;
      p.gen_mx = 9;
      p.node_compute_ns = 2000;
      core::TaskRegistry registry;
      workloads::UtsBenchmark uts(registry, p);
      core::PoolConfig pcfg;
      pcfg.kind = kind;
      pcfg.queue.slot_bytes = 48;
      core::TaskPool pool(rt, registry, pcfg);
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
      });
      expect_accounting_exact(pool, rcfg.npes,
                              (std::string("uts/") + kname).c_str());
      // kWorking covers at least the charged task compute.
      core::PoolRunReport r = pool.report();
      EXPECT_GE(r.total.phase_ns[static_cast<std::size_t>(
                    core::PoolPhase::kWorking)],
                r.total.compute_time_ns)
          << kname;
    }
    {
      pgas::RuntimeConfig rcfg;
      rcfg.npes = 4;
      pgas::Runtime rt(rcfg);
      workloads::BpcParams p;
      p.consumers_per_producer = 8;
      p.depth = 6;
      p.consumer_ns = 50'000;
      p.producer_ns = 10'000;
      core::TaskRegistry registry;
      workloads::BpcBenchmark bpc(registry, p);
      core::PoolConfig pcfg;
      pcfg.kind = kind;
      pcfg.queue.slot_bytes = 48;
      core::TaskPool pool(rt, registry, pcfg);
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
      });
      expect_accounting_exact(pool, rcfg.npes,
                              (std::string("bpc/") + kname).c_str());
    }
  }
}

TEST(TimeAccountingLive, SampledWindowsSumExactlyToElapsed) {
  // A sampling run: every window's acct.* deltas must sum to the elapsed
  // delta (the invariant sws-analyze --timeseries re-checks offline), and
  // the cumulative total must equal the per-PE accounted time.
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = 2;
    pgas::Runtime rt(rcfg);
    workloads::UtsParams p;
    p.b0 = 4;
    p.gen_mx = 9;
    p.node_compute_ns = 2000;
    core::TaskRegistry registry;
    workloads::UtsBenchmark uts(registry, p);
    core::PoolConfig pcfg;
    pcfg.kind = kind;
    pcfg.queue.slot_bytes = 48;
    pcfg.trace.sample_interval_ns = 10'000;  // sampling without tracing
    core::TaskPool pool(rt, registry, pcfg);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });

    std::ostringstream os;
    pool.dump_timeseries_json(os);
    std::istringstream is(os.str());
    const TimeSeriesData ts = parse_timeseries(is);
    EXPECT_GT(ts.t.size(), 1u) << "expected multiple sampled windows";
    const auto errs = check_accounting(ts);
    EXPECT_TRUE(errs.empty()) << errs.front();

    const TimeSeriesData::Series* elapsed = ts.find("acct.elapsed_ns");
    ASSERT_NE(elapsed, nullptr);
    const std::int64_t total =
        std::accumulate(elapsed->v.begin(), elapsed->v.end(),
                        std::int64_t{0});
    std::int64_t accounted = 0;
    for (int pe = 0; pe < rcfg.npes; ++pe)
      accounted +=
          static_cast<std::int64_t>(pool.worker_stats(pe).accounted_ns);
    EXPECT_EQ(total, accounted)
        << "cumulative sampled elapsed == sum of per-PE accounted time";
  }
}

TEST(TimeAccountingLive, SampledTraceCarriesCounterTracks) {
  // Sampling + tracing: the trace dump gains one Perfetto counter track
  // per sampled series, one "C" row per window.
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 2;
  pgas::Runtime rt(rcfg);
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 2000;
  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);
  core::PoolConfig pcfg;
  pcfg.queue.slot_bytes = 48;
  pcfg.trace.enable = true;
  pcfg.trace.events = std::size_t{1} << 18;
  pcfg.trace.sample_interval_ns = 10'000;
  core::TaskPool pool(rt, registry, pcfg);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  std::ostringstream os;
  pool.dump_trace_json(os);
  // The dump writes one row per line.
  std::istringstream is(os.str());
  std::uint64_t acct_rows = 0;
  std::int64_t elapsed_total = 0;
  for (std::string row; std::getline(is, row);) {
    if (row.find("\"ph\":\"C\"") == std::string::npos) continue;
    if (row.rfind("{\"name\":\"acct.", 0) == 0) ++acct_rows;
    if (row.rfind("{\"name\":\"acct.elapsed_ns\"", 0) != 0) continue;
    const std::string key = "\"value\":";
    elapsed_total += std::stoll(row.substr(row.find(key) + key.size()));
  }
  EXPECT_GT(acct_rows, 0u) << "sampled series must appear as C rows";
  std::int64_t accounted = 0;
  for (int pe = 0; pe < rcfg.npes; ++pe)
    accounted +=
        static_cast<std::int64_t>(pool.worker_stats(pe).accounted_ns);
  EXPECT_EQ(elapsed_total, accounted);
}

}  // namespace
}  // namespace sws::obs
