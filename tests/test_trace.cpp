// Tracer ring semantics and scheduler integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/scheduler.hpp"
#include "core/trace.hpp"

namespace sws::core {
namespace {

TEST(Tracer, DisabledByDefault) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(0, 1, TraceKind::kTaskExec);  // must be a harmless no-op
}

TEST(Tracer, RecordsAndListsEvents) {
  Tracer t(2, 16);
  ASSERT_TRUE(t.enabled());
  t.record(0, 100, TraceKind::kTaskExec, 7);
  t.record(0, 200, TraceKind::kSpawnRemote, 1, 5);
  t.record(1, 150, TraceKind::kInboxDrain);
  const auto pe0 = t.events(0);
  ASSERT_EQ(pe0.size(), 2u);
  EXPECT_EQ(pe0[0].time, 100u);
  EXPECT_EQ(pe0[1].kind, TraceKind::kSpawnRemote);
  EXPECT_EQ(pe0[1].b, 5u);
  EXPECT_EQ(t.events(1).size(), 1u);
}

TEST(Tracer, MergedIsTimeOrdered) {
  Tracer t(3, 8);
  t.record(2, 300, TraceKind::kTaskExec);
  t.record(0, 100, TraceKind::kTaskExec);
  t.record(1, 200, TraceKind::kTaskExec);
  t.record(0, 200, TraceKind::kInboxDrain);  // tie with pe1: pe0 first
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].time, 100u);
  EXPECT_EQ(all[1].pe, 0);
  EXPECT_EQ(all[2].pe, 1);
  EXPECT_EQ(all[3].time, 300u);
}

TEST(Tracer, MergedTieBreaksByPeThenSequence) {
  // Regression: events sharing a timestamp must merge in (pe, ring
  // sequence) order regardless of cross-PE insertion interleaving, or
  // dumps of identical runs differ byte-wise.
  Tracer t(2, 8);
  t.record(1, 100, TraceKind::kTaskExec, 10);
  t.record(0, 100, TraceKind::kTaskExec, 1);
  t.record(1, 100, TraceKind::kInboxDrain, 11);
  t.record(0, 100, TraceKind::kInboxDrain, 2);
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].pe, 0);
  EXPECT_EQ(all[0].a, 1u);
  EXPECT_EQ(all[1].pe, 0);
  EXPECT_EQ(all[1].a, 2u);
  EXPECT_EQ(all[2].pe, 1);
  EXPECT_EQ(all[2].a, 10u);
  EXPECT_EQ(all[3].pe, 1);
  EXPECT_EQ(all[3].a, 11u);
}

TEST(Tracer, MergedEqualTimeOrderSurvivesRingWrap) {
  // Same-time events after the ring wraps: the per-PE sequence keeps
  // counting across overwrites, so the retained suffix still merges in
  // recording order.
  Tracer t(1, 4);
  for (std::uint64_t i = 0; i < 11; ++i)
    t.record(0, 500, TraceKind::kTaskExec, i);
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].a, 7 + i);
    if (i > 0) {
      EXPECT_LT(all[i - 1].seq, all[i].seq);
    }
  }
  EXPECT_TRUE(t.truncated());
}

TEST(Tracer, RingOverwritesOldest) {
  Tracer t(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(0, i, TraceKind::kTaskExec, i);
  const auto evs = t.events(0);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].a, 6u) << "oldest retained event";
  EXPECT_EQ(evs[3].a, 9u);
}

TEST(Tracer, CountsOnlyRetainedEventsAfterWrap) {
  Tracer t(2, 4);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(0, i, TraceKind::kTaskExec, i);
  t.begin(1, 1, TraceKind::kStealSpan, 7);
  t.end(1, 2, TraceKind::kStealSpan, 7);
  for (std::uint64_t i = 0; i < 5; ++i)
    t.record(1, 3 + i, TraceKind::kTermCheck);
  ASSERT_TRUE(t.truncated());
  EXPECT_EQ(t.count(TraceKind::kTaskExec), 4u) << "retained only";
  EXPECT_EQ(t.count(TraceKind::kStealSpan), 0u) << "both overwritten";
  EXPECT_EQ(t.count(TraceKind::kTermCheck), 4u);
  t.clear();
  EXPECT_FALSE(t.truncated());
  EXPECT_EQ(t.count(TraceKind::kTaskExec), 0u);
}

TEST(Tracer, CountByKind) {
  Tracer t(2, 16);
  t.record(0, 1, TraceKind::kSpawn);
  t.record(1, 2, TraceKind::kSpawn);
  t.record(1, 3, TraceKind::kTermCheck);
  EXPECT_EQ(t.count(TraceKind::kSpawn), 2u);
  EXPECT_EQ(t.count(TraceKind::kTermCheck), 1u);
  EXPECT_EQ(t.count(TraceKind::kTerminated), 0u);
}

TEST(Tracer, ClearEmptiesRings) {
  Tracer t(1, 8);
  t.record(0, 1, TraceKind::kTaskExec);
  t.clear();
  EXPECT_TRUE(t.events(0).empty());
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  Tracer t(2, 8);
  t.record(0, 1000, TraceKind::kTaskExec, 3);
  t.record(1, 2500, TraceKind::kSpawnRemote, 0, 7);
  std::ostringstream os;
  t.dump_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"task_exec\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos) << "ns -> us scaling";
  // Balanced braces and exactly one comma between the two events.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, ChromeJsonEmptyTracerIsEmptyArray) {
  Tracer t(1, 4);
  std::ostringstream os;
  t.dump_chrome_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(Tracer, SpanPhasesAreCountable) {
  Tracer t(1, 16);
  t.begin(0, 100, TraceKind::kStealSpan, 42, 1);
  t.complete(0, 110, 20, TraceKind::kFabricOp, 42,
             static_cast<std::uint64_t>(net::OpKind::kGet), 0);
  t.end(0, 200, TraceKind::kStealSpan, 42, 1, 2 << 8);
  t.counter(0, 250, TraceKind::kQueueDepth, 5);
  EXPECT_EQ(t.count(TraceKind::kStealSpan), 2u);
  EXPECT_EQ(t.count(TraceKind::kStealSpan, TracePhase::kBegin), 1u);
  EXPECT_EQ(t.count(TraceKind::kStealSpan, TracePhase::kEnd), 1u);
  EXPECT_EQ(t.count(TraceKind::kFabricOp, TracePhase::kComplete), 1u);
  EXPECT_EQ(t.count(TraceKind::kQueueDepth, TracePhase::kCounter), 1u);
  EXPECT_FALSE(t.truncated());
}

TEST(Tracer, ChromeJsonEmitsSpanPhasesAndMeta) {
  Tracer t(1, 16);
  t.begin(0, 1000, TraceKind::kStealSpan, 7, 1);
  t.complete(0, 1100, 500, TraceKind::kFabricOp, 7,
             static_cast<std::uint64_t>(net::OpKind::kAmoFetchAdd),
             1 | (8u << 16));
  t.counter(0, 1200, TraceKind::kQueueDepth, 5);
  t.end(0, 2000, TraceKind::kStealSpan, 7, 1, 3 << 8);
  std::ostringstream os;
  TraceMeta meta;
  meta.protocol = "sws";
  meta.npes = 1;
  meta.slot_bytes = 64;
  t.dump_chrome_json(os, meta);
  const std::string json = os.str();
  EXPECT_NE(json.find("sws_run_meta"), std::string::npos);
  EXPECT_NE(json.find("\"protocol\":\"sws\""), std::string::npos);
  EXPECT_NE(json.find("\"truncated\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"amo_fetch_add\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":8"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TracerPool, SchedulerEmitsCoherentTrace) {
  pgas::RuntimeConfig rc;
  rc.npes = 4;
  rc.heap_bytes = 2 << 20;
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  TaskFnId fn = 0;
  fn = reg.register_fn("fan", [&](Worker& w, std::span<const std::byte> b) {
    std::uint32_t d;
    std::memcpy(&d, b.data(), 4);
    w.compute(5000);
    if (d > 0)
      for (int i = 0; i < 4; ++i) w.spawn(Task::of(fn, d - 1));
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  pc.trace.enable = true;
  pc.trace.events = 65536;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fn, std::uint32_t{4}));
    });
  });

  const Tracer& t = pool.tracer();
  const PoolRunReport r = pool.report();
  // Trace counts must agree with the pool statistics.
  EXPECT_EQ(t.count(TraceKind::kTaskExec), r.total.tasks_executed);
  EXPECT_EQ(t.count(TraceKind::kSpawn), r.total.tasks_spawned);
  EXPECT_EQ(t.count(TraceKind::kTerminated), 4u);
  // A steal's one record is its span end, outcome in the low byte of b;
  // every PE's events are time-monotone.
  std::uint64_t steals_ok = 0;
  for (int pe = 0; pe < 4; ++pe) {
    const auto evs = pool.tracer().events(pe);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      if (i > 0) {
        ASSERT_GE(evs[i].time, evs[i - 1].time);
      }
      if (evs[i].kind == TraceKind::kStealSpan &&
          evs[i].phase == TracePhase::kEnd &&
          static_cast<StealOutcome>(evs[i].b & 0xFF) == StealOutcome::kSuccess)
        ++steals_ok;
    }
  }
  EXPECT_GT(steals_ok, 0u);
  EXPECT_EQ(steals_ok, r.total.steals_ok);
}

TEST(Tracer, OpenSpanFollowsBeginEndAndClear) {
  Tracer off;
  EXPECT_EQ(off.open_span(0), 0u);
  Tracer t(2, 16);
  EXPECT_EQ(t.open_span(0), 0u);
  t.begin(0, 100, TraceKind::kStealSpan, 42, 1);
  EXPECT_EQ(t.open_span(0), 42u);
  EXPECT_EQ(t.open_span(1), 0u) << "spans are per PE";
  t.end(0, 200, TraceKind::kStealSpan, 42);
  EXPECT_EQ(t.open_span(0), 0u);
  t.begin(0, 300, TraceKind::kReleaseSpan, 43);
  t.begin(1, 300, TraceKind::kAcquireSpan, 44);
  t.clear();
  EXPECT_EQ(t.open_span(0), 0u) << "clear() left a span open";
  EXPECT_EQ(t.open_span(1), 0u);
}

TEST(TracerPool, FabricOpsFileUnderTheOpenSpanOnly) {
  // Every traced fabric op is a child of the span open on its PE when it
  // was issued; ops outside any span (here, a 3-byte get in each task
  // body, a size no protocol uses) are dropped.
  pgas::RuntimeConfig rc;
  rc.npes = 4;
  rc.heap_bytes = 2 << 20;
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  TaskFnId fn = 0;
  fn = reg.register_fn("fan", [&](Worker& w, std::span<const std::byte> b) {
    std::uint32_t d;
    std::memcpy(&d, b.data(), 4);
    char probe[3];
    w.ctx().fabric().get(w.pe(), w.pe(), 0, probe, sizeof probe);
    w.compute(5000);
    if (d > 0)
      for (int i = 0; i < 4; ++i) w.spawn(Task::of(fn, d - 1));
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  pc.trace.enable = true;
  pc.trace.events = 65536;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task::of(fn, std::uint32_t{4}));
    });
  });
  ASSERT_FALSE(pool.tracer().truncated());

  std::uint64_t filed = 0;
  for (int pe = 0; pe < 4; ++pe) {
    std::uint64_t open = 0;
    for (const TraceEvent& e : pool.tracer().events(pe)) {
      if (e.phase == TracePhase::kBegin) open = e.span;
      if (e.phase == TracePhase::kEnd) {
        EXPECT_EQ(e.span, open) << "pe " << pe;
        open = 0;
      }
      if (e.kind != TraceKind::kFabricOp) continue;
      ++filed;
      EXPECT_NE(open, 0u) << "pe " << pe << ": op outside any span";
      EXPECT_EQ(e.span, open) << "pe " << pe;
      EXPECT_NE(e.b >> 16, 3u) << "pe " << pe << ": a task-body op was filed";
    }
  }
  EXPECT_GT(filed, 0u);
}

TEST(TracerPool, TraceOffRecordsNothing) {
  pgas::RuntimeConfig rc;
  rc.npes = 2;
  rc.heap_bytes = 1 << 20;
  pgas::Runtime rt(rc);
  TaskRegistry reg;
  TaskFnId fn = reg.register_fn("noop", [](Worker& w,
                                           std::span<const std::byte>) {
    w.compute(10);
  });
  PoolConfig pc;
  pc.queue.slot_bytes = 32;
  TaskPool pool(rt, reg, pc);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](Worker& w) {
      if (w.pe() == 0) w.spawn(Task(fn, nullptr, 0));
    });
  });
  EXPECT_FALSE(pool.tracer().enabled());
}

}  // namespace
}  // namespace sws::core
