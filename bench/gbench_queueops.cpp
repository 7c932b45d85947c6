// Google-benchmark microbenchmarks for the host-side primitives: stealval
// packing, steal-half sequence math, SHA-1 / UTS child derivation, task
// serialization, and local queue operations. These quantify the paper's
// claim that the compact representation "adds minimal processing to queue
// metadata upkeep".
#include <benchmark/benchmark.h>

#include <vector>

#include "core/queue_buffer.hpp"
#include "core/sdc_queue.hpp"
#include "core/stealval.hpp"
#include "core/sws_queue.hpp"
#include "net/fabric.hpp"
#include "net/time_model.hpp"
#include "sha1/sha1.hpp"
#include "sha1/sha1_kernels.hpp"

namespace {

using namespace sws;

/// The compression kernel uts_child_digest(s) runs on this host.
const char* sha1_kernel_label() {
#if defined(SWS_SHA1_HAVE_SHANI)
  if (sha1_kernels::shani_supported()) return "sha-ni";
#endif
  return "scalar";
}

void BM_StealvalEncodeDecode(benchmark::State& state) {
  std::uint64_t x = 12345;
  for (auto _ : state) {
    const core::StealVal sv{static_cast<std::uint32_t>(x & 0xffff), 1,
                            static_cast<std::uint32_t>(x & 0x7ffff),
                            static_cast<std::uint32_t>(x & 0x7ffff)};
    const std::uint64_t w = sv.encode();
    benchmark::DoNotOptimize(core::StealVal::decode(w));
    x = x * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_StealvalEncodeDecode);

void BM_StealBlockMath(benchmark::State& state) {
  const auto itasks = static_cast<std::uint32_t>(state.range(0));
  std::uint32_t idx = 0;
  const std::uint32_t n = core::steal_block_count(itasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::steal_block(itasks, idx));
    idx = (idx + 1) % (n + 1);
  }
}
BENCHMARK(BM_StealBlockMath)->Arg(150)->Arg(8192)->Arg(262144);

void BM_Sha1UtsChild(benchmark::State& state) {
  Sha1Digest d = Sha1::hash("bench", 5);
  std::uint32_t i = 0;
  for (auto _ : state) {
    d = uts_child_digest(d, i++);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(sha1_kernel_label());
}
BENCHMARK(BM_Sha1UtsChild);

/// All children of one node in one call; per_child is the cost of each.
void BM_Sha1UtsChildren(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Sha1Digest> out(n);
  Sha1Digest d = Sha1::hash("bench", 5);
  for (auto _ : state) {
    uts_child_digests(d, 0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    d = out[n - 1];
  }
  state.counters["per_child"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  state.SetLabel(sha1_kernel_label());
}
BENCHMARK(BM_Sha1UtsChildren)->Arg(1)->Arg(4)->Arg(32);

void BM_TaskSerializeRoundTrip(benchmark::State& state) {
  const auto payload = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::byte> data(payload, std::byte{7});
  const core::Task t(1, data.data(), payload);
  std::byte slot[256];
  for (auto _ : state) {
    t.serialize(slot, sizeof(slot));
    benchmark::DoNotOptimize(core::Task::deserialize(slot, sizeof(slot)));
  }
}
BENCHMARK(BM_TaskSerializeRoundTrip)->Arg(16)->Arg(184);

template <typename QueueT>
void bench_local_ops(benchmark::State& state) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 1;  // no other PE to switch to: pure op cost
  rcfg.heap_bytes = 4 << 20;
  pgas::Runtime rt(rcfg);
  const core::QueueConfig qc{/*capacity=*/8192, /*slot_bytes=*/32};
  QueueT q(rt, qc);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    const core::Task t = core::Task::of(0, std::uint32_t{1});
    core::Task out;
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.push_local(ctx, t));
      benchmark::DoNotOptimize(q.pop_local(ctx, out));
    }
  });
}

void BM_SwsLocalPushPop(benchmark::State& state) {
  bench_local_ops<core::SwsQueue>(state);
}
BENCHMARK(BM_SwsLocalPushPop);

void BM_SdcLocalPushPop(benchmark::State& state) {
  bench_local_ops<core::SdcQueue>(state);
}
BENCHMARK(BM_SdcLocalPushPop);

template <typename QueueT>
void bench_release_acquire(benchmark::State& state) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 1;
  rcfg.net.local_overhead = 0;  // isolate the metadata bookkeeping
  rcfg.heap_bytes = 4 << 20;
  pgas::Runtime rt(rcfg);
  const core::QueueConfig qc{/*capacity=*/8192, /*slot_bytes=*/32};
  QueueT q(rt, qc);
  rt.run([&](pgas::PeContext& ctx) {
    q.reset_pe(ctx);
    const core::Task t = core::Task::of(0, std::uint32_t{1});
    core::Task out;
    for (auto _ : state) {
      // One full cycle: expose half, pull it back, drain.
      (void)q.push_local(ctx, t);
      (void)q.push_local(ctx, t);
      benchmark::DoNotOptimize(q.try_release(ctx));
      while (q.pop_local(ctx, out)) {}
      benchmark::DoNotOptimize(q.try_acquire(ctx));
      while (q.pop_local(ctx, out)) {}
      q.progress(ctx);
    }
  });
}

void BM_SwsReleaseAcquireCycle(benchmark::State& state) {
  bench_release_acquire<core::SwsQueue>(state);
}
BENCHMARK(BM_SwsReleaseAcquireCycle);

void BM_SdcReleaseAcquireCycle(benchmark::State& state) {
  bench_release_acquire<core::SdcQueue>(state);
}
BENCHMARK(BM_SdcReleaseAcquireCycle);

// --- simulator-engine hot paths (also covered end-to-end by
// --- bench/sim_engine.cpp; these isolate per-event cost) ----------------

/// Sequencer advance cost. range(0)==1: the staggered self-continue case
/// (runs the run-to-horizon fast path); range(0)==0: lockstep, every
/// advance is a pick + fiber switch between two PEs.
void BM_SequencerAdvance(benchmark::State& state) {
  const bool selfrun = state.range(0) == 1;
  net::VirtualTimeModel tm(2);
  bool stop = false;
  tm.run_pes(2, [&](int pe) {
    if (pe == 1) {
      // PE1 mirrors the measured PE0: parked far ahead for self-continue,
      // or advancing in lockstep so every event switches PEs.
      if (selfrun) {
        tm.advance(1, net::Nanos{1} << 40);
      } else {
        while (!stop) tm.advance(1, 100);
      }
      return;
    }
    for (auto _ : state) tm.advance(0, 100);
    stop = true;
    // Outrun the peer so it observes `stop` and finishes.
    tm.advance(0, net::Nanos{1} << 41);
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequencerAdvance)->Arg(1)->Arg(0)->ArgNames({"selfrun"});

/// Fabric nbi enqueue + delivery at steady state: amo (inline effect),
/// small put (inline payload), large put (pooled slab payload).
void BM_NbiEnqueueDeliver(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  net::VirtualTimeModel tm(1);
  net::Fabric fab(tm, net::NetworkModel{}, 1);
  std::vector<std::byte> arena(4096, std::byte{0});
  fab.register_arena(0, arena.data(), arena.size());
  std::vector<std::byte> src(payload > 0 ? payload : 1, std::byte{0x5a});
  tm.run_pes(1, [&](int) {
    std::uint64_t i = 0;
    for (auto _ : state) {
      if (payload == 0)
        fab.nbi_amo_add(0, 0, 64, 1);
      else
        fab.nbi_put(0, 0, 128, src.data(), payload);
      if ((++i & 63) == 0) fab.quiet(0);
    }
    fab.quiet(0);
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NbiEnqueueDeliver)
    ->Arg(0)
    ->Arg(32)
    ->Arg(256)
    ->ArgNames({"payload"});

}  // namespace

BENCHMARK_MAIN();
