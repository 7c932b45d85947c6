// Google-benchmark microbenchmarks for the host-side primitives: stealval
// packing, steal-half sequence math, SHA-1 / UTS child derivation, the UTS
// branching rule, task serialization, and local queue operations. These
// quantify the paper's claim that the compact representation "adds minimal
// processing to queue metadata upkeep".
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/queue_buffer.hpp"
#include "core/sdc_queue.hpp"
#include "core/stealval.hpp"
#include "core/sws_queue.hpp"
#include "sha1/sha1.hpp"
#include "sha1/sha1_kernels.hpp"
#include "workloads/uts.hpp"

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

/// UtsBranching::num_children per node, over the first 2^16 nodes of a
/// depth-first walk of the repository benchmark's uts_p1 tree (geometric,
/// linear, b0 = 4, depth 18), so the counts and depths are a real mix.
void BM_UtsNumChildren(benchmark::State& state) {
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 18;
  p.root_seed = 19;
  const workloads::UtsBranching branching(p);
  std::vector<std::pair<Sha1Digest, std::uint32_t>> nodes, stack;
  stack.push_back({workloads::uts_root_digest(p), 0});
  while (!stack.empty() && nodes.size() < (1u << 16)) {
    const auto node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    const std::uint32_t k = branching.num_children(node.first, node.second);
    for (std::uint32_t i = 0; i < k; ++i)
      stack.push_back({uts_child_digest(node.first, i), node.second + 1});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        branching.num_children(nodes[i].first, nodes[i].second));
    if (++i == nodes.size()) i = 0;
  }
}
BENCHMARK(BM_UtsNumChildren);

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

}  // namespace

BENCHMARK_MAIN();
