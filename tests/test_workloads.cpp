// Benchmark workloads: BPC task arithmetic and bouncing, UTS determinism
// and parallel-vs-sequential agreement, synthetic seeding.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "workloads/bpc.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/uts.hpp"

namespace sws::workloads {
namespace {

pgas::RuntimeConfig rcfg(int npes) {
  pgas::RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 4 << 20;
  return c;
}

core::PoolConfig pcfg(core::QueueKind kind, std::uint32_t slot = 64) {
  core::PoolConfig c;
  c.kind = kind;
  c.queue.capacity = 8192;
  c.queue.slot_bytes = slot;
  return c;
}

// ------------------------------------------------------------------- BPC

TEST(Bpc, ExpectedTaskArithmetic) {
  BpcParams p;
  p.consumers_per_producer = 8192;
  p.depth = 300;
  // The paper's Table 2 count: 300 producers' consumers + producers + root.
  EXPECT_EQ(p.expected_tasks(), 300u * 8192 + 301);
  BpcParams small;
  small.consumers_per_producer = 4;
  small.depth = 3;
  EXPECT_EQ(small.expected_tasks(), 3u * 4 + 4);
}

TEST(Bpc, TotalComputeMatchesTaskMix) {
  BpcParams p;
  p.consumers_per_producer = 2;
  p.depth = 2;
  p.consumer_ns = 100;
  p.producer_ns = 10;
  EXPECT_EQ(p.total_compute_ns(), 4u * 100 + 3u * 10);
}

class BpcBoth : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(BpcBoth, ExecutesExactlyExpectedTasks) {
  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  BpcParams p;
  p.consumers_per_producer = 16;
  p.depth = 10;
  p.consumer_ns = 50'000;
  p.producer_ns = 10'000;
  BpcBenchmark bpc(reg, p);
  core::TaskPool pool(rt, reg, pcfg(GetParam(), 32));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, p.expected_tasks());
}

TEST_P(BpcBoth, ProducersBounceAcrossPes) {
  // The producer sits at the tail, so with idle thieves present the
  // producer chain should migrate: more than one PE must execute work.
  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  BpcParams p;
  p.consumers_per_producer = 32;
  p.depth = 8;
  p.consumer_ns = 200'000;
  p.producer_ns = 20'000;
  BpcBenchmark bpc(reg, p);
  core::TaskPool pool(rt, reg, pcfg(GetParam(), 32));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
  });
  int pes_with_work = 0;
  for (int pe = 0; pe < 4; ++pe)
    if (pool.worker_stats(pe).tasks_executed > 0) ++pes_with_work;
  EXPECT_GE(pes_with_work, 3) << "work must disperse";
  EXPECT_GT(pool.report().total.steals_ok, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothQueues, BpcBoth,
                         ::testing::Values(core::QueueKind::kSdc,
                                           core::QueueKind::kSws),
                         [](const auto& info) {
                           return info.param == core::QueueKind::kSdc ? "SDC"
                                                                      : "SWS";
                         });

// ------------------------------------------------------------------- UTS

TEST(Uts, SequentialCountIsDeterministic) {
  UtsParams p;
  p.b0 = 4;
  p.gen_mx = 8;
  const UtsTreeInfo a = uts_sequential_count(p);
  const UtsTreeInfo b = uts_sequential_count(p);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_GT(a.nodes, 1u);
  EXPECT_GT(a.leaves, 0u);
  EXPECT_LE(a.max_depth, p.gen_mx);
}

TEST(Uts, BenchmarkTreesKnownAnswer) {
  // The geometric trees the repository benchmark runs (linear shape,
  // b0 4, seed 19), pinned so a change to the SHA-1 kernel or the
  // branching rule cannot silently reshape them.
  struct Known {
    std::uint32_t depth;
    std::uint64_t nodes, leaves;
  };
  for (const Known k :
       {Known{15, 125'768, 67'330}, Known{18, 892'623, 472'007}}) {
    UtsParams p;
    p.shape = UtsParams::Shape::kGeometric;
    p.geo_shape = UtsParams::GeoShape::kLinear;
    p.b0 = 4;
    p.gen_mx = k.depth;
    p.root_seed = 19;
    const UtsTreeInfo info = uts_sequential_count(p);
    EXPECT_EQ(info.nodes, k.nodes) << "depth " << k.depth;
    EXPECT_EQ(info.leaves, k.leaves) << "depth " << k.depth;
    EXPECT_EQ(info.max_depth, k.depth);
  }
}

TEST(Uts, DifferentSeedsGiveDifferentTrees) {
  UtsParams a, b;
  a.gen_mx = b.gen_mx = 8;
  a.root_seed = 19;
  b.root_seed = 20;
  EXPECT_NE(uts_sequential_count(a).nodes, uts_sequential_count(b).nodes);
}

TEST(Uts, GeometricDepthCutoffHolds) {
  UtsParams p;
  p.gen_mx = 5;
  const Sha1Digest d = uts_root_digest(p);
  EXPECT_EQ(uts_num_children(d, p.gen_mx, p), 0u);
  EXPECT_EQ(uts_num_children(d, p.gen_mx + 3, p), 0u);
}

TEST(Uts, BinomialRootHasB0Children) {
  UtsParams p;
  p.shape = UtsParams::Shape::kBinomial;
  p.b0 = 7;
  EXPECT_EQ(uts_num_children(uts_root_digest(p), 0, p), 7u);
}

TEST(Uts, BinomialInteriorIsAllOrNothing) {
  UtsParams p;
  p.shape = UtsParams::Shape::kBinomial;
  p.bin_q = 0.3;
  p.bin_m = 5;
  int blocks = 0;
  const Sha1Digest root = uts_root_digest(p);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t k = uts_num_children(uts_child_digest(root, i), 1, p);
    ASSERT_TRUE(k == 0 || k == 5);
    if (k == 5) ++blocks;
  }
  EXPECT_NEAR(blocks, 600, 120);  // q = 0.3 of 2000
}

TEST(Uts, BinomialTreeTerminates) {
  UtsParams p;
  p.shape = UtsParams::Shape::kBinomial;
  p.b0 = 8;
  p.bin_q = 0.15;
  p.bin_m = 4;  // q·m = 0.6 < 1: finite a.s.
  const UtsTreeInfo info = uts_sequential_count(p);
  EXPECT_GT(info.nodes, 8u);
}

TEST(Uts, GeoShapesProduceDistinctTrees) {
  std::set<std::uint64_t> sizes;
  for (const auto shape :
       {UtsParams::GeoShape::kLinear, UtsParams::GeoShape::kExpDec,
        UtsParams::GeoShape::kCyclic, UtsParams::GeoShape::kFixed}) {
    UtsParams p;
    p.b0 = 3;
    p.gen_mx = 7;
    p.geo_shape = shape;
    const auto info = uts_sequential_count(p);
    EXPECT_GT(info.nodes, 1u);
    sizes.insert(info.nodes);
  }
  EXPECT_EQ(sizes.size(), 4u) << "shape functions must actually differ";
}

TEST(Uts, PerDepthBranchingTableMatchesDirectRule) {
  // The table the task body and the sequential count use must give the
  // direct formula's count for every shape, at every depth up to and past
  // the cutoff, on 1,000 digests per depth.
  for (const auto shape :
       {UtsParams::GeoShape::kLinear, UtsParams::GeoShape::kExpDec,
        UtsParams::GeoShape::kCyclic, UtsParams::GeoShape::kFixed}) {
    UtsParams p;
    p.b0 = 6;
    p.gen_mx = 16;
    p.max_children = 9;  // the cap binds on some draws
    p.geo_shape = shape;
    const UtsBranching table(p);
    Sha1Digest d = uts_root_digest(p);
    for (std::uint32_t depth = 0; depth <= p.gen_mx + 1; ++depth) {
      for (std::uint32_t i = 0; i < 1000; ++i) {
        d = uts_child_digest(d, i);
        ASSERT_EQ(table.num_children(d, depth), uts_num_children(d, depth, p))
            << "shape " << static_cast<int>(shape) << " depth " << depth;
      }
    }
  }
  UtsParams bin;
  bin.shape = UtsParams::Shape::kBinomial;
  bin.b0 = 7;
  bin.bin_q = 0.3;
  const UtsBranching table(bin);
  Sha1Digest d = uts_root_digest(bin);
  for (std::uint32_t depth = 0; depth < 4; ++depth) {
    for (std::uint32_t i = 0; i < 1000; ++i) {
      d = uts_child_digest(d, i);
      ASSERT_EQ(table.num_children(d, depth), uts_num_children(d, depth, bin));
    }
  }
}

TEST(UtsBranching, ThresholdsMatchTheLogRule) {
  // The per-depth threshold rows against the log rule, word by word: each
  // row boundary +-3 words (found by bisecting the rule), the ends of the
  // word range and 2,000 random words per depth. The sizes give rows that
  // fill (most words past the row, at b0 = 2000), stop short, or are cut
  // by a cap below the row's width (max_children = 5).
  constexpr std::uint64_t kWords = std::uint64_t{1} << 32;
  const auto word_digest = [](std::uint64_t r) {
    Sha1Digest d{};
    for (int b = 0; b < 4; ++b)
      d[b] = static_cast<std::uint8_t>(r >> (24 - 8 * b));
    return d;
  };
  // {gen_mx, max_children}: the cap cuts the rows of one depth range.
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {1, 4096}, {5, 4096}, {18, 4096}, {40, 4096}, {18, 5}};
  std::mt19937 rng(2024);
  for (const auto shape :
       {UtsParams::GeoShape::kLinear, UtsParams::GeoShape::kExpDec,
        UtsParams::GeoShape::kCyclic, UtsParams::GeoShape::kFixed}) {
    for (const std::uint32_t b0 : {1u, 2u, 4u, 8u, 100u, 2000u}) {
      for (const auto& [gen_mx, max_children] : sizes) {
        UtsParams p;
        p.geo_shape = shape;
        p.b0 = b0;
        p.gen_mx = gen_mx;
        p.max_children = max_children;
        const UtsBranching table(p);
        for (std::uint32_t depth = 0; depth <= gen_mx; ++depth) {
          const auto rule = [&](std::uint64_t r) {
            return uts_num_children(word_digest(r), depth, p);
          };
          std::vector<std::uint64_t> words = {0,          1,
                                              2,          3,
                                              kWords - 4, kWords - 3,
                                              kWords - 2, kWords - 1};
          // Boundaries for 1 .. 17 children: one past the row's width.
          for (std::uint32_t k = 1; k <= 17; ++k) {
            std::uint64_t lo = 0, hi = kWords;  // rule(0) = 0 < k
            while (hi - lo > 1) {
              const std::uint64_t mid = lo + (hi - lo) / 2;
              (rule(mid) >= k ? hi : lo) = mid;
            }
            if (hi == kWords) break;
            for (std::uint64_t r = hi < 3 ? 0 : hi - 3;
                 r <= hi + 3 && r < kWords; ++r)
              words.push_back(r);
          }
          for (int i = 0; i < 2000; ++i) words.push_back(rng());
          for (const std::uint64_t r : words)
            ASSERT_EQ(table.num_children(word_digest(r), depth), rule(r))
                << "shape " << static_cast<int>(shape) << " b0 " << b0
                << " gen_mx " << gen_mx << " max_children " << max_children
                << " depth " << depth << " word " << r;
        }
      }
    }
  }
}

TEST(Uts, ExpDecIsSmallerThanLinear) {
  // (1-f)^3 <= (1-f): expected branching never exceeds linear's.
  UtsParams lin, exp;
  lin.b0 = exp.b0 = 4;
  lin.gen_mx = exp.gen_mx = 8;
  exp.geo_shape = UtsParams::GeoShape::kExpDec;
  EXPECT_LT(uts_sequential_count(exp).nodes,
            uts_sequential_count(lin).nodes);
}

TEST(Uts, FixedIsLargerThanLinear) {
  UtsParams lin, fix;
  lin.b0 = fix.b0 = 3;
  lin.gen_mx = fix.gen_mx = 7;
  fix.geo_shape = UtsParams::GeoShape::kFixed;
  EXPECT_GT(uts_sequential_count(fix).nodes,
            uts_sequential_count(lin).nodes);
}

TEST(Uts, ShapedTreeParallelMatchesSequential) {
  UtsParams p;
  p.b0 = 4;
  p.gen_mx = 8;
  p.geo_shape = UtsParams::GeoShape::kCyclic;
  const auto truth = uts_sequential_count(p);
  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes);
}

class UtsBoth : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(UtsBoth, ParallelSearchMatchesSequentialCount) {
  UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 200;
  const UtsTreeInfo truth = uts_sequential_count(p);
  ASSERT_GT(truth.nodes, 100u) << "tree too small to be interesting";

  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes)
      << "parallel search must visit every node exactly once";
}

TEST_P(UtsBoth, BinomialParallelMatchesToo) {
  UtsParams p;
  p.shape = UtsParams::Shape::kBinomial;
  p.b0 = 16;
  p.bin_q = 0.2;
  p.bin_m = 4;
  p.root_seed = 7;
  const UtsTreeInfo truth = uts_sequential_count(p);

  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  UtsBenchmark uts(reg, p);
  core::TaskPool pool(rt, reg, pcfg(GetParam()));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, truth.nodes);
}

INSTANTIATE_TEST_SUITE_P(BothQueues, UtsBoth,
                         ::testing::Values(core::QueueKind::kSdc,
                                           core::QueueKind::kSws),
                         [](const auto& info) {
                           return info.param == core::QueueKind::kSdc ? "SDC"
                                                                      : "SWS";
                         });

// ------------------------------------------------------------- synthetic

TEST(SparseEndgame, OnlyBusyPesSeed) {
  pgas::Runtime rt(rcfg(4));
  core::TaskRegistry reg;
  SparseEndgameParams p;
  p.busy_pes = 1;
  p.tasks_per_busy = 12;
  p.task_ns = 50'000;
  SparseEndgame se(reg, p);
  core::TaskPool pool(rt, reg, pcfg(core::QueueKind::kSws, 32));
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { se.seed(w); });
  });
  EXPECT_EQ(pool.report().total.tasks_executed, 12u);
  EXPECT_EQ(pool.worker_stats(0).tasks_spawned, 12u);
  EXPECT_EQ(pool.worker_stats(3).tasks_spawned, 0u);
}

}  // namespace
}  // namespace sws::workloads
