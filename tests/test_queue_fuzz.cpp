// Randomized conservation fuzzing for both queue protocols.
//
// Owners randomly push/pop/release/acquire/progress; thieves randomly
// steal; every task carries a unique id. The invariant: each pushed id is
// consumed exactly once (by its owner's pop or some thief's loot) — no
// loss, no duplication — across thousands of randomized operations,
// including ring wrap-around and interleaved allotment resets.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/sdc_queue.hpp"
#include "core/sws_queue.hpp"

namespace sws::core {
namespace {

struct FuzzParams {
  QueueKind kind;
  int npes;
  std::uint32_t capacity;
  std::uint64_t seed;
  std::uint32_t bulk = 1;  ///< SWS bulk_claim_max (ignored by SDC)
};

class QueueFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(QueueFuzz, NothingLostNothingDuplicated) {
  const FuzzParams fp = GetParam();
  pgas::RuntimeConfig rcfg;
  rcfg.npes = fp.npes;
  rcfg.seed = fp.seed;
  rcfg.heap_bytes = 2 << 20;
  pgas::Runtime rt(rcfg);

  const QueueConfig qc{fp.capacity, /*slot_bytes=*/32};
  std::unique_ptr<TaskQueue> q;
  if (fp.kind == QueueKind::kSws) {
    SwsConfig scfg;
    scfg.bulk_claim_max = fp.bulk;
    q = std::make_unique<SwsQueue>(rt, qc, scfg);
  } else {
    q = std::make_unique<SdcQueue>(rt, qc);
  }

  // PEs are fibers on one thread, so plain shared tallies are race-free.
  std::set<std::uint64_t> consumed;  // ids seen exactly once
  std::uint64_t pushed = 0;
  std::uint64_t eaten = 0;
  bool duplicate = false;

  auto consume = [&](std::uint64_t id) {
    if (!consumed.insert(id).second) duplicate = true;
    ++eaten;
  };

  constexpr int kSteps = 2500;
  rt.run([&](pgas::PeContext& ctx) {
    q->reset_pe(ctx);
    ctx.barrier();
    Xoshiro256 rng(fp.seed ^ 0xf00d, static_cast<std::uint64_t>(ctx.pe()));
    std::uint64_t next_id = static_cast<std::uint64_t>(ctx.pe()) << 32;
    std::vector<Task> loot;
    Task t;
    for (int step = 0; step < kSteps; ++step) {
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2: {  // push a few
          const std::uint64_t n = 1 + rng.below(6);
          for (std::uint64_t i = 0; i < n; ++i) {
            if (q->push_local(ctx, Task::of(0, next_id))) {
              ++next_id;
              ++pushed;
            }
          }
          break;
        }
        case 3:
        case 4: {  // pop a few
          const std::uint64_t n = 1 + rng.below(4);
          for (std::uint64_t i = 0; i < n && q->pop_local(ctx, t); ++i)
            consume(t.payload_as<std::uint64_t>());
          break;
        }
        case 5:
          (void)q->try_release(ctx);
          break;
        case 6:
          (void)q->try_acquire(ctx);
          break;
        case 7:
          q->progress(ctx);
          break;
        default: {  // steal from a random other PE
          if (ctx.npes() < 2) break;
          int victim =
              static_cast<int>(rng.below(static_cast<std::uint64_t>(ctx.npes() - 1)));
          if (victim >= ctx.pe()) ++victim;
          loot.clear();
          if (q->steal(ctx, victim, loot).outcome == StealOutcome::kSuccess)
            for (const Task& s : loot) consume(s.payload_as<std::uint64_t>());
          break;
        }
      }
    }
    // Drain: consume everything this PE still owns. Another PE may still
    // be stealing from us, so loop with progress until quiescent.
    ctx.barrier();
    ctx.quiet();
    ctx.barrier();
    for (;;) {
      q->progress(ctx);
      bool any = false;
      while (q->pop_local(ctx, t)) {
        consume(t.payload_as<std::uint64_t>());
        any = true;
      }
      if (q->try_acquire(ctx)) any = true;
      if (!any && !q->shared_available(ctx)) break;
    }
    ctx.barrier();
  });

  EXPECT_FALSE(duplicate) << "a task id was consumed twice";
  EXPECT_EQ(pushed, eaten) << "pushed and consumed totals must match";
  EXPECT_EQ(consumed.size(), pushed);
}

std::string fuzz_name(const ::testing::TestParamInfo<FuzzParams>& info) {
  const FuzzParams& p = info.param;
  std::string s = p.kind == QueueKind::kSdc ? "SDC" : "SWS";
  s += "_p" + std::to_string(p.npes) + "_c" + std::to_string(p.capacity) +
       "_s" + std::to_string(p.seed);
  s += "_virt";
  if (p.bulk > 1) s += "_b" + std::to_string(p.bulk);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueFuzz,
    ::testing::Values(
        FuzzParams{QueueKind::kSws, 2, 64, 1},
        FuzzParams{QueueKind::kSws, 4, 128, 2},
        FuzzParams{QueueKind::kSws, 4, 4096, 3},
        FuzzParams{QueueKind::kSws, 8, 256, 4},
        FuzzParams{QueueKind::kSdc, 2, 64, 1},
        FuzzParams{QueueKind::kSdc, 4, 128, 2},
        FuzzParams{QueueKind::kSdc, 4, 4096, 3},
        FuzzParams{QueueKind::kSdc, 8, 256, 4},
        FuzzParams{QueueKind::kSws, 4, 128, 5},
        FuzzParams{QueueKind::kSdc, 4, 128, 5},
        // SWS bulk claims: multi-block fetch-adds interleaved with the
        // same random release/acquire/epoch churn must stay conservative.
        FuzzParams{QueueKind::kSws, 2, 64, 6, 4},
        FuzzParams{QueueKind::kSws, 4, 128, 7, 4},
        FuzzParams{QueueKind::kSws, 4, 4096, 8, 8},
        FuzzParams{QueueKind::kSws, 8, 256, 9, 32},
        FuzzParams{QueueKind::kSws, 4, 128, 10, 4}),
    fuzz_name);

}  // namespace
}  // namespace sws::core
