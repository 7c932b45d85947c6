// Schedule-exploration harness tests (src/check/).
//
// The acceptance bar for the harness: exhaustive 2-PE SWS exploration
// covers >= 1000 distinct schedules all green, random sampling replays
// byte-identically from its seed, and the find -> replay -> shrink loop
// provably catches a scenario that is broken on purpose.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/explorer.hpp"

namespace sws::check {
namespace {

TEST(Explorer, ExhaustiveSmokeSwsTwoPe) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kExhaustive;
  opts.max_schedules = 1500;
  Explorer ex(sws_steal_release_scenario(2), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
  EXPECT_GE(rep.schedules, 1000u) << rep.summary();
  EXPECT_GT(rep.branch_points, 0u);
}

TEST(Explorer, BulkStealScenarioGreen) {
  // The bulk-claim protocol (multi-block fetch-adds, AIMD claim sizes,
  // pressure releases) under exhaustive 2-PE interleaving: every schedule
  // must keep the queue audit green and surface each task exactly once.
  ExploreOptions opts;
  opts.mode = ExploreMode::kExhaustive;
  opts.max_schedules = 1500;
  Explorer ex(bulk_steal_scenario(2), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
  EXPECT_GE(rep.schedules, 500u) << rep.summary();
  EXPECT_GT(rep.branch_points, 0u);
}

TEST(Explorer, SdcScenarioGreen) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kExhaustive;
  opts.max_schedules = 400;
  Explorer ex(sdc_steal_release_scenario(2), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
  EXPECT_GT(rep.branch_points, 0u);
}

TEST(Explorer, RandomReplayIsByteIdentical) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.seed = 7;
  Explorer ex(sws_steal_release_scenario(2), opts);
  const RunOutcome a = ex.run_one_seeded(0xdeadbeefULL);
  const RunOutcome b = ex.run_one_seeded(0xdeadbeefULL);
  ASSERT_FALSE(a.taken.empty());
  EXPECT_EQ(a.taken, b.taken);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.violation, b.violation);
  // A different seed explores a different order (overwhelmingly likely
  // given dozens of binary choice points).
  const RunOutcome c = ex.run_one_seeded(0xfeedfaceULL);
  EXPECT_NE(a.taken, c.taken);
}

TEST(Explorer, RandomSamplingSwsGreen) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.max_schedules = 300;
  opts.seed = 11;
  Explorer ex(sws_steal_release_scenario(3), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
  EXPECT_EQ(rep.schedules, 300u);
}

TEST(Explorer, PruningCollapsesRevisitedStates) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kExhaustive;
  opts.max_schedules = 400;
  opts.prune_visited = true;
  Explorer ex(sws_steal_release_scenario(2), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
  EXPECT_GT(rep.pruned, 0u) << rep.summary();
}

TEST(Explorer, CounterTerminationSound) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.max_schedules = 150;
  opts.seed = 3;
  Explorer ex(counter_termination_scenario(2), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
}

TEST(Explorer, FindsReplaysAndShrinksLostUpdate) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kExhaustive;
  opts.max_schedules = 200;
  Explorer ex(lost_update_scenario(2), opts);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.failed) << rep.summary();
  EXPECT_NE(rep.violation.find("lost update"), std::string::npos)
      << rep.violation;

  // The minimal schedule still reproduces on replay and carries a labeled
  // event trace from the final recording pass: each line names the op the
  // chosen PE applies next (its last issued op), pinned byte for byte.
  const RunOutcome replay = ex.run_one_forced(rep.minimal.choices);
  EXPECT_FALSE(replay.violation.empty());
  EXPECT_EQ(rep.minimal.choices, (std::vector<std::uint8_t>{0, 0, 1, 1}));
  EXPECT_EQ(rep.minimal.events, (std::vector<std::string>{
                                    "+0ns pe0 amo_set ->pe1 off=0",
                                    "+0ns pe0 amo_fetch ->pe0 off=152",
                                    "+0ns pe1 amo_set ->pe0 off=0",
                                    "+0ns pe1 amo_fetch ->pe0 off=152",
                                    "+0ns pe0 amo_set ->pe0 off=152",
                                    "+0ns pe0 amo_set ->pe1 off=0",
                                }));
  // A recording replay renders the same lines; a plain one renders none.
  EXPECT_EQ(ex.run_one_forced(rep.minimal.choices, true).events,
            rep.minimal.events);
  EXPECT_TRUE(replay.events.empty());

  // Shrinking never adds non-default choices.
  const auto nondefault = [](const std::vector<std::uint8_t>& v) {
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [](std::uint8_t c) { return c != 0; }));
  };
  EXPECT_LE(nondefault(rep.minimal.choices),
            nondefault(rep.failing.choices));
}

// One planned crash exhaustively interleaved against live steal
// handshakes: PE 1 dies at explore-epoch + offset (ops cost 100 ns, so
// different offsets land the death at different handshake stages), the
// owner fences its open claims, and the ledger holds every task to the
// at-least-once multiplicity bound of 2. Any schedule that hangs would
// trip the explorer's bounded schedule budget / test timeout.
TEST(Explorer, CrashStealSwsMultiplicityBound) {
  for (const net::Nanos offset : {50, 250, 450}) {
    ExploreOptions opts;
    opts.mode = ExploreMode::kExhaustive;
    opts.max_schedules = 150;
    Explorer ex(crash_steal_scenario(core::QueueKind::kSws, offset), opts);
    const ExploreReport rep = ex.run();
    EXPECT_FALSE(rep.failed) << "offset=" << offset << "\n" << rep.summary();
    EXPECT_GT(rep.branch_points, 0u) << "offset=" << offset;
  }
}

TEST(Explorer, CrashStealSdcMultiplicityBound) {
  for (const net::Nanos offset : {50, 350, 650}) {
    ExploreOptions opts;
    opts.mode = ExploreMode::kExhaustive;
    opts.max_schedules = 150;
    Explorer ex(crash_steal_scenario(core::QueueKind::kSdc, offset), opts);
    const ExploreReport rep = ex.run();
    EXPECT_FALSE(rep.failed) << "offset=" << offset << "\n" << rep.summary();
    EXPECT_GT(rep.branch_points, 0u) << "offset=" << offset;
  }
}

TEST(Explorer, CrashStealRandomSampling) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.max_schedules = 100;
  opts.seed = 17;
  Explorer ex(crash_steal_scenario(core::QueueKind::kSws, 150), opts);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.failed) << rep.summary();
}

TEST(Explorer, SummaryMentionsViolation) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.max_schedules = 64;
  opts.seed = 1;
  Explorer ex(lost_update_scenario(2), opts);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.failing.seed, 0u);
  EXPECT_NE(rep.summary().find("VIOLATION"), std::string::npos);
}

}  // namespace
}  // namespace sws::check
