#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "core/victim.hpp"
#include "net/topology.hpp"

namespace sws::core {
namespace {

using net::Topology;
using net::TopologySpec;

std::unique_ptr<VictimSelector> make(VictimPolicy policy, const Topology& topo,
                                     int self, std::uint64_t seed) {
  return make_victim_selector(VictimConfig{policy}, topo, self, seed);
}

TEST(Victim, RandomNeverPicksSelf) {
  const Topology topo(5);
  for (int self = 0; self < 5; ++self) {
    auto v = make(VictimPolicy::kRandom, topo, self, 1);
    for (int i = 0; i < 2000; ++i) {
      const int pick = v->next();
      ASSERT_NE(pick, self);
      ASSERT_GE(pick, 0);
      ASSERT_LT(pick, 5);
    }
  }
}

TEST(Victim, RandomCoversAllOthersUniformly) {
  const Topology topo(6);
  auto v = make(VictimPolicy::kRandom, topo, 2, 7);
  std::map<int, int> counts;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) ++counts[v->next()];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [pe, n] : counts)
    EXPECT_NEAR(n, kN / 5, kN / 5 * 0.1) << "pe " << pe;
}

TEST(Victim, RandomIsDeterministicPerSeedAndSelf) {
  const Topology topo(8);
  auto a = make(VictimPolicy::kRandom, topo, 1, 3);
  auto b = make(VictimPolicy::kRandom, topo, 1, 3);
  auto c = make(VictimPolicy::kRandom, topo, 2, 3);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const int va = a->next();
    EXPECT_EQ(va, b->next());
    if (va != c->next()) differs = true;
  }
  EXPECT_TRUE(differs) << "different PEs should see different streams";
}

TEST(Victim, RoundRobinCyclesSkippingSelf) {
  const Topology topo(4);
  auto v = make(VictimPolicy::kRoundRobin, topo, 1, 0);
  // Starting after self: 2, 3, 0, 2, 3, 0 ...
  EXPECT_EQ(v->next(), 2);
  EXPECT_EQ(v->next(), 3);
  EXPECT_EQ(v->next(), 0);
  EXPECT_EQ(v->next(), 2);
  EXPECT_EQ(v->next(), 3);
  EXPECT_EQ(v->next(), 0);
}

TEST(Victim, RoundRobinTwoPes) {
  const Topology topo(2);
  auto v = make(VictimPolicy::kRoundRobin, topo, 0, 0);
  EXPECT_EQ(v->next(), 1);
  EXPECT_EQ(v->next(), 1);
}

TEST(Victim, TwoPeRandomAlwaysPicksTheOther) {
  const Topology topo(2);
  auto v = make(VictimPolicy::kRandom, topo, 1, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v->next(), 0);
}

// ------------------------------------------------------------- kTiered

TEST(Victim, TieredStaysOnNearestTierWhileSucceeding) {
  // 16 PEs in nodes of 4; self = 5 lives on node 1 = {4..7}. While
  // steals succeed the selector must never leave the node.
  const Topology topo(TopologySpec::parse("*x4"), 16);
  auto v = make(VictimPolicy::kTiered, topo, 5, 11);
  for (int i = 0; i < 500; ++i) {
    const int pick = v->next();
    ASSERT_GE(pick, 4);
    ASSERT_LT(pick, 8);
    ASSERT_NE(pick, 5);
    v->report(pick, true);
  }
}

TEST(Victim, TieredEscalatesAfterFailuresAndSnapsBack) {
  const Topology topo(TopologySpec::parse("*x4"), 16);
  auto v = make(VictimPolicy::kTiered, topo, 5, 11);
  // Two failures at tier 1 escalate to tier 2 (off-node victims only);
  // two more at the widest tier cycle back to the nearest.
  v->report(v->next(), false);
  v->report(v->next(), false);
  int off_node = v->next();
  ASSERT_TRUE(off_node < 4 || off_node >= 8) << "escalated pick on node";
  v->report(off_node, false);
  off_node = v->next();
  ASSERT_TRUE(off_node < 4 || off_node >= 8) << "escalated pick on node";
  v->report(off_node, false);
  const int wrapped = v->next();
  ASSERT_GE(wrapped, 4);
  ASSERT_LT(wrapped, 8);
  // A success (at any tier) snaps back to the nearest tier.
  v->report(wrapped, true);
  for (int i = 0; i < 100; ++i) {
    const int pick = v->next();
    ASSERT_GE(pick, 4);
    ASSERT_LT(pick, 8);
    v->report(pick, true);
  }
}

TEST(Victim, TieredAloneOnNodeStartsOffNode) {
  // 9 PEs in nodes of 4: PE 8 is alone on node 2, so its nearest
  // populated tier is already tier 2.
  const Topology topo(TopologySpec::parse("*x4"), 9);
  auto v = make(VictimPolicy::kTiered, topo, 8, 2);
  for (int i = 0; i < 200; ++i) {
    const int pick = v->next();
    ASSERT_GE(pick, 0);
    ASSERT_LT(pick, 8);
  }
}

TEST(Victim, TieredIsDeterministicPerSeed) {
  const Topology topo(TopologySpec::parse("2x2x4"), 16);
  auto a = make(VictimPolicy::kTiered, topo, 3, 9);
  auto b = make(VictimPolicy::kTiered, topo, 3, 9);
  for (int i = 0; i < 300; ++i) {
    const int va = a->next();
    const int vb = b->next();
    ASSERT_EQ(va, vb);
    const bool fail = i % 3 == 0;
    a->report(va, !fail);
    b->report(vb, !fail);
  }
}

// --------------------------------------------------- kDistanceWeighted

TEST(Victim, DistanceWeightedPrefersNearTiers) {
  // 16 PEs in nodes of 4, self = 5, default 4x-per-tier bias. Tier 1 has
  // 3 peers (weight 4 each), tier 2 has 12 (weight 1 each): expected
  // intra-node fraction = 12 / (12 + 12) = 0.5 — far above the 3/15 a
  // uniform pick would give.
  const Topology topo(TopologySpec::parse("*x4"), 16);
  auto v = make(VictimPolicy::kDistanceWeighted, topo, 5, 11);
  int local = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const int pick = v->next();
    ASSERT_NE(pick, 5);
    ASSERT_GE(pick, 0);
    ASSERT_LT(pick, 16);
    if (pick >= 4 && pick < 8) ++local;
  }
  EXPECT_NEAR(static_cast<double>(local) / kN, 0.5, 0.03);
}

TEST(Victim, DistanceWeightedDefaultBiasIsFourToOne) {
  // Fixed 4:1 per-peer bias on a 12-PE two-level fabric, self = 0:
  // tier 1 weight = 3*4 = 12, tier 2 weight = 8*1 = 8; intra fraction
  // 12/20 = 0.6.
  const Topology topo(TopologySpec::parse("*x4"), 12);
  auto v = make(VictimPolicy::kDistanceWeighted, topo, 0, 3);
  int local = 0;
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i)
    if (v->next() < 4) ++local;
  EXPECT_NEAR(static_cast<double>(local) / kN, 12.0 / 20.0, 0.02);
}

TEST(Victim, DistanceWeightedCoversEveryPeer) {
  const Topology topo(TopologySpec::parse("*x4"), 12);
  auto v = make(VictimPolicy::kDistanceWeighted, topo, 0, 3);
  std::set<int> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(v->next());
  EXPECT_EQ(seen.size(), 11u) << "every other PE must be reachable";
}

TEST(Victim, DistanceWeightedThreeTierFrequencies) {
  // "2x2x4": 16 PEs, nodes of 4, racks of 2 nodes. Self = 0. Peers per
  // tier: 3 / 4 / 8; default bias per peer: 16 / 4 / 1. Weights:
  // 48 / 16 / 8 → expected fractions 2/3, 2/9, 1/9.
  const Topology topo(TopologySpec::parse("2x2x4"), 16);
  auto v = make(VictimPolicy::kDistanceWeighted, topo, 0, 21);
  std::array<int, 3> by_tier{};
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    const net::Tier t = topo.distance(0, v->next());
    ASSERT_GE(t, 1);
    ASSERT_LE(t, 3);
    ++by_tier[static_cast<std::size_t>(t - 1)];
  }
  EXPECT_NEAR(by_tier[0] / double(kN), 2.0 / 3.0, 0.02);
  EXPECT_NEAR(by_tier[1] / double(kN), 2.0 / 9.0, 0.02);
  EXPECT_NEAR(by_tier[2] / double(kN), 1.0 / 9.0, 0.02);
}

TEST(Victim, DistanceWeightedIsDeterministicPerSeed) {
  const Topology topo(TopologySpec::parse("2x2x4"), 16);
  auto a = make(VictimPolicy::kDistanceWeighted, topo, 7, 13);
  auto b = make(VictimPolicy::kDistanceWeighted, topo, 7, 13);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(a->next(), b->next());
}

TEST(Victim, DistanceWeightedOnFlatIsUniform) {
  const Topology topo(6);
  auto v = make(VictimPolicy::kDistanceWeighted, topo, 2, 7);
  std::map<int, int> counts;
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) ++counts[v->next()];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [pe, n] : counts) EXPECT_NEAR(n, 6000, 900) << pe;
}

TEST(Victim, PolicyNamesRoundTrip) {
  for (const auto p :
       {VictimPolicy::kRandom, VictimPolicy::kRoundRobin,
        VictimPolicy::kTiered, VictimPolicy::kDistanceWeighted})
    EXPECT_EQ(parse_victim_policy(victim_policy_name(p)), p);
  EXPECT_THROW(parse_victim_policy("hierarchical"), std::invalid_argument);
}

}  // namespace
}  // namespace sws::core
