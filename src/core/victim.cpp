#include "core/victim.hpp"

#include <stdexcept>
#include <vector>

#include "common/assert.hpp"

namespace sws::core {

const char* victim_policy_name(VictimPolicy p) noexcept {
  switch (p) {
    case VictimPolicy::kRandom: return "random";
    case VictimPolicy::kRoundRobin: return "round_robin";
    case VictimPolicy::kTiered: return "tiered";
    case VictimPolicy::kDistanceWeighted: return "distance_weighted";
  }
  return "?";
}

VictimPolicy parse_victim_policy(const std::string& name) {
  if (name == "random") return VictimPolicy::kRandom;
  if (name == "round_robin") return VictimPolicy::kRoundRobin;
  if (name == "tiered") return VictimPolicy::kTiered;
  if (name == "distance_weighted") return VictimPolicy::kDistanceWeighted;
  throw std::invalid_argument("unknown victim policy '" + name + "'");
}

namespace {

// Victim-stream seeding shared by every randomized policy. The (seed,
// self | 1<<32) stream is the historical kRandom stream; changing it
// would break flat-topology byte-identity (tests/test_determinism_ab).
Xoshiro256 victim_stream(int self, std::uint64_t seed) noexcept {
  return Xoshiro256(seed,
                    static_cast<std::uint64_t>(self) | (std::uint64_t{1} << 32));
}

class RandomSelector final : public VictimSelector {
 public:
  RandomSelector(int self, int npes, std::uint64_t seed) noexcept
      : self_(self), npes_(npes), rng_(victim_stream(self, seed)) {}

  int next() override {
    SWS_ASSERT(npes_ >= 2);
    const auto r =
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(npes_ - 1)));
    return r >= self_ ? r + 1 : r;
  }

 private:
  int self_;
  int npes_;
  Xoshiro256 rng_;
};

class RoundRobinSelector final : public VictimSelector {
 public:
  RoundRobinSelector(int self, int npes) noexcept
      : self_(self), npes_(npes), cursor_((self + 1) % npes) {}

  int next() override {
    SWS_ASSERT(npes_ >= 2);
    const int v = cursor_;
    cursor_ = (cursor_ + 1) % npes_;
    if (cursor_ == self_) cursor_ = (cursor_ + 1) % npes_;
    return v;
  }

 private:
  int self_;
  int npes_;
  int cursor_;
};

/// wstealer-style near-first stealing: stay at the closest populated
/// tier, widen one tier per kEscalateAfter consecutive failures, snap back
/// on success.
class TieredSelector final : public VictimSelector {
 public:
  TieredSelector(const net::Topology& topo, int self,
                 std::uint64_t seed) noexcept
      : topo_(topo), self_(self), rng_(victim_stream(self, seed)) {
    tier_ = nearest_tier();
  }

  int next() override {
    const int n = topo_.peer_count(self_, tier_);
    SWS_ASSERT(n >= 1);
    const auto k =
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(n)));
    return topo_.peer(self_, tier_, k);
  }

  void report(int victim, bool success) override {
    (void)victim;
    if (success) {
      fails_ = 0;
      tier_ = nearest_tier();
      return;
    }
    if (++fails_ < kEscalateAfter) return;
    fails_ = 0;
    for (net::Tier t = tier_ + 1; t <= topo_.ntiers(); ++t) {
      if (topo_.peer_count(self_, t) > 0) {
        tier_ = t;
        return;
      }
    }
    // Already at the widest populated tier: start over from the nearest.
    tier_ = nearest_tier();
  }

 private:
  net::Tier nearest_tier() const noexcept {
    for (net::Tier t = 1; t <= topo_.ntiers(); ++t)
      if (topo_.peer_count(self_, t) > 0) return t;
    SWS_ASSERT(false && "no stealable peer in topology");
    return 1;
  }

  /// Consecutive failed steals at the current tier before escalating.
  static constexpr int kEscalateAfter = 2;

  const net::Topology& topo_;
  int self_;
  net::Tier tier_ = 1;
  int fails_ = 0;
  Xoshiro256 rng_;
};

/// Distance-weighted sampling: tier t is picked with probability
/// proportional to bias(t) * peer_count(t), then a uniform peer inside
/// it. bias decays 4x per tier outward: 4^(ntiers - t).
class DistanceWeightedSelector final : public VictimSelector {
 public:
  DistanceWeightedSelector(const net::Topology& topo, int self,
                           std::uint64_t seed)
      : topo_(topo), self_(self), rng_(victim_stream(self, seed)) {
    const int nt = topo.ntiers();
    weights_.resize(static_cast<std::size_t>(nt));
    total_ = 0.0;
    for (net::Tier t = 1; t <= nt; ++t) {
      double bias = 1.0;
      for (net::Tier u = t; u < nt; ++u) bias *= 4.0;
      const double w = bias * topo.peer_count(self, t);
      weights_[static_cast<std::size_t>(t - 1)] = w;
      total_ += w;
    }
    SWS_CHECK(total_ > 0.0,
              "distance-weighted victim selection needs a stealable peer");
  }

  int next() override {
    double u = rng_.uniform() * total_;
    net::Tier t = 1;
    for (; t < topo_.ntiers(); ++t) {
      const double w = weights_[static_cast<std::size_t>(t - 1)];
      if (u < w) break;
      u -= w;
    }
    // Land on the outermost tier with weight if rounding pushed us past
    // the end.
    while (topo_.peer_count(self_, t) == 0) --t;
    const int n = topo_.peer_count(self_, t);
    const auto k =
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(n)));
    return topo_.peer(self_, t, k);
  }

 private:
  const net::Topology& topo_;
  int self_;
  std::vector<double> weights_;
  double total_ = 0.0;
  Xoshiro256 rng_;
};

}  // namespace

std::unique_ptr<VictimSelector> make_victim_selector(
    const VictimConfig& cfg, const net::Topology& topo, int self,
    std::uint64_t seed) {
  SWS_CHECK(topo.npes() >= 2, "victim selection needs at least two PEs");
  SWS_CHECK(self >= 0 && self < topo.npes(), "self PE out of range");
  switch (cfg.policy) {
    case VictimPolicy::kRandom:
      return std::make_unique<RandomSelector>(self, topo.npes(), seed);
    case VictimPolicy::kRoundRobin:
      return std::make_unique<RoundRobinSelector>(self, topo.npes());
    case VictimPolicy::kTiered:
      return std::make_unique<TieredSelector>(topo, self, seed);
    case VictimPolicy::kDistanceWeighted:
      return std::make_unique<DistanceWeightedSelector>(topo, self, seed);
  }
  SWS_UNREACHABLE();
}

}  // namespace sws::core
