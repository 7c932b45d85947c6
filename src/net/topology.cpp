#include "net/topology.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace sws::net {

namespace {

constexpr long long kUnbounded = 0;

void check_spec(const std::vector<int>& levels) {
  if (levels.size() > static_cast<std::size_t>(kMaxTiers))
    throw std::invalid_argument("topology spec has more than " +
                                std::to_string(kMaxTiers) + " tiers");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const bool outermost = i + 1 == levels.size();
    if (levels[i] < 0 || (!outermost && levels[i] < 1) ||
        (outermost && levels[i] != kUnbounded && levels[i] < 1))
      throw std::invalid_argument(
          "topology level sizes must be positive (only the outermost may "
          "be '*')");
  }
}

}  // namespace

TopologySpec TopologySpec::parse(const std::string& s) {
  if (s.empty() || s == "flat") return flat();
  std::vector<int> outer_first;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t x = s.find('x', pos);
    const std::string tok =
        s.substr(pos, x == std::string::npos ? std::string::npos : x - pos);
    if (tok == "*") {
      if (!outer_first.empty())
        throw std::invalid_argument(
            "topology spec: '*' is only valid as the outermost level");
      outer_first.push_back(0);
    } else {
      std::size_t used = 0;
      int v = 0;
      try {
        v = std::stoi(tok, &used);
      } catch (const std::exception&) {
        throw std::invalid_argument("topology spec: bad level '" + tok + "'");
      }
      if (used != tok.size() || v < 1)
        throw std::invalid_argument("topology spec: bad level '" + tok + "'");
      outer_first.push_back(v);
    }
    if (x == std::string::npos) break;
    pos = x + 1;
  }
  TopologySpec spec;
  spec.levels.assign(outer_first.rbegin(), outer_first.rend());
  check_spec(spec.levels);
  return spec;
}

std::string TopologySpec::to_string() const {
  if (levels.empty()) return "flat";
  std::string out;
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    if (!out.empty()) out += 'x';
    out += *it == kUnbounded ? std::string("*") : std::to_string(*it);
  }
  return out;
}

long long TopologySpec::capacity() const noexcept {
  if (levels.empty()) return 0;
  long long c = 1;
  for (int l : levels) {
    if (l == kUnbounded) return 0;
    c *= l;
  }
  return c;
}

Topology::Topology(TopologySpec spec, int npes)
    : spec_(std::move(spec)), npes_(npes < 0 ? 0 : npes) {
  check_spec(spec_.levels);
  const long long cap = spec_.capacity();
  if (cap > 0 && npes_ > cap)
    throw std::invalid_argument("topology spec " + spec_.to_string() +
                                " holds " + std::to_string(cap) +
                                " PEs but the run has " +
                                std::to_string(npes_));
  block_[0] = 1;
  const int nt = ntiers();
  for (Tier t = 1; t <= nt; ++t) {
    const int level =
        spec_.levels.empty() ? kUnbounded
                             : spec_.levels[static_cast<std::size_t>(t - 1)];
    if (level == kUnbounded) {
      // Outermost (or flat): one group spanning every PE of the run.
      block_[t] = block_[t - 1] > npes_ ? block_[t - 1] : npes_;
      if (block_[t] < 1) block_[t] = 1;
    } else {
      block_[t] = block_[t - 1] * level;
    }
  }
}

Tier Topology::distance(int a, int b) const noexcept {
  if (a == b) return 0;
  const int nt = ntiers();
  for (Tier t = 1; t < nt; ++t)
    if (a / block_[t] == b / block_[t]) return t;
  return nt;
}

void Topology::group_range(int pe, Tier t, int& begin,
                           int& end) const noexcept {
  const long long b = (pe / block_[t]) * block_[t];
  long long e = b + block_[t];
  if (e > npes_) e = npes_;
  begin = static_cast<int>(b);
  end = static_cast<int>(e);
}

int Topology::peer_count(int pe, Tier t) const noexcept {
  SWS_ASSERT(t >= 1 && t <= ntiers());
  int ob, oe, ib, ie;
  group_range(pe, t, ob, oe);
  group_range(pe, t - 1, ib, ie);
  return (oe - ob) - (ie - ib);
}

int Topology::peer(int pe, Tier t, int k) const noexcept {
  SWS_ASSERT(t >= 1 && t <= ntiers());
  int ob, oe, ib, ie;
  group_range(pe, t, ob, oe);
  group_range(pe, t - 1, ib, ie);
  SWS_ASSERT(k >= 0 && k < (oe - ob) - (ie - ib));
  // Peers below the inner group come first (ascending order), the rest
  // continue after it.
  const int before = ib - ob;
  return k < before ? ob + k : ie + (k - before);
}

}  // namespace sws::net
