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

TopologySpec TopologySpec::two_level(int pes_per_node) {
  SWS_CHECK(pes_per_node > 0, "pes_per_node must be positive");
  // Unbounded node count: the classic pes_per_node shape never bounded
  // how many nodes a run may use.
  TopologySpec s;
  s.levels = {pes_per_node, 0};
  return s;
}

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

long long Topology::group_size(Tier t) const noexcept {
  SWS_ASSERT(t >= 0 && t <= ntiers());
  return block_[t];
}

int Topology::group_of(int pe, Tier t) const noexcept {
  SWS_ASSERT(t >= 0 && t <= ntiers());
  return static_cast<int>(pe / block_[t]);
}

int Topology::group_count(Tier t) const noexcept {
  SWS_ASSERT(t >= 0 && t <= ntiers());
  if (npes_ == 0) return 0;
  return static_cast<int>((npes_ + block_[t] - 1) / block_[t]);
}

void Topology::group_range(int pe, Tier t, int& begin,
                           int& end) const noexcept {
  const long long b = (pe / block_[t]) * block_[t];
  long long e = b + block_[t];
  if (e > npes_) e = npes_;
  begin = static_cast<int>(b);
  end = static_cast<int>(e);
}

std::vector<int> Topology::group_members(Tier t, int g) const {
  SWS_ASSERT(t >= 0 && t <= ntiers());
  const long long b = g * block_[t];
  long long e = b + block_[t];
  if (e > npes_) e = npes_;
  std::vector<int> out;
  for (long long pe = b; pe < e; ++pe) out.push_back(static_cast<int>(pe));
  return out;
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

std::vector<int> Topology::peers(int pe, Tier t) const {
  const int n = peer_count(pe, t);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) out.push_back(peer(pe, t, k));
  return out;
}

}  // namespace sws::net
