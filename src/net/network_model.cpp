#include "net/network_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace sws::net {

const char* op_kind_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::kPut: return "put";
    case OpKind::kGet: return "get";
    case OpKind::kAmoFetchAdd: return "amo_fetch_add";
    case OpKind::kAmoCompareSwap: return "amo_cswap";
    case OpKind::kAmoSwap: return "amo_swap";
    case OpKind::kAmoFetch: return "amo_fetch";
    case OpKind::kAmoSet: return "amo_set";
    case OpKind::kNbiAmoAdd: return "nbi_amo_add";
    case OpKind::kNbiAmoSet: return "nbi_amo_set";
    case OpKind::kCount_: break;
  }
  return "?";
}

namespace {

constexpr Nanos kNoLatency = ~Nanos{0};

Nanos scale_ns(Nanos v, double factor) noexcept {
  return static_cast<Nanos>(std::llround(static_cast<double>(v) * factor));
}

}  // namespace

LinkParams LinkParams::scaled(double factor) const noexcept {
  LinkParams s = *this;
  s.amo_latency = scale_ns(amo_latency, factor);
  s.get_latency = scale_ns(get_latency, factor);
  s.put_latency = scale_ns(put_latency, factor);
  s.nbi_delay = scale_ns(nbi_delay, factor);
  return s;
}

NetworkParams NetworkParams::tiered(TopologySpec spec) {
  // Per step inward: latency scale and bandwidth gain.
  constexpr double kStepScale = 0.15;
  constexpr double kStepBandwidth = 3.2;
  NetworkParams p;
  p.topology = std::move(spec);
  const int nt = p.topology.ntiers();
  p.links.assign(static_cast<std::size_t>(nt), LinkParams{});
  // Outermost keeps the defaults; each step inward gets faster.
  for (int t = nt - 1; t >= 1; --t) {
    const LinkParams& outer = p.links[static_cast<std::size_t>(t)];
    LinkParams inner = outer.scaled(kStepScale);
    inner.bandwidth = outer.bandwidth * kStepBandwidth;
    p.links[static_cast<std::size_t>(t - 1)] = inner;
  }
  return p;
}

NetworkParams NetworkParams::scaled(double factor) const {
  NetworkParams s = *this;
  for (LinkParams& l : s.links) l = l.scaled(factor);
  return s;
}

const LinkParams& NetworkParams::link(Tier t) const noexcept {
  SWS_ASSERT(t >= 1 && !links.empty());
  const std::size_t idx = static_cast<std::size_t>(t - 1);
  return links[idx < links.size() ? idx : links.size() - 1];
}

LinkParams& NetworkParams::link(Tier t) noexcept {
  SWS_ASSERT(t >= 1 && !links.empty());
  const std::size_t idx = static_cast<std::size_t>(t - 1);
  return links[idx < links.size() ? idx : links.size() - 1];
}

void NetworkParams::validate(int npes) const {
  SWS_CHECK(links.size() == static_cast<std::size_t>(topology.ntiers()),
            "NetworkParams: link table size must equal the topology's tier "
            "count (conflicting topology/link specs)");
  for (const LinkParams& l : links)
    SWS_CHECK(l.bandwidth > 0.0, "link bandwidth must be positive");
  SWS_CHECK(local_bandwidth > 0.0, "local bandwidth must be positive");
  // Binding the topology validates the spec shape and PE capacity
  // (throws std::invalid_argument on conflict).
  Topology probe(topology, npes);
  (void)probe;
}

NetworkModel::NetworkModel(NetworkParams p, int npes)
    : p_(std::move(p)), topo_(p_.topology, npes) {}

Nanos NetworkModel::cost(OpKind kind, std::size_t bytes,
                         Tier t) const noexcept {
  if (t <= 0) {
    // Local op: NIC loopback / plain memory; payload at memcpy speed.
    return p_.local_overhead +
           static_cast<Nanos>(static_cast<double>(bytes) / p_.local_bandwidth);
  }
  const LinkParams& l = p_.link(t);
  const auto payload =
      static_cast<Nanos>(static_cast<double>(bytes) / l.bandwidth);
  switch (kind) {
    case OpKind::kPut: return l.put_latency + payload;
    case OpKind::kGet: return l.get_latency + payload;
    case OpKind::kAmoFetchAdd:
    case OpKind::kAmoCompareSwap:
    case OpKind::kAmoSwap:
    case OpKind::kAmoFetch:
    case OpKind::kAmoSet:
      return l.amo_latency;
    case OpKind::kNbiAmoAdd:
    case OpKind::kNbiAmoSet:
      // Non-blocking ops only charge the initiator the issue overhead;
      // the transfer itself completes asynchronously (delivery_delay).
      return p_.nbi_issue_overhead;
    case OpKind::kCount_: break;
  }
  return 0;
}

Nanos NetworkModel::delivery_delay(std::size_t bytes, Tier t) const noexcept {
  // Self-targeted nbi ops still traverse the NIC round trip, so they pay
  // the outermost link's delay (matches the pre-tier model).
  const LinkParams& l =
      p_.link(t >= 1 ? t : static_cast<Tier>(p_.links.size()));
  return l.nbi_delay +
         static_cast<Nanos>(static_cast<double>(bytes) / l.bandwidth);
}

Nanos NetworkModel::min_remote_latency() const noexcept {
  Nanos m = kNoLatency;
  for (const LinkParams& l : p_.links)
    m = std::min({m, l.amo_latency, l.get_latency, l.put_latency,
                  l.nbi_delay});
  return m == kNoLatency ? 0 : m;
}

}  // namespace sws::net
