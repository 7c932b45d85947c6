#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/assert.hpp"

namespace sws::obs {

const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// ----------------------------------------------------------------- snapshot

std::uint64_t MetricsSnapshot::Entry::total() const noexcept {
  if (kind == MetricKind::kHistogram) return hist.count();
  std::uint64_t t = 0;
  for (const std::uint64_t v : per_pe)
    t = kind == MetricKind::kGauge ? std::max(t, v) : t + v;
  return t;
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const noexcept {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

void MetricsSnapshot::merge(const MetricsSnapshot& o) {
  npes = std::max(npes, o.npes);
  for (const Entry& oe : o.entries) {
    Entry* mine = nullptr;
    for (Entry& e : entries)
      if (e.name == oe.name) {
        mine = &e;
        break;
      }
    if (mine == nullptr) {
      entries.push_back(oe);
      continue;
    }
    SWS_CHECK(mine->kind == oe.kind, "metric kind mismatch in merge");
    if (mine->per_pe.size() < oe.per_pe.size())
      mine->per_pe.resize(oe.per_pe.size(), 0);
    for (std::size_t pe = 0; pe < oe.per_pe.size(); ++pe) {
      if (mine->kind == MetricKind::kGauge)
        mine->per_pe[pe] = std::max(mine->per_pe[pe], oe.per_pe[pe]);
      else
        mine->per_pe[pe] += oe.per_pe[pe];
    }
    mine->hist.merge(oe.hist);
  }
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"schema\":\"sws-metrics\",\"npes\":" << npes << ",\"metrics\":[";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    json_string(os, e.name);
    os << ",\"kind\":\"" << metric_kind_name(e.kind) << '"';
    if (!e.help.empty()) {
      os << ",\"help\":";
      json_string(os, e.help);
    }
    if (e.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << e.hist.count()
         << ",\"p50\":" << e.hist.quantile(0.5)
         << ",\"p95\":" << e.hist.quantile(0.95)
         << ",\"p99\":" << e.hist.quantile(0.99)
         << ",\"max_le\":" << e.hist.quantile(1.0) << ",\"buckets\":[";
      bool bfirst = true;
      for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
        if (e.hist.bucket(b) == 0) continue;
        if (!bfirst) os << ",";
        bfirst = false;
        os << "[" << b << "," << e.hist.bucket(b) << "]";
      }
      os << "]";
    } else {
      os << ",\"total\":" << e.total() << ",\"per_pe\":[";
      for (std::size_t pe = 0; pe < e.per_pe.size(); ++pe)
        os << (pe ? "," : "") << e.per_pe[pe];
      os << "]";
    }
    os << "}";
  }
  os << "\n]}\n";
}

// ----------------------------------------------------------------- registry

MetricsRegistry::MetricsRegistry(int npes) {
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  published_.npes = npes;
}

MetricsSnapshot::Entry& MetricsRegistry::entry(const std::string& name,
                                               const std::string& help,
                                               MetricKind kind) {
  SWS_CHECK(!name.empty(), "metric name must be non-empty");
  for (MetricsSnapshot::Entry& e : published_.entries) {
    if (e.name != name) continue;
    SWS_CHECK(e.kind == kind, "metric re-published with a different kind");
    return e;
  }
  published_.entries.push_back({name, help, kind, {}, {}});
  return published_.entries.back();
}

void MetricsRegistry::scalar(const std::string& name, const std::string& help,
                             MetricKind kind,
                             std::vector<std::uint64_t> per_pe) {
  SWS_CHECK(per_pe.size() == static_cast<std::size_t>(npes()),
            "a published metric needs exactly one value per PE");
  entry(name, help, kind).per_pe = std::move(per_pe);
}

void MetricsRegistry::counter(const std::string& name, const std::string& help,
                              std::vector<std::uint64_t> per_pe) {
  scalar(name, help, MetricKind::kCounter, std::move(per_pe));
}

void MetricsRegistry::gauge(const std::string& name, const std::string& help,
                            std::vector<std::uint64_t> per_pe) {
  scalar(name, help, MetricKind::kGauge, std::move(per_pe));
}

void MetricsRegistry::histogram(const std::string& name,
                                const std::string& help,
                                const LogHistogram& merged) {
  entry(name, help, MetricKind::kHistogram).hist = merged;
}

}  // namespace sws::obs
