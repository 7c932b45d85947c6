#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

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

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

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

MetricsRegistry::MetricsRegistry(int npes) { reset(npes); }

void MetricsRegistry::reset(int npes) {
  SWS_CHECK(npes >= 0, "npes must be non-negative");
  npes_ = npes;
  slabs_.clear();
  slabs_.resize(static_cast<std::size_t>(npes));
  for (auto& s : slabs_) {
    s.scalars.assign(nscalars_, 0);
    s.hists.assign(nhists_, LogHistogram{});
  }
}

MetricId MetricsRegistry::register_metric(std::string name, std::string help,
                                          MetricKind kind) {
  SWS_CHECK(!name.empty(), "metric name must be non-empty");
  for (std::uint32_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name != name) continue;
    SWS_CHECK(metrics_[i].kind == kind,
              "metric re-registered with a different kind");
    return MetricId{i};
  }
  Meta m;
  m.name = std::move(name);
  m.help = std::move(help);
  m.kind = kind;
  if (kind == MetricKind::kHistogram) {
    m.slot = nhists_++;
    for (auto& s : slabs_) s.hists.emplace_back();
  } else {
    m.slot = nscalars_++;
    for (auto& s : slabs_) s.scalars.push_back(0);
  }
  metrics_.push_back(std::move(m));
  return MetricId{static_cast<std::uint32_t>(metrics_.size() - 1)};
}

MetricId MetricsRegistry::counter(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help),
                         MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help),
                         MetricKind::kHistogram);
}

void MetricsRegistry::add(MetricId m, int pe, std::uint64_t delta) noexcept {
  if (!m.valid()) return;
  const Meta& meta = metrics_[m.idx];
  slabs_[static_cast<std::size_t>(pe)].scalars[meta.slot] += delta;
}

void MetricsRegistry::set(MetricId m, int pe, std::uint64_t value) noexcept {
  if (!m.valid()) return;
  const Meta& meta = metrics_[m.idx];
  slabs_[static_cast<std::size_t>(pe)].scalars[meta.slot] = value;
}

void MetricsRegistry::set_hist(MetricId m, int pe,
                               const LogHistogram& h) noexcept {
  if (!m.valid()) return;
  const Meta& meta = metrics_[m.idx];
  slabs_[static_cast<std::size_t>(pe)].hists[meta.slot] = h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.npes = npes_;
  out.entries.reserve(metrics_.size());
  for (const Meta& m : metrics_) {
    MetricsSnapshot::Entry e;
    e.name = m.name;
    e.help = m.help;
    e.kind = m.kind;
    if (m.kind == MetricKind::kHistogram) {
      for (const PeSlab& s : slabs_) e.hist.merge(s.hists[m.slot]);
    } else {
      e.per_pe.reserve(slabs_.size());
      for (const PeSlab& s : slabs_) e.per_pe.push_back(s.scalars[m.slot]);
    }
    out.entries.push_back(std::move(e));
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  snapshot().write_json(os);
}

}  // namespace sws::obs
