#include "obs/timeseries.hpp"

#include <iomanip>
#include <ostream>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace sws::obs {

namespace {

// Chrome trace "ts" is microseconds; emit ns / 1000 with three decimals so
// distinct virtual nanoseconds stay distinct — the same format the tracer
// uses (src/core/trace.cpp), so injected counter rows sort consistently.
void json_ts_us(std::ostream& os, std::uint64_t t) {
  os << t / 1000 << "." << std::setw(3) << std::setfill('0') << t % 1000
     << std::setfill(' ');
}

// Per-window export value of a series at row `i`: the signed difference
// (re-attribution between related series can make a window locally
// negative).
std::int64_t export_value(const std::vector<std::uint64_t>& vals,
                          std::size_t i) {
  if (i == 0) return static_cast<std::int64_t>(vals[i]);
  return static_cast<std::int64_t>(vals[i] - vals[i - 1]);
}

}  // namespace

TimeSeries::TimeSeries(std::uint64_t interval_ns, std::size_t max_samples)
    : interval_ns_(interval_ns), max_samples_(max_samples) {}

void TimeSeries::add_series(std::string name, Source src) {
  SWS_CHECK(times_.empty(), "add_series after the first sample");
  SWS_CHECK(static_cast<bool>(src), "series source must be callable");
  Series s;
  s.name = std::move(name);
  s.src = std::move(src);
  series_.push_back(std::move(s));
}

void TimeSeries::add_meta(std::string key, std::string raw_json) {
  meta_.emplace_back(std::move(key), std::move(raw_json));
}

void TimeSeries::sample(std::uint64_t t_ns) {
  if (!times_.empty() && t_ns <= times_.back()) return;  // idempotent finalize
  if (times_.size() >= max_samples_) {
    truncated_ = true;
    return;
  }
  times_.push_back(t_ns);
  for (Series& s : series_) s.vals.push_back(s.src());
}

void TimeSeries::clear() {
  times_.clear();
  truncated_ = false;
  for (Series& s : series_) s.vals.clear();
}

void TimeSeries::write_json(std::ostream& os) const {
  os << "{\"schema\":\"sws-timeseries\",\"interval_ns\":" << interval_ns_
     << ",\"samples\":" << times_.size()
     << ",\"truncated\":" << (truncated_ ? 1 : 0);
  for (const auto& [key, raw] : meta_) {
    os << ",";
    json_string(os, key);
    os << ":" << raw;
  }
  os << ",\n\"t\":[";
  for (std::size_t i = 0; i < times_.size(); ++i)
    os << (i ? "," : "") << times_[i];
  os << "],\n\"series\":[";
  bool first = true;
  for (const Series& s : series_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    json_string(os, s.name);
    os << ",\"v\":[";
    for (std::size_t i = 0; i < s.vals.size(); ++i)
      os << (i ? "," : "") << export_value(s.vals, i);
    os << "]}";
  }
  os << "\n]}\n";
}

void TimeSeries::write_chrome_counters(std::ostream& os) const {
  for (const Series& s : series_) {
    for (std::size_t i = 0; i < times_.size(); ++i) {
      os << ",\n{\"name\":";
      json_string(os, s.name);
      os << ",\"ph\":\"C\",\"ts\":";
      json_ts_us(os, times_[i]);
      os << ",\"pid\":0,\"tid\":0,\"args\":{\"value\":"
         << export_value(s.vals, i) << "}}";
    }
  }
}

}  // namespace sws::obs
