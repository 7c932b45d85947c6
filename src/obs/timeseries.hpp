// Windowed time-series telemetry: fixed-interval samples of cumulative
// runtime state, recorded from the virtual sequencer's sampling hook
// (net::SampleHook) so observation never perturbs schedules.
//
// A TimeSeries is a column store: callers register named *sources* —
// closures returning a cumulative uint64 (a counter sum, a clock, an
// accounting bucket) — and every sample() appends one row reading all of
// them at the given boundary time. Exports emit each series as per-window
// deltas v[i] - v[i-1] (v[0] as sampled). Deltas are signed: a window may
// re-attribute a small amount between related series, e.g. a steal
// attempt that straddles a boundary and is re-classified from probing to
// stealing when it succeeds.
//
// Exports: a compact JSON document (schema "sws-timeseries", consumed by
// sws-analyze --timeseries=FILE) and Chrome-trace
// counter rows ("ph":"C") for injection into a merged trace, one Perfetto
// counter track per series.
//
// Not thread-safe by itself: sample() is designed to run under the
// sequencer's serialization (every PE fiber parked), where plain reads of
// per-PE state are race-free.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace sws::obs {

class TimeSeries {
 public:
  /// Cumulative-value reader, invoked once per sample. Must be pure
  /// observation: it runs while every PE fiber is parked.
  using Source = std::function<std::uint64_t()>;

  /// `interval_ns` is recorded in the export header (the sampler owns the
  /// actual cadence); `max_samples` bounds memory — samples past the cap
  /// are dropped and the export carries a `truncated` flag.
  explicit TimeSeries(std::uint64_t interval_ns,
                      std::size_t max_samples = std::size_t{1} << 16);

  /// Register a series before the first sample. Registration order is the
  /// export order.
  void add_series(std::string name, Source src);

  /// Extra key/value pairs for the JSON header ("protocol", "npes", ...).
  /// `raw_json` is emitted verbatim as the value — pass `"\"sws\""` for a
  /// string, `"64"` for a number.
  void add_meta(std::string key, std::string raw_json);

  /// Append one row at time `t_ns`, reading every source. Rows must be
  /// appended in increasing time order; a sample at or before the last
  /// recorded time is ignored (this makes end-of-run finalization
  /// idempotent). Past `max_samples` the row is dropped and the series is
  /// marked truncated.
  void sample(std::uint64_t t_ns);

  /// Drop all recorded rows (keep series + meta); used between benchmark
  /// repetitions the way Tracer::clear() is.
  void clear();

  bool empty() const noexcept { return times_.empty(); }
  std::size_t samples() const noexcept { return times_.size(); }
  bool truncated() const noexcept { return truncated_; }

  /// {"schema":"sws-timeseries","interval_ns":...,"t":[...],
  ///  "series":[{"name":...,"v":[...]}]}, values as signed per-window
  /// deltas.
  void write_json(std::ostream& os) const;

  /// Chrome-trace counter rows for every (series, sample) pair, each
  /// prefixed with ",\n" so the caller can append them inside an open
  /// trace-event array: {"name":<series>,"ph":"C","ts":<us>,"pid":0,
  /// "tid":0,"args":{"value":<v>}}. Values are the same deltas as
  /// write_json's.
  void write_chrome_counters(std::ostream& os) const;

 private:
  struct Series {
    std::string name;
    Source src;
    std::vector<std::uint64_t> vals;  ///< cumulative samples, one per row
  };

  std::uint64_t interval_ns_;
  std::size_t max_samples_;
  bool truncated_ = false;
  std::vector<std::uint64_t> times_;
  std::vector<Series> series_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace sws::obs
