// Cross-layer metrics registry — the one interface every layer reports
// its counters through (docs/observability.md).
//
// Each layer keeps its own per-PE records while a run executes and
// publishes them once, after the run: one whole per-PE vector per counter
// or gauge ("fabric.ops.put", "pool.steals_ok"), or one histogram already
// merged across PEs. The registry stores exactly what was published, in
// the order names were first published.
//
// Three metric kinds:
//  * counter   — monotone u64; merges by summation
//  * gauge     — last-written u64 (clock, switch count); merges by max
//  * histogram — LogHistogram of u64 samples; merges bucket-wise
//
// Snapshots decouple reporting from the registry: take one per run,
// merge across runs/repetitions, read values through find().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace sws::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind k) noexcept;

/// Point-in-time copy of every published metric. The unit snapshots
/// merge and export in.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::uint64_t> per_pe;  ///< scalar kinds; empty for histograms
    LogHistogram hist;                  ///< merged across PEs (histograms)
    std::uint64_t total() const noexcept;
  };
  std::vector<Entry> entries;
  int npes = 0;

  const Entry* find(const std::string& name) const noexcept;

  /// Accumulate another run's snapshot into this one: counters and
  /// histograms add, gauges take the maximum. Entries are matched by
  /// name; entries only present in `o` are appended.
  void merge(const MetricsSnapshot& o);

  /// {"schema":"sws-metrics", ...} — the format of the CI metrics
  /// artifacts (bench_common --metrics-out).
  void write_json(std::ostream& os) const;
};

/// The published metrics of one runtime, held as one ordered snapshot. A
/// name's first publication fixes its position and help text; publishing
/// it again overwrites its values in place. Publishing a name under a
/// second kind, or a per-PE vector whose length is not npes(), is a
/// programming error (SWS_CHECK).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int npes);

  int npes() const noexcept { return published_.npes; }
  std::size_t size() const noexcept { return published_.entries.size(); }

  /// Publish one value per PE.
  void counter(const std::string& name, const std::string& help,
               std::vector<std::uint64_t> per_pe);
  void gauge(const std::string& name, const std::string& help,
             std::vector<std::uint64_t> per_pe);
  /// Publish one histogram, already merged across PEs.
  void histogram(const std::string& name, const std::string& help,
                 const LogHistogram& merged);

  MetricsSnapshot snapshot() const { return published_; }
  void write_json(std::ostream& os) const { published_.write_json(os); }

 private:
  void scalar(const std::string& name, const std::string& help,
              MetricKind kind, std::vector<std::uint64_t> per_pe);
  /// The entry named `name`, appended with `help` on first publication.
  MetricsSnapshot::Entry& entry(const std::string& name,
                                const std::string& help, MetricKind kind);

  MetricsSnapshot published_;
};

/// `field` of each PE's record `record(pe)`, for PEs 0..npes-1: the
/// per-PE vector a layer publishes from the records it keeps. `field` is
/// a member pointer or any callable; the default takes the record itself.
template <class Record, class Field = std::identity>
std::vector<std::uint64_t> per_pe(int npes, Record&& record, Field field = {}) {
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(npes));
  for (int pe = 0; pe < npes; ++pe)
    v.push_back(static_cast<std::uint64_t>(std::invoke(field, record(pe))));
  return v;
}

/// Write `s` as a JSON string literal, escaping quotes and backslashes —
/// the string writer of every obs exporter.
void json_string(std::ostream& os, const std::string& s);

}  // namespace sws::obs
