// Cross-layer metrics registry — the one interface every layer reports
// its counters through (docs/observability.md).
//
// A metric is registered once by name ("fabric.ops.put", "pool.steals_ok")
// and updated per PE: each PE writes its own slab. Reads (snapshot,
// exporters) are owner-biased and intended for quiescent points — between
// runs, at teardown, in tests.
//
// Three metric kinds, published through add()/set()/set_hist() from the
// counters each layer already keeps:
//  * counter   — monotone u64; merges by summation
//  * gauge     — last-written u64 (clock, switch count); merges by max
//  * histogram — LogHistogram of u64 samples; merges bucket-wise
//
// Snapshots decouple reporting from the live registry: take one per run,
// merge across runs/repetitions, read values through find().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace sws::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind k) noexcept;

/// Handle returned by registration; cheap to copy and pass around.
struct MetricId {
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t idx = kInvalid;
  bool valid() const noexcept { return idx != kInvalid; }
};

/// Point-in-time copy of every registered metric, detached from the
/// registry's per-PE slabs. The unit snapshots merge and export in.
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

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  explicit MetricsRegistry(int npes);

  /// Drop all values and resize for `npes` PEs; registrations survive.
  void reset(int npes);

  int npes() const noexcept { return npes_; }
  std::size_t size() const noexcept { return metrics_.size(); }

  // --- registration (not thread-safe; do it before the PEs run) ---------
  /// Registering an existing name with the same kind returns the prior
  /// id (idempotent); a kind mismatch is a programming error.
  MetricId counter(std::string name, std::string help = {});
  MetricId gauge(std::string name, std::string help = {});
  MetricId histogram(std::string name, std::string help = {});

  // --- per-PE updates (each PE may touch only its own slot) -------------
  void add(MetricId m, int pe, std::uint64_t delta = 1) noexcept;
  void set(MetricId m, int pe, std::uint64_t value) noexcept;
  /// Replace `pe`'s histogram wholesale — how a layer that already keeps
  /// its own LogHistogram publishes it (idempotent, like set()).
  void set_hist(MetricId m, int pe, const LogHistogram& h) noexcept;

  // --- reads ------------------------------------------------------------
  MetricsSnapshot snapshot() const;
  /// write_json on a fresh snapshot — convenience.
  void write_json(std::ostream& os) const;

 private:
  struct Meta {
    std::string name;
    std::string help;
    MetricKind kind;
    std::uint32_t slot;  ///< scalar index or histogram index, per kind
  };
  /// One PE's slab: its scalars and histograms, indexed by Meta::slot.
  struct PeSlab {
    std::vector<std::uint64_t> scalars;
    std::vector<LogHistogram> hists;
  };

  MetricId register_metric(std::string name, std::string help,
                           MetricKind kind);

  std::vector<Meta> metrics_;
  std::vector<PeSlab> slabs_;
  std::uint32_t nscalars_ = 0;
  std::uint32_t nhists_ = 0;
  int npes_ = 0;
};

}  // namespace sws::obs
