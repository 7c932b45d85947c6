// Statistics accumulators used by the benchmark harness and runtime
// counters: streaming mean/variance (Welford), min/max/range, and a
// fixed-bucket log-scale histogram for latency distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sws {

/// Streaming summary statistics over doubles (Welford's algorithm, so a
/// single pass is numerically stable even for millions of samples).
class Summary {
 public:
  void add(double x) noexcept;

  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double range() const noexcept { return n_ ? max_ - min_ : 0.0; }
  double sum() const noexcept { return sum_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Relative standard deviation in percent (paper Fig 7d/8d).
  double rel_stddev_pct() const noexcept;
  /// Relative range (max-min)/mean in percent (paper Fig 7d/8d).
  double rel_range_pct() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Log2-bucketed histogram of non-negative integer samples (e.g. latency
/// in nanoseconds). Bucket b holds samples in [2^b, 2^(b+1)).
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(std::uint64_t x) noexcept;
  void merge(const LogHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t bucket(std::size_t b) const noexcept { return buckets_[b]; }
  /// Approximate quantile q in [0,1). Reports the lower bound of the
  /// bucket holding the q-th sample — an underestimate of the true
  /// quantile by at most 2x (one log2 bucket). q=1.0 is special: it
  /// reports the top occupied bucket's inclusive *upper* bound, i.e. a
  /// value every recorded sample is <= (saturating to UINT64_MAX in the
  /// last bucket).
  std::uint64_t quantile(double q) const noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace sws
