#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sws {

void Summary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double Summary::rel_stddev_pct() const noexcept {
  return mean() != 0.0 ? 100.0 * stddev() / mean() : 0.0;
}

double Summary::rel_range_pct() const noexcept {
  return mean() != 0.0 ? 100.0 * range() / mean() : 0.0;
}

void LogHistogram::add(std::uint64_t x) noexcept {
  const auto b = static_cast<std::size_t>(x == 0 ? 0 : std::bit_width(x) - 1);
  ++buckets_[b];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  total_ += other.total_;
}

std::uint64_t LogHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets_[b];
    if (seen <= target) continue;
    // q=1.0 reports the top occupied bucket's inclusive upper bound, so
    // "max <= quantile(1.0)" actually holds — a lower estimate would
    // understate the max by up to 2x.
    const std::uint64_t lower = b == 0 ? 0 : std::uint64_t{1} << b;
    const std::uint64_t upper = b + 1 >= kBuckets
                                    ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << (b + 1)) - 1;
    if (q >= 1.0) return upper;
    // Interior quantiles interpolate within the bucket: the target rank
    // falls on the (rank+1)-th of `count` samples spread evenly across
    // [lower, upper], so p95/p99 no longer collapse to the bucket's lower
    // bound (which under-reported tails by up to 2x).
    const std::uint64_t rank = target - before;   // 0-based within bucket
    const std::uint64_t count = buckets_[b];
    const double frac =
        (static_cast<double>(rank) + 0.5) / static_cast<double>(count);
    return lower + static_cast<std::uint64_t>(
                       static_cast<double>(upper - lower) * frac);
  }
  return ~std::uint64_t{0};  // unreachable: seen reaches total_ > target
}

}  // namespace sws
