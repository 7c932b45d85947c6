#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hpp"

namespace sws {
namespace {

TEST(Summary, EmptyIsAllZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MatchesReferenceFormulae) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  Summary s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.range(), 7.0);
  // Sample variance with n-1 denominator: Σ(x−5)² = 32, 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, RelativeMetricsArePercentages) {
  Summary s;
  s.add(99);
  s.add(101);
  EXPECT_NEAR(s.rel_range_pct(), 2.0, 1e-12);
  EXPECT_NEAR(s.rel_stddev_pct(), 100.0 * std::sqrt(2.0) / 100.0, 1e-9);
}

TEST(LogHistogram, BucketsByPowerOfTwo) {
  LogHistogram h;
  h.add(0);
  h.add(1);  // [1,2) -> bucket 0
  h.add(2);  // bucket 1
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(LogHistogram, QuantileApproximatesOrder) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) h.add(8);     // bucket 3 = [8, 15]
  for (int i = 0; i < 10; ++i) h.add(4096);  // bucket 12 = [4096, 8191]
  // Interior quantiles interpolate within the bucket. q=0.5 hits rank 49
  // of the 90 samples in bucket 3: 8 + 7*(49.5/90) = 11. q=0.99 hits
  // rank 8 of the 10 in bucket 12: 4096 + 4095*(8.5/10) = 7576.
  EXPECT_EQ(h.quantile(0.5), 11u);
  EXPECT_EQ(h.quantile(0.99), 7576u);
}

TEST(LogHistogram, QuantileInteriorInterpolatesWithinBucket) {
  LogHistogram h;
  for (int i = 0; i < 4; ++i) h.add(9);  // bucket 3 = [8, 15]
  // Four samples spread evenly across [8, 15]: rank r maps to
  // 8 + 7*(r+0.5)/4. The old behaviour collapsed all interior quantiles
  // to the bucket's lower bound, under-reporting tails by up to 2x.
  EXPECT_EQ(h.quantile(0.0), 8u);     // rank 0 -> 8.875
  EXPECT_EQ(h.quantile(0.5), 10u);    // rank 1 -> 10.625
  EXPECT_EQ(h.quantile(0.999), 12u);  // rank 2 -> 12.375
}

TEST(LogHistogram, QuantileBucketEdgeBoundaries) {
  // Samples at the extreme representable values of one bucket: every
  // interior quantile must stay inside that bucket's [lower, upper] range.
  LogHistogram h;
  h.add(8);   // lowest value of bucket 3
  h.add(15);  // highest value of bucket 3
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, 8u) << "q=" << q;
    EXPECT_LE(v, 15u) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), 15u);
}

TEST(LogHistogram, QuantileIsMonotoneAcrossBucketEdge) {
  LogHistogram h;
  for (int i = 0; i < 7; ++i) h.add(7);  // bucket 2 = [4, 7]
  for (int i = 0; i < 5; ++i) h.add(8);  // bucket 3 = [8, 15]
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // The 7s and 8s straddle a bucket edge: low quantiles stay in [4, 7],
  // high ones land in [8, 15] — interpolation never crosses the edge.
  EXPECT_LE(h.quantile(0.25), 7u);
  EXPECT_GE(h.quantile(0.9), 8u);
}

TEST(LogHistogram, QuantileOneReportsInclusiveUpperBound) {
  LogHistogram h;
  for (int i = 0; i < 4; ++i) h.add(9);  // bucket 3 = [8, 16)
  // Every recorded sample is <= quantile(1.0); the lower bound (8) would
  // understate the max.
  EXPECT_EQ(h.quantile(1.0), 15u);

  LogHistogram zero;
  zero.add(0);  // bucket 0 = [0, 2)
  EXPECT_EQ(zero.quantile(0.5), 0u);
  EXPECT_EQ(zero.quantile(1.0), 1u);
}

TEST(LogHistogram, QuantileOneSaturatesInTopBucket) {
  LogHistogram h;
  h.add(~std::uint64_t{0});  // bucket 63 = [2^63, 2^64-1]
  // One sample interpolates to the bucket midpoint: 2^63 + (2^63-1)*0.5,
  // which rounds to 2^62 in double precision.
  EXPECT_EQ(h.quantile(0.5),
            (std::uint64_t{1} << 63) + (std::uint64_t{1} << 62));
  EXPECT_EQ(h.quantile(1.0), ~std::uint64_t{0});
}

TEST(LogHistogram, QuantileOnEmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a, b;
  a.add(5);
  b.add(5);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(2), 2u);
}

}  // namespace
}  // namespace sws
