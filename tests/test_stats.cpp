#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace unsync {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, KnownMeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum of squared devs = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, CountsAndTotal) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucket(i), 1u);
}

TEST(Histogram, OutOfRangeClamped) {
  Histogram h(0.0, 10.0, 10);
  h.add(-100.0);
  h.add(1e9);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5, 7);
  EXPECT_EQ(h.bucket(1), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, QuantileMedian) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.0);
}

TEST(Histogram, QuantileEmpty) {
  Histogram h(5.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(Histogram, AsciiRendersAllBuckets) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  // One line per bucket.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
}

}  // namespace
}  // namespace unsync
