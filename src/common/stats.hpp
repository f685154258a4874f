// Lightweight online statistics used by the simulator and the bench harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace unsync {

/// Welford online mean / variance accumulator.
class RunningStat {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

  /// Raw Welford m2 term — exposed (with restore()) so checkpoint/restore
  /// reproduces the accumulator bit-exactly; derived stats would not.
  double m2() const { return m2_; }

  /// Restores the exact internal state captured by the accessors above.
  void restore(std::uint64_t n, double mean, double m2, double min,
               double max, double sum) {
    n_ = n;
    mean_ = mean;
    m2_ = m2;
    min_ = min;
    max_ = max;
    sum_ = sum;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-width bucket histogram over [lo, hi); out-of-range samples are
/// clamped into the first / last bucket so totals always balance.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::size_t buckets() const { return counts_.size(); }
  double low() const { return lo_; }
  double high() const { return hi_; }
  double bucket_low(std::size_t i) const;

  /// Adds another histogram's counts bucket-by-bucket (parallel reduction).
  /// Throws std::invalid_argument if the shapes (lo/hi/bucket count) differ.
  void merge(const Histogram& other);

  /// Value below which `q` (in [0,1]) of the mass lies, interpolated
  /// linearly within the containing bucket.
  double quantile(double q) const;

  /// Replaces the bucket counts wholesale (checkpoint/restore; `counts`
  /// must match buckets()). total() becomes the sum of the counts.
  void restore_counts(const std::vector<std::uint64_t>& counts);

  std::string ascii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace unsync
