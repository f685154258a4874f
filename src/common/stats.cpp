#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace unsync {

void RunningStat::add(double x) {
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

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), bucket_width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(hi > lo && buckets > 0);
}

void Histogram::add(double x, std::uint64_t weight) {
  auto idx = static_cast<std::int64_t>((x - lo_) / bucket_width_);
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bucket_low(std::size_t i) const {
  return lo_ + bucket_width_ * static_cast<double>(i);
}

void Histogram::restore_counts(const std::vector<std::uint64_t>& counts) {
  if (counts.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::restore_counts: shape mismatch");
  }
  counts_ = counts;
  total_ = 0;
  for (const std::uint64_t c : counts_) total_ += c;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (cum + c >= target && c > 0) {
      const double frac = (target - cum) / c;
      return bucket_low(i) + frac * bucket_width_;
    }
    cum += c;
  }
  return hi_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::ostringstream os;
  const std::uint64_t peak =
      *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak ? static_cast<std::size_t>(counts_[i] * width / peak) : 0;
    os << bucket_low(i) << "\t" << counts_[i] << "\t"
       << std::string(bar, '#') << "\n";
  }
  return os.str();
}

}  // namespace unsync
