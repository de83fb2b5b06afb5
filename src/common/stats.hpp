// Streaming statistics, fixed-width histograms and ln(k!).
//
// Used by the perf module (load-imbalance analysis), by the index
// (postings-per-bin distributions feeding the load-prediction model) and by
// both scores (filtration ranking and hyperscore share log_factorial).
#pragma once

#include <math.h>

#include <cstdint>
#include <string>
#include <vector>

namespace lbe {

/// ln(k!) = lgamma(k + 1), via the reentrant lgamma_r: std::lgamma writes
/// the global `signgam`, a data race when query threads score
/// concurrently. Both compute the same value.
inline double log_factorial(double k) {
  int sign = 0;
  return ::lgamma_r(k + 1.0, &sign);
}

/// Welford streaming accumulator: mean/variance/min/max without storing
/// samples.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the edge
/// bins so totals always add up.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// Value below which `q` (0..1) of the mass lies (linear in-bin
  /// interpolation).
  double quantile(double q) const;

  /// Multi-line ASCII rendering for logs.
  std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace lbe
