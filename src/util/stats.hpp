#pragma once
// Small statistics helpers used by benches and accuracy reports.

#include <cstddef>
#include <span>

namespace tridsolve::util {

/// Summary of a sample of real values.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double median = 0.0;
};

/// Compute a Summary; copies the input to find the median.
Summary summarize(std::span<const double> values);

/// max_i |a[i] - b[i]|; spans must be the same length.
double max_abs_diff(std::span<const double> a, std::span<const double> b);
double max_abs_diff(std::span<const float> a, std::span<const float> b);

}  // namespace tridsolve::util
