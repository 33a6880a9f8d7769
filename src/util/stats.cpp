#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace tridsolve::util {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;

  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);

  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = s.count > 1 ? std::sqrt(sq / static_cast<double>(s.count - 1)) : 0.0;

  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  return s;
}

namespace {

template <typename T>
double max_abs_diff_impl(std::span<const T> a, std::span<const T> b) {
  assert(a.size() == b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return worst;
}

}  // namespace

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  return max_abs_diff_impl(a, b);
}
double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  return max_abs_diff_impl(a, b);
}
}  // namespace tridsolve::util
