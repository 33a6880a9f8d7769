// Batched natural cubic-spline interpolation — application [8] of the
// paper's introduction (spline calculation, as in multi-dimensional EEMD):
// fitting M independent curves of N knots each produces M tridiagonal
// systems for the spline second derivatives, solved in one batched call.
//
// The example fits noisy samples of known smooth functions, checks the
// interpolation error at off-knot points, and compares the simulated GPU
// time against the modeled CPU baseline.
//
//   ./cubic_spline [--curves 512] [--knots 257]

#include <cmath>
#include <cstdio>
#include <vector>

#include "cpu_baselines/mkl_like.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"

using namespace tridsolve;

namespace {

/// The smooth test functions the splines must recover.
double curve_value(std::size_t curve, double x) {
  switch (curve % 3) {
    case 0: return std::sin(3.0 * x) * std::exp(-0.3 * x);
    case 1: return 1.0 / (1.0 + x * x);
    default: return std::cos(2.0 * x) + 0.25 * x;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"curves", "knots"});
  const std::size_t curves = static_cast<std::size_t>(cli.get_int("curves", 512));
  const std::size_t knots = static_cast<std::size_t>(cli.get_int("knots", 257));
  const double x0 = 0.0, x1 = 4.0;
  const double h = (x1 - x0) / static_cast<double>(knots - 1);

  // Sample the curves at the knots.
  std::vector<std::vector<double>> y(curves, std::vector<double>(knots));
  for (std::size_t cvi = 0; cvi < curves; ++cvi) {
    for (std::size_t i = 0; i < knots; ++i) {
      y[cvi][i] = curve_value(cvi, x0 + h * static_cast<double>(i));
    }
  }

  // Natural cubic spline: interior second derivatives s_i solve
  //   h/6 s_{i-1} + 2h/3 s_i + h/6 s_{i+1} = (y_{i+1}-2y_i+y_{i-1})/h,
  // i = 1..knots-2; s_0 = s_{knots-1} = 0. One system per curve.
  const std::size_t n = knots - 2;
  tridiag::SystemBatch<double> batch(curves, n,
                                     gpu::preferred_layout(curves, n));
  for (std::size_t cvi = 0; cvi < curves; ++cvi) {
    auto sys = batch.system(cvi);
    for (std::size_t i = 0; i < n; ++i) {
      sys.a[i] = i == 0 ? 0.0 : h / 6.0;
      sys.b[i] = 2.0 * h / 3.0;
      sys.c[i] = i + 1 == n ? 0.0 : h / 6.0;
      sys.d[i] = (y[cvi][i + 2] - 2.0 * y[cvi][i + 1] + y[cvi][i]) / h;
    }
  }

  const auto dev = gpusim::gtx480();
  auto cpu_batch = batch.clone();
  const auto report = gpu::hybrid_solve(dev, batch);
  cpu::solve_batch(cpu_batch);

  // Evaluate each spline halfway between knots and measure the error
  // against the true curve, plus GPU-vs-CPU solver agreement.
  double max_err = 0.0, max_disagree = 0.0;
  for (std::size_t cvi = 0; cvi < curves; ++cvi) {
    auto s_at = [&](std::size_t knot) {  // second derivative at a knot
      if (knot == 0 || knot == knots - 1) return 0.0;
      return batch.d()[batch.index(cvi, knot - 1)];
    };
    for (std::size_t i = 0; i + 1 < knots; ++i) {
      const double xm = x0 + h * (static_cast<double>(i) + 0.5);
      const double t = 0.5;  // midpoint in [x_i, x_i+1]
      const double a = 1.0 - t, b = t;
      const double value =
          a * y[cvi][i] + b * y[cvi][i + 1] +
          ((a * a * a - a) * s_at(i) + (b * b * b - b) * s_at(i + 1)) * h * h / 6.0;
      max_err = std::max(max_err, std::abs(value - curve_value(cvi, xm)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      max_disagree = std::max(
          max_disagree, std::abs(batch.d()[batch.index(cvi, i)] -
                                 cpu_batch.d()[cpu_batch.index(cvi, i)]));
    }
  }

  const cpu::CpuModel cpu_model;
  std::printf("%zu natural cubic splines of %zu knots each\n", curves, knots);
  std::printf("max interpolation error at midpoints : %.3e (h^4 ~ %.1e)\n",
              max_err, h * h * h * h);
  std::printf("GPU(sim) vs CPU solver disagreement  : %.3e\n", max_disagree);
  std::printf("hybrid: k=%u, %.1f us simulated; modeled MT CPU %.1f us "
              "(%.1fx)\n",
              report.k, report.total_us(),
              cpu_model.multithreaded_us(curves, n, true),
              cpu_model.multithreaded_us(curves, n, true) / report.total_us());
  return max_disagree < 1e-10 ? 0 : 2;
}
