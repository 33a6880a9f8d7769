// Line relaxation for anisotropic elliptic problems — the multigrid
// application of the paper's introduction ([9] Prieto et al., [10]
// Göddeke & Strzodka use tridiagonal solvers as multigrid smoothers).
//
// Problem:  -(eps * u_xx + u_yy) = f  on the unit square, Dirichlet 0,
// with strong anisotropy eps << 1. Point-Jacobi stalls on such problems
// (error modes smooth in x but oscillatory in y barely damp), while
// *zebra y-line relaxation* — solving whole tridiagonal systems along the
// strongly-coupled direction, all even columns in one batch and all odd
// columns in the next — stays an excellent smoother. Each half-sweep is
// exactly the paper's batched workload: M = nx/2 systems of ny unknowns,
// solved here by the hybrid GPU solver.
//
//   ./anisotropic_smoother [--n 128] [--eps 0.01] [--sweeps 30]

#include <cmath>
#include <cstdio>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "util/cli.hpp"

using namespace tridsolve;

namespace {

struct Grid {
  std::size_t n;     // interior points per side
  double eps;        // anisotropy
  std::vector<double> u, f;

  [[nodiscard]] double& at(std::vector<double>& v, std::size_t ix,
                           std::size_t iy) const {
    return v[iy * n + ix];
  }
  [[nodiscard]] double val(const std::vector<double>& v, std::ptrdiff_t ix,
                           std::ptrdiff_t iy) const {
    if (ix < 0 || iy < 0 || ix >= static_cast<std::ptrdiff_t>(n) ||
        iy >= static_cast<std::ptrdiff_t>(n)) {
      return 0.0;  // Dirichlet boundary
    }
    return v[static_cast<std::size_t>(iy) * n + static_cast<std::size_t>(ix)];
  }

  /// Residual r = f - A u with A = -(eps Dxx + Dyy) (h^2-scaled stencil).
  [[nodiscard]] double residual_norm() const {
    double sq = 0.0;
    for (std::size_t iy = 0; iy < n; ++iy) {
      for (std::size_t ix = 0; ix < n; ++ix) {
        const auto x = static_cast<std::ptrdiff_t>(ix);
        const auto y = static_cast<std::ptrdiff_t>(iy);
        const double au =
            (2.0 * eps + 2.0) * val(u, x, y) -
            eps * (val(u, x - 1, y) + val(u, x + 1, y)) -
            (val(u, x, y - 1) + val(u, x, y + 1));
        const double r = f[iy * n + ix] - au;
        sq += r * r;
      }
    }
    return std::sqrt(sq);
  }
};

/// One point-Jacobi sweep (damped 0.8).
void jacobi_sweep(Grid& g) {
  std::vector<double> next = g.u;
  for (std::size_t iy = 0; iy < g.n; ++iy) {
    for (std::size_t ix = 0; ix < g.n; ++ix) {
      const auto x = static_cast<std::ptrdiff_t>(ix);
      const auto y = static_cast<std::ptrdiff_t>(iy);
      const double rhs = g.f[iy * g.n + ix] +
                         g.eps * (g.val(g.u, x - 1, y) + g.val(g.u, x + 1, y)) +
                         g.val(g.u, x, y - 1) + g.val(g.u, x, y + 1);
      const double unew = rhs / (2.0 * g.eps + 2.0);
      g.at(next, ix, iy) = 0.2 * g.val(g.u, x, y) + 0.8 * unew;
    }
  }
  g.u.swap(next);
}

/// One zebra y-line Gauss-Seidel sweep: two batched tridiagonal solves
/// (even columns, then odd columns) along the strongly coupled direction.
void zebra_line_sweep(Grid& g, const gpusim::DeviceSpec& dev,
                      double* sim_us_total) {
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<std::size_t> cols;
    for (std::size_t ix = static_cast<std::size_t>(parity); ix < g.n; ix += 2) {
      cols.push_back(ix);
    }
    tridiag::SystemBatch<double> batch(
        cols.size(), g.n, gpu::preferred_layout(cols.size(), g.n));
    for (std::size_t m = 0; m < cols.size(); ++m) {
      const auto ix = static_cast<std::ptrdiff_t>(cols[m]);
      auto sys = batch.system(m);
      for (std::size_t iy = 0; iy < g.n; ++iy) {
        sys.a[iy] = iy == 0 ? 0.0 : -1.0;
        sys.b[iy] = 2.0 * g.eps + 2.0;
        sys.c[iy] = iy + 1 == g.n ? 0.0 : -1.0;
        const auto y = static_cast<std::ptrdiff_t>(iy);
        sys.d[iy] = g.f[iy * g.n + cols[m]] +
                    g.eps * (g.val(g.u, ix - 1, y) + g.val(g.u, ix + 1, y));
      }
    }
    const auto rep = gpu::hybrid_solve(dev, batch);
    *sim_us_total += rep.total_us();
    for (std::size_t m = 0; m < cols.size(); ++m) {
      for (std::size_t iy = 0; iy < g.n; ++iy) {
        g.at(g.u, cols[m], iy) = batch.d()[batch.index(m, iy)];
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"n", "eps", "sweeps"});
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 128));
  const double eps = cli.get_double("eps", 0.01);
  const int sweeps = static_cast<int>(cli.get_int("sweeps", 30));
  const auto dev = gpusim::gtx480();

  auto make_grid = [&] {
    Grid g{n, eps, std::vector<double>(n * n, 0.0), std::vector<double>(n * n)};
    for (std::size_t iy = 0; iy < n; ++iy) {
      for (std::size_t ix = 0; ix < n; ++ix) {
        g.f[iy * n + ix] =
            std::sin(7.0 * static_cast<double>(ix + 1) / static_cast<double>(n)) *
            std::cos(5.0 * static_cast<double>(iy + 1) / static_cast<double>(n));
      }
    }
    return g;
  };

  Grid jac = make_grid();
  Grid line = make_grid();
  double sim_us = 0.0;

  const double r0 = jac.residual_norm();
  std::printf("-(%.3g u_xx + u_yy) = f, %zux%zu grid, initial residual %.3e\n",
              eps, n, n, r0);
  std::printf("%6s  %14s  %14s\n", "sweep", "point-Jacobi", "zebra y-line");
  for (int s = 1; s <= sweeps; ++s) {
    jacobi_sweep(jac);
    zebra_line_sweep(line, dev, &sim_us);
    if (s <= 5 || s % 10 == 0) {
      std::printf("%6d  %14.3e  %14.3e\n", s, jac.residual_norm(),
                  line.residual_norm());
    }
  }

  const double rho_jac = std::pow(jac.residual_norm() / r0, 1.0 / sweeps);
  const double rho_line = std::pow(line.residual_norm() / r0, 1.0 / sweeps);
  std::printf("\nper-sweep residual reduction: point-Jacobi %.3f vs "
              "zebra line %.3f\n",
              rho_jac, rho_line);
  std::printf("batched line solves: %.1f us simulated GPU time over %d "
              "sweeps (2 batches of M=%zu, N=%zu each)\n",
              sim_us, sweeps, n / 2, n);
  return rho_line < rho_jac ? 0 : 2;
}
