// ADI (alternating-direction implicit) time stepping for the 2-D heat
// equation — the fluid-dynamics motivation of the paper's introduction
// ([2][4][5]): every half-step solves one batched tridiagonal system per
// grid line, which is exactly the (M systems) x (N unknowns) workload the
// hybrid solver targets.
//
//   u_t = alpha * (u_xx + u_yy)   on a grid of nx * ny interior points,
//   Dirichlet u = 0 boundaries, Peaceman-Rachford splitting:
//     (I - r Dxx) u*    = (I + r Dyy) u^t      (row-wise solves,   M = ny)
//     (I - r Dyy) u^t+1 = (I + r Dxx) u*       (column-wise solves, M = nx)
//
// The GPU side is apps::AdiIntegrator on the simulated GTX480 (each sweep
// solved in the layout its plan pairs with, transposes charged where a
// sweep re-lays the field). The CPU reference path uses the real batched
// gtsv and must agree to round-off. The example prints the max
// temperature decay (analytically monotone) and both solvers' agreement,
// plus the simulated-GPU vs modeled-CPU time per step, and exits 1 if
// the two fields disagree beyond round-off.
//
//   ./heat2d_adi [--nx 256] [--ny 128] [--steps 5]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "apps/adi.hpp"
#include "cpu_baselines/mkl_like.hpp"
#include "gpusim/device_spec.hpp"
#include "util/cli.hpp"

using namespace tridsolve;

namespace {

/// Fill one implicit-sweep batch of the CPU reference: M systems
/// (I - r D2) of size N, with the right-hand side given by the explicit
/// half (I + r D2) applied across the other direction.
void build_sweep(tridiag::SystemBatch<double>& batch,
                 const std::vector<double>& u, std::size_t nx, std::size_t ny,
                 double r, bool row_sweep) {
  const std::size_t m_count = row_sweep ? ny : nx;
  const std::size_t n = row_sweep ? nx : ny;
  auto at = [&](std::size_t ix, std::size_t iy) { return u[iy * nx + ix]; };

  for (std::size_t m = 0; m < m_count; ++m) {
    auto sys = batch.system(m);
    for (std::size_t i = 0; i < n; ++i) {
      sys.a[i] = i == 0 ? 0.0 : -r;
      sys.b[i] = 1.0 + 2.0 * r;
      sys.c[i] = i + 1 == n ? 0.0 : -r;
      // Explicit half across the other direction (0 Dirichlet boundary).
      const std::size_t ix = row_sweep ? i : m;
      const std::size_t iy = row_sweep ? m : i;
      const double u_c = at(ix, iy);
      double u_lo, u_hi;
      if (row_sweep) {
        u_lo = iy > 0 ? at(ix, iy - 1) : 0.0;
        u_hi = iy + 1 < ny ? at(ix, iy + 1) : 0.0;
      } else {
        u_lo = ix > 0 ? at(ix - 1, iy) : 0.0;
        u_hi = ix + 1 < nx ? at(ix + 1, iy) : 0.0;
      }
      sys.d[i] = u_c + r * (u_lo - 2.0 * u_c + u_hi);
    }
  }
}

void scatter_solution(const tridiag::SystemBatch<double>& batch,
                      std::vector<double>& u, std::size_t nx, bool row_sweep) {
  for (std::size_t m = 0; m < batch.num_systems(); ++m) {
    for (std::size_t i = 0; i < batch.system_size(); ++i) {
      const std::size_t ix = row_sweep ? i : m;
      const std::size_t iy = row_sweep ? m : i;
      u[iy * nx + ix] = batch.d()[batch.index(m, i)];
    }
  }
}

double max_abs(const std::vector<double>& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::abs(x));
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"nx", "ny", "steps"});
  const std::size_t nx = static_cast<std::size_t>(cli.get_int("nx", 256));
  const std::size_t ny = static_cast<std::size_t>(cli.get_int("ny", 128));
  const int steps = static_cast<int>(cli.get_int("steps", 5));
  const apps::AdiOptions opts;  // r = alpha * dt / h^2
  const double r = opts.r;

  // Initial condition: product of sines (smooth decay mode).
  std::vector<double> u_gpu(nx * ny), u_cpu(nx * ny);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double sx = std::sin(std::numbers::pi * double(ix + 1) / double(nx + 1));
      const double sy = std::sin(std::numbers::pi * double(iy + 1) / double(ny + 1));
      u_gpu[iy * nx + ix] = u_cpu[iy * nx + ix] = sx * sy;
    }
  }

  apps::AdiIntegrator<double> adi(gpusim::gtx480(), nx, ny, opts);
  const cpu::CpuModel cpu_model;
  double sim_gpu_us = 0.0;
  double model_cpu_us = 0.0;
  double worst_diff = 0.0;
  std::printf("2-D heat equation, %zux%zu grid, ADI, r=%.2f\n", nx, ny, r);
  std::printf("%5s  %12s  %12s  %14s\n", "step", "max|u| (GPU)", "max|u| (CPU)",
              "max difference");

  for (int step = 0; step < steps; ++step) {
    sim_gpu_us += adi.step(u_gpu).total_us();
    for (bool row_sweep : {true, false}) {
      const std::size_t m_count = row_sweep ? ny : nx;
      const std::size_t n = row_sweep ? nx : ny;
      tridiag::SystemBatch<double> cpu_batch(m_count, n,
                                             tridiag::Layout::contiguous);
      build_sweep(cpu_batch, u_cpu, nx, ny, r, row_sweep);
      cpu::solve_batch(cpu_batch);
      model_cpu_us += cpu_model.multithreaded_us(m_count, n, true);
      scatter_solution(cpu_batch, u_cpu, nx, row_sweep);
    }
    double diff = 0.0;
    for (std::size_t i = 0; i < u_gpu.size(); ++i) {
      diff = std::max(diff, std::abs(u_gpu[i] - u_cpu[i]));
    }
    worst_diff = std::max(worst_diff, diff);
    std::printf("%5d  %12.6f  %12.6f  %14.3e\n", step + 1, max_abs(u_gpu),
                max_abs(u_cpu), diff);
  }

  std::printf("\nsimulated GPU time %.1f us vs modeled multithreaded CPU "
              "%.1f us over %d ADI steps (%.1fx)\n",
              sim_gpu_us, model_cpu_us, steps, model_cpu_us / sim_gpu_us);
  if (worst_diff > 1e-10) {
    std::printf("FAIL: GPU and CPU fields differ by %.3e\n", worst_diff);
    return 1;
  }
  return 0;
}
