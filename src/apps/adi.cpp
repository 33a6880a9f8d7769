#include "apps/adi.hpp"

#include <stdexcept>
#include <string>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/transpose_kernel.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::apps {

template <typename T>
AdiIntegrator<T>::AdiIntegrator(gpusim::DeviceSpec dev, std::size_t nx,
                                std::size_t ny, AdiOptions opts)
    : dev_(std::move(dev)), nx_(nx), ny_(ny), opts_(opts), scratch_(nx * ny) {
  if (nx_ == 0 || ny_ == 0) {
    throw std::invalid_argument("AdiIntegrator: empty grid");
  }
}

template <typename T>
void AdiIntegrator<T>::sweep(bool x_sweep, std::span<T> field,
                             AdiStepReport& report) const {
  // Lines are the systems; the cross direction supplies the explicit half
  // (I + r D2) of the right-hand side, with zero Dirichlet boundaries.
  const std::size_t lines = x_sweep ? ny_ : nx_;
  const std::size_t len = x_sweep ? nx_ : ny_;
  const T r = static_cast<T>(opts_.r);
  tridiag::SystemBatch<T> batch(lines, len, tridiag::Layout::contiguous);
  for (std::size_t line = 0; line < lines; ++line) {
    auto sys = batch.system(line);
    for (std::size_t i = 0; i < len; ++i) {
      sys.a[i] = i == 0 ? T(0) : -r;
      sys.b[i] = T(1) + T(2) * r;
      sys.c[i] = i + 1 == len ? T(0) : -r;
      const T u_c = field[line * len + i];
      const T u_lo = line > 0 ? field[(line - 1) * len + i] : T(0);
      const T u_hi = line + 1 < lines ? field[(line + 1) * len + i] : T(0);
      sys.d[i] = u_c + r * (u_lo - T(2) * u_c + u_hi);
    }
  }

  const auto rep = gpu::hybrid_solve(dev_, batch);
  const std::string prefix = x_sweep ? "sweep-x:" : "sweep-y:";
  for (const auto& seg : rep.timeline.segments()) {
    report.timeline.add(prefix + seg.label, seg.stats);
  }
  for (std::size_t line = 0; line < lines; ++line) {
    for (std::size_t i = 0; i < len; ++i) {
      field[line * len + i] = batch.d()[batch.index(line, i)];
    }
  }
}

template <typename T>
AdiStepReport AdiIntegrator<T>::step(std::vector<T>& field) {
  if (field.size() != nx_ * ny_) {
    throw std::invalid_argument("AdiIntegrator::step: field size mismatch");
  }
  AdiStepReport report;
  // x sweep (one system per row), transpose so the y sweep's systems are
  // contiguous too, y sweep, transpose back.
  sweep(/*x_sweep=*/true, field, report);
  report.timeline.add("transpose:fwd",
                      gpu::transpose<T>(dev_, field.data(), scratch_.data(),
                                        ny_, nx_));
  sweep(/*x_sweep=*/false, std::span<T>(scratch_.data(), nx_ * ny_), report);
  report.timeline.add("transpose:back",
                      gpu::transpose<T>(dev_, scratch_.data(), field.data(),
                                        nx_, ny_));
  return report;
}

template class AdiIntegrator<float>;
template class AdiIntegrator<double>;

}  // namespace tridsolve::apps
