#include "apps/adi.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpu_solvers/transpose_kernel.hpp"

namespace tridsolve::apps {

template <typename T>
AdiIntegrator<T>::AdiIntegrator(gpusim::DeviceSpec dev, std::size_t nx,
                                std::size_t ny, AdiOptions opts)
    : dev_(std::move(dev)), nx_(nx), ny_(ny), opts_(opts) {
  if (nx_ == 0 || ny_ == 0) {
    throw std::invalid_argument("AdiIntegrator: empty grid");
  }
}

template <typename T>
void AdiIntegrator<T>::sweep(bool x_sweep, std::span<T> u,
                             tridiag::Layout layout,
                             const gpu::SolvePlan& plan,
                             AdiStepReport& report) const {
  // Lines are the systems; the cross direction supplies the explicit half
  // (I + r D2) of the right-hand side, with zero Dirichlet boundaries.
  // u and the batch share the layout, so a point's batch index is also
  // its position in u; the loops visit the points in that order.
  const std::size_t lines = x_sweep ? ny_ : nx_;
  const std::size_t len = x_sweep ? nx_ : ny_;
  const T r = static_cast<T>(opts_.r);
  tridiag::SystemBatch<T> batch(lines, len, layout);
  const bool by_line = layout == tridiag::Layout::contiguous;
  for (std::size_t outer = 0; outer < (by_line ? lines : len); ++outer) {
    for (std::size_t inner = 0; inner < (by_line ? len : lines); ++inner) {
      const std::size_t line = by_line ? outer : inner;
      const std::size_t i = by_line ? inner : outer;
      const std::size_t idx = batch.index(line, i);
      batch.a()[idx] = i == 0 ? T(0) : -r;
      batch.b()[idx] = T(1) + T(2) * r;
      batch.c()[idx] = i + 1 == len ? T(0) : -r;
      const T u_c = u[idx];
      const T u_lo = line > 0 ? u[batch.index(line - 1, i)] : T(0);
      const T u_hi = line + 1 < lines ? u[batch.index(line + 1, i)] : T(0);
      batch.d()[idx] = u_c + r * (u_lo - T(2) * u_c + u_hi);
    }
  }

  const auto rep = gpu::hybrid_solve(dev_, batch, {}, plan);
  const std::string prefix = x_sweep ? "sweep-x:" : "sweep-y:";
  for (const auto& seg : rep.timeline.segments()) {
    report.timeline.add(prefix + seg.label, seg.stats);
  }
  std::copy(batch.d().begin(), batch.d().end(), u.begin());
}

template <typename T>
unsigned AdiIntegrator<T>::half_step(bool x_sweep, std::vector<T>& field,
                                     AdiStepReport& report) {
  const std::size_t lines = x_sweep ? ny_ : nx_;
  const std::size_t len = x_sweep ? nx_ : ny_;
  // In the row-major field the x rows are contiguous systems and the y
  // columns interleaved ones.
  const tridiag::Layout in_field =
      x_sweep ? tridiag::Layout::contiguous : tridiag::Layout::interleaved;
  const gpu::SolvePlan plan =
      gpu::plan_hybrid(dev_, lines, len, sizeof(T), in_field, {});
  const tridiag::Layout wanted = gpu::paired_layout(plan.k);
  if (wanted == in_field) {
    sweep(x_sweep, field, in_field, plan, report);
    return plan.k;
  }
  // The transposed field (nx x ny) holds the lines in the other layout.
  if (scratch_.size() != field.size()) {
    scratch_ = util::AlignedBuffer<T>(field.size());
  }
  report.timeline.add("transpose:fwd",
                      gpu::transpose<T>(dev_, field.data(), scratch_.data(),
                                        ny_, nx_));
  sweep(x_sweep, scratch_.span(), wanted, plan, report);
  report.timeline.add("transpose:back",
                      gpu::transpose<T>(dev_, scratch_.data(), field.data(),
                                        nx_, ny_));
  return plan.k;
}

template <typename T>
AdiStepReport AdiIntegrator<T>::step(std::vector<T>& field) {
  if (field.size() != nx_ * ny_) {
    throw std::invalid_argument("AdiIntegrator::step: field size mismatch");
  }
  AdiStepReport report;
  report.x_k = half_step(/*x_sweep=*/true, field, report);
  report.y_k = half_step(/*x_sweep=*/false, field, report);
  return report;
}

template class AdiIntegrator<float>;
template class AdiIntegrator<double>;

}  // namespace tridsolve::apps
