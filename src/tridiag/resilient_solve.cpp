#include "tridiag/resilient_solve.hpp"

#include <vector>

#include "obs/span_tracer.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"

namespace tridsolve::tridiag {

template <typename T>
SystemBatch<T> extract_systems(const SystemBatch<T>& batch,
                               std::span<const std::size_t> systems) {
  SystemBatch<T> out(systems.size(), batch.system_size(), batch.layout());
  for (std::size_t j = 0; j < systems.size(); ++j) {
    copy_system(batch.system(systems[j]), out.system(j));
  }
  return out;
}

namespace {

/// The loop both host stages share: solve each listed system from its
/// pristine coefficients with `solve_one`, gate the result, record the
/// attempt, and copy a passing solution into dst.d. A system is read in
/// full before its own d is written, so `dst` may be `pristine` itself.
template <typename T, typename SolveOne>
std::size_t host_stage(const char* span_name, const SystemBatch<T>& pristine,
                       std::span<const std::size_t> systems,
                       SystemBatch<T>& dst, BatchStatus& status,
                       SolveOne&& solve_one) {
  const std::size_t n = pristine.system_size();
  obs::SpanScope span(span_name);
  span.attr("systems", obs::JsonValue(systems.size()));
  std::vector<T> x(n);
  std::size_t recovered = 0;
  for (const std::size_t m : systems) {
    const SystemRef<const T> sys = pristine.system(m);
    // thomas_solve/lu_gtsv take mutable views but only read the
    // coefficients when x does not alias d — the const_cast never
    // materializes a write to `pristine`.
    const SolveStatus solved = solve_one(
        SystemRef<T>{
            StridedView<T>(const_cast<T*>(sys.a.data()), n, sys.a.stride()),
            StridedView<T>(const_cast<T*>(sys.b.data()), n, sys.b.stride()),
            StridedView<T>(const_cast<T*>(sys.c.data()), n, sys.c.stride()),
            StridedView<T>(const_cast<T*>(sys.d.data()), n, sys.d.stride())},
        StridedView<T>(std::span<T>(x)));
    const StridedView<const T> xc(x.data(), n, 1);
    const SolveStatus st = gate_solution(sys, xc, solved);
    status.record_attempt(m, st);
    if (st.ok()) {
      copy_view(xc, dst.system(m).d);
      ++recovered;
    }
  }
  span.attr("recovered", obs::JsonValue(recovered));
  return recovered;
}

}  // namespace

template <typename T>
std::size_t host_thomas_stage(const SystemBatch<T>& pristine,
                              std::span<const std::size_t> systems,
                              SystemBatch<T>& dst, BatchStatus& status) {
  std::vector<T> cprime(pristine.system_size());
  return host_stage<T>("host_thomas", pristine, systems, dst, status,
                       [&](const SystemRef<T>& sys, StridedView<T> x) {
                         SolveStatus guard{};
                         return thomas_solve<T>(sys, x, cprime, &guard);
                       });
}

template <typename T>
std::size_t host_lu_stage(const SystemBatch<T>& pristine,
                          std::span<const std::size_t> systems,
                          SystemBatch<T>& dst, BatchStatus& status) {
  const std::size_t n = pristine.system_size();
  std::vector<T> dl(n), dd(n), du(n), du2(n);
  const GtsvWorkspace<T> ws{dl, dd, du, du2};
  return host_stage<T>("host_lu", pristine, systems, dst, status,
                       [&](const SystemRef<T>& sys, StridedView<T> x) {
                         return lu_gtsv<T>(sys, x, ws);
                       });
}

template SystemBatch<float> extract_systems<float>(
    const SystemBatch<float>&, std::span<const std::size_t>);
template SystemBatch<double> extract_systems<double>(
    const SystemBatch<double>&, std::span<const std::size_t>);
template std::size_t host_thomas_stage<float>(const SystemBatch<float>&,
                                              std::span<const std::size_t>,
                                              SystemBatch<float>&,
                                              BatchStatus&);
template std::size_t host_thomas_stage<double>(const SystemBatch<double>&,
                                               std::span<const std::size_t>,
                                               SystemBatch<double>&,
                                               BatchStatus&);
template std::size_t host_lu_stage<float>(const SystemBatch<float>&,
                                          std::span<const std::size_t>,
                                          SystemBatch<float>&, BatchStatus&);
template std::size_t host_lu_stage<double>(const SystemBatch<double>&,
                                           std::span<const std::size_t>,
                                           SystemBatch<double>&, BatchStatus&);

}  // namespace tridsolve::tridiag
