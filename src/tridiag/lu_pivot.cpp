#include "tridiag/lu_pivot.hpp"

#include "util/aligned_buffer.hpp"

namespace tridsolve::tridiag {

template <typename T>
SolveStatus lu_gtsv(const SystemRef<T>& sys, StridedView<T> x) {
  const std::size_t n = sys.size();
  util::AlignedBuffer<T> scratch(4 * n);
  GtsvWorkspace<T> ws{scratch.span().subspan(0, n), scratch.span().subspan(n, n),
                      scratch.span().subspan(2 * n, n),
                      scratch.span().subspan(3 * n, n)};
  return lu_gtsv(sys, x, ws);
}

template SolveStatus lu_gtsv<float>(const SystemRef<float>&, StridedView<float>);
template SolveStatus lu_gtsv<double>(const SystemRef<double>&, StridedView<double>);

}  // namespace tridsolve::tridiag
