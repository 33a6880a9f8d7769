#include "gpu_solvers/zhang_pcr_thomas.hpp"

#include <stdexcept>

#include "gpu_solvers/inshared_block.hpp"

namespace tridsolve::gpu {

namespace {

constexpr int kBlockThreads = 128;

}  // namespace

std::size_t zhang_max_rows(const gpusim::DeviceSpec& dev, std::size_t elem_size) {
  return dev.shared_mem_per_block / (4 * elem_size);
}

bool zhang_fits(const gpusim::DeviceSpec& dev, std::size_t n, std::size_t elem_size) {
  return n <= zhang_max_rows(dev, elem_size);
}

template <typename T>
gpusim::LaunchStats zhang_solve(const gpusim::DeviceSpec& dev,
                                tridiag::SystemBatch<T>& batch) {
  const std::size_t n = batch.system_size();
  if (!zhang_fits(dev, n, sizeof(T))) {
    throw std::invalid_argument(
        "zhang_solve: system does not fit in shared memory (n=" +
        std::to_string(n) + ", max=" +
        std::to_string(zhang_max_rows(dev, sizeof(T))) + ")");
  }

  return gpusim::launch(dev, {batch.num_systems(), kBlockThreads},
                        [&](gpusim::BlockContext& ctx) {
    auto rows = ctx.shared<tridiag::Row<T>>(n);
    auto sys = batch.system(ctx.block_id());
    const auto tcount = static_cast<std::size_t>(kBlockThreads);

    // Coalesced load of the whole system.
    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t i = static_cast<std::size_t>(t.tid()); i < n; i += tcount) {
        rows[i] = tridiag::Row<T>{t.load(sys.a.ptr(i)), t.load(sys.b.ptr(i)),
                                  t.load(sys.c.ptr(i)), t.load(sys.d.ptr(i))};
      }
    });

    inshared_pcr_thomas(ctx, rows);

    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t i = static_cast<std::size_t>(t.tid()); i < n; i += tcount) {
        t.store(sys.d.ptr(i), rows[i].d);
      }
    });
  });
}

template gpusim::LaunchStats zhang_solve<float>(const gpusim::DeviceSpec&,
                                                tridiag::SystemBatch<float>&);
template gpusim::LaunchStats zhang_solve<double>(const gpusim::DeviceSpec&,
                                                 tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
