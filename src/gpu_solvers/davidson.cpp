#include "gpu_solvers/davidson.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "gpu_solvers/inshared_block.hpp"

namespace tridsolve::gpu {

namespace {

constexpr std::size_t kSharedRows = 1024;  ///< subsystem rows the final kernel tiles
constexpr int kFinalBlockThreads = 128;    ///< p-Thomas lanes in the final kernel

/// One stepped-global-PCR launch: dst[m,i] = combine(src[m,i-s], src[m,i],
/// src[m,i+s]). A full pass over every row, 12 loads + 4 stores each.
template <typename T>
gpusim::LaunchStats global_pcr_step(const gpusim::DeviceSpec& dev,
                                    tridiag::SystemBatch<T>& src,
                                    tridiag::SystemBatch<T>& dst,
                                    std::size_t stride) {
  const std::size_t m_count = src.num_systems();
  const std::size_t n = src.system_size();
  const std::size_t total = m_count * n;
  const int block_threads = 256;
  const std::size_t grid =
      (total + static_cast<std::size_t>(block_threads) - 1) /
      static_cast<std::size_t>(block_threads);

  return gpusim::launch(dev, {grid, block_threads}, [&](gpusim::BlockContext& ctx) {
    ctx.phase([&](gpusim::ThreadCtx& t) {
      const std::size_t flat =
          ctx.block_id() * static_cast<std::size_t>(block_threads) +
          static_cast<std::size_t>(t.tid());
      if (flat >= total) return;
      const std::size_t m = flat / n;
      const std::size_t i = flat % n;
      auto s = src.system(m);
      auto d = dst.system(m);

      auto read_row = [&](std::ptrdiff_t pos) -> tridiag::Row<T> {
        if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(n)) {
          return tridiag::identity_row<T>();
        }
        const auto u = static_cast<std::size_t>(pos);
        return tridiag::Row<T>{t.load(s.a.ptr(u)), t.load(s.b.ptr(u)),
                               t.load(s.c.ptr(u)), t.load(s.d.ptr(u))};
      };
      const auto ip = static_cast<std::ptrdiff_t>(i);
      const auto sp = static_cast<std::ptrdiff_t>(stride);
      const tridiag::Row<T> lo = read_row(ip - sp);
      const tridiag::Row<T> mid = read_row(ip);
      const tridiag::Row<T> hi = read_row(ip + sp);
      const tridiag::Row<T> out = tridiag::pcr_combine(lo, mid, hi);
      t.flops<T>(10);
      t.divs<T>(2);
      t.store(d.a.ptr(i), out.a);
      t.store(d.b.ptr(i), out.b);
      t.store(d.c.ptr(i), out.c);
      t.store(d.d.ptr(i), out.d);
    });
  });
}

}  // namespace

template <typename T>
DavidsonReport davidson_solve(const gpusim::DeviceSpec& dev,
                              tridiag::SystemBatch<T>& batch) {
  DavidsonReport report;
  const std::size_t m_count = batch.num_systems();
  const std::size_t n = batch.system_size();
  if (m_count == 0 || n == 0) return report;

  // The auto-tuned original sizes its shared tile to the device; clamp the
  // tile to what a block can actually host (4 values per row).
  const std::size_t shared_rows =
      std::min(kSharedRows, dev.shared_mem_per_block / (4 * sizeof(T)));

  // Global PCR until each stride-2^k subsystem fits the shared tile.
  unsigned k_global = 0;
  while ((n >> k_global) > shared_rows) ++k_global;
  report.global_steps = k_global;

  std::optional<tridiag::SystemBatch<T>> scratch;
  if (k_global > 0) scratch.emplace(m_count, n, batch.layout());
  tridiag::SystemBatch<T>* src = &batch;
  tridiag::SystemBatch<T>* dst = scratch ? &*scratch : &batch;
  for (unsigned s = 0; s < k_global; ++s) {
    report.timeline.add("global-pcr:step" + std::to_string(s),
                        global_pcr_step(dev, *src, *dst, std::size_t{1} << s));
    std::swap(src, dst);
  }

  // Final kernel: one block per (m, r) subsystem, coarse shared tile.
  const std::size_t sub_stride = std::size_t{1} << k_global;
  const std::size_t grid = m_count * sub_stride;
  tridiag::SystemBatch<T>& in = *src;

  const auto final_stats = gpusim::launch(dev, {grid, kFinalBlockThreads}, [&](gpusim::BlockContext& ctx) {
    const std::size_t m = ctx.block_id() / sub_stride;
    const std::size_t r = ctx.block_id() % sub_stride;
    if (r >= n) return;
    const std::size_t q = (n - r + sub_stride - 1) / sub_stride;
    auto rows = ctx.shared<tridiag::Row<T>>(q);
    auto sys_in = in.system(m);
    auto sys_out = batch.system(m);  // x must land in the caller's d

    // Load the subsystem into shared: stride-2^k addresses, so for
    // k_global > 0 this is heavily uncoalesced (Davidson's layout cost).
    const auto tcount = static_cast<std::size_t>(kFinalBlockThreads);
    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t j = static_cast<std::size_t>(t.tid()); j < q; j += tcount) {
        const std::size_t pos = r + j * sub_stride;
        rows[j] = tridiag::Row<T>{
            t.load(sys_in.a.ptr(pos)), t.load(sys_in.b.ptr(pos)),
            t.load(sys_in.c.ptr(pos)), t.load(sys_in.d.ptr(pos))};
      }
    });

    // In-shared PCR, one barrier-synchronized step at a time, until there
    // is one subsystem per thread; then thread-parallel Thomas in shared.
    inshared_pcr_thomas(ctx, rows);

    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t j = static_cast<std::size_t>(t.tid()); j < q; j += tcount) {
        const std::size_t pos = r + j * sub_stride;
        t.store(sys_out.d.ptr(pos), rows[j].d);
      }
    });
  });
  report.timeline.add("final-pcr-thomas", final_stats);
  return report;
}

template DavidsonReport davidson_solve<float>(const gpusim::DeviceSpec&,
                                              tridiag::SystemBatch<float>&);
template DavidsonReport davidson_solve<double>(const gpusim::DeviceSpec&,
                                               tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
