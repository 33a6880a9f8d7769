#include "gpu_solvers/partition_kernel.hpp"

#include <vector>

#include "util/aligned_buffer.hpp"

namespace tridsolve::gpu {

namespace {

template <typename T>
struct M2 {
  T m00, m01, m10, m11;
};
template <typename T>
struct V2 {
  T v0, v1;
};

template <typename T>
M2<T> mul_mm(const M2<T>& a, const M2<T>& b) {
  return {a.m00 * b.m00 + a.m01 * b.m10, a.m00 * b.m01 + a.m01 * b.m11,
          a.m10 * b.m00 + a.m11 * b.m10, a.m10 * b.m01 + a.m11 * b.m11};
}
template <typename T>
V2<T> mul_mv(const M2<T>& a, const V2<T>& v) {
  return {a.m00 * v.v0 + a.m01 * v.v1, a.m10 * v.v0 + a.m11 * v.v1};
}

}  // namespace

template <typename T>
PartitionGpuReport partition_solve_gpu(const gpusim::DeviceSpec& dev,
                                       tridiag::SystemBatch<T>& batch) {
  const std::size_t m_count = batch.num_systems();
  const std::size_t n = batch.system_size();
  constexpr std::size_t p = kPartitionPacket;
  PartitionGpuReport report;
  if (m_count == 0 || n == 0) return report;

  const std::size_t packets = (n + p - 1) / p;
  const std::size_t total_packets = m_count * packets;

  // Global workspace (device arrays on hardware).
  util::AlignedBuffer<T> cl(m_count * n), al(m_count * n), dl(m_count * n);
  util::AlignedBuffer<T> au(total_packets), cu(total_packets), du(total_packets);
  util::AlignedBuffer<T> xf(total_packets), xl(total_packets);  // boundary x

  constexpr int bt = 128;  // threads per block
  auto grid_for = [&](std::size_t items) {
    return (items + static_cast<std::size_t>(bt) - 1) / static_cast<std::size_t>(bt);
  };

  // ---- stage 1: per-packet register sweeps ------------------------------
  const auto sweeps = gpusim::launch(dev, {grid_for(total_packets), bt},
                                     [&](gpusim::BlockContext& ctx) {
    ctx.phase([&](gpusim::ThreadCtx& t) {
      const std::size_t id = ctx.block_id() * static_cast<std::size_t>(bt) +
                             static_cast<std::size_t>(t.tid());
      if (id >= total_packets) return;
      const std::size_t m = id / packets;
      const std::size_t pk = id % packets;
      const std::size_t s = pk * p;
      const std::size_t e = std::min(s + p, n);
      auto sys = batch.system(m);

      // Register packing: the packet's rows live in thread-local storage.
      T ra[p], rb[p], rc[p], rd[p];
      for (std::size_t j = s; j < e; ++j) {
        ra[j - s] = t.load(sys.a.ptr(j));
        rb[j - s] = t.load(sys.b.ptr(j));
        rc[j - s] = t.load(sys.c.ptr(j));
        rd[j - s] = t.load(sys.d.ptr(j));
      }
      t.end_round();

      // Downward elimination: x_j = dl - cl x_{j+1} - al x_{s-1}.
      T cl_prev{}, al_prev{}, dl_prev{};
      for (std::size_t j = 0; j < e - s; ++j) {
        T inv;
        if (j == 0) {
          inv = T(1) / rb[0];
          cl_prev = rc[0] * inv;
          al_prev = ra[0] * inv;
          dl_prev = rd[0] * inv;
          t.flops<T>(3);
          t.divs<T>(1);
        } else {
          const T denom = rb[j] - ra[j] * cl_prev;
          inv = T(1) / denom;
          cl_prev = rc[j] * inv;
          al_prev = -ra[j] * al_prev * inv;
          dl_prev = (rd[j] - ra[j] * dl_prev) * inv;
          t.flops<T>(8);
          t.divs<T>(1);
        }
        t.store(cl.data() + m * n + s + j, cl_prev);
        t.store(al.data() + m * n + s + j, al_prev);
        t.store(dl.data() + m * n + s + j, dl_prev);
      }

      // Upward elimination: x_s = du - au x_{s-1} - cu x_e.
      T au_nx{}, cu_nx{}, du_nx{};
      for (std::size_t jj = e - s; jj-- > 0;) {
        if (jj == e - s - 1) {
          const T inv = T(1) / rb[jj];
          au_nx = ra[jj] * inv;
          cu_nx = rc[jj] * inv;
          du_nx = rd[jj] * inv;
          t.flops<T>(3);
          t.divs<T>(1);
        } else {
          const T denom = rb[jj] - rc[jj] * au_nx;
          const T inv = T(1) / denom;
          du_nx = (rd[jj] - rc[jj] * du_nx) * inv;
          cu_nx = -rc[jj] * cu_nx * inv;
          au_nx = ra[jj] * inv;
          t.flops<T>(8);
          t.divs<T>(1);
        }
      }
      t.store(au.data() + id, au_nx);
      t.store(cu.data() + id, cu_nx);
      t.store(du.data() + id, du_nx);
      t.end_round();
    });
  });
  report.timeline.add("packet-sweeps", sweeps);

  // ---- stage 2: reduced 2x2-block Thomas, one thread per system ---------
  const auto reduced = gpusim::launch(dev, {grid_for(m_count), bt},
                                      [&](gpusim::BlockContext& ctx) {
    ctx.phase([&](gpusim::ThreadCtx& t) {
      const std::size_t m = ctx.block_id() * static_cast<std::size_t>(bt) +
                            static_cast<std::size_t>(t.tid());
      if (m >= m_count) return;
      // Forward block sweep; Cp/Fp spill to the xf/xl arrays' roles is
      // avoided by keeping them in (modeled) local memory.
      std::vector<M2<T>> cp(packets);
      std::vector<V2<T>> fp(packets);
      M2<T> cp_prev{T(0), T(0), T(0), T(0)};
      V2<T> fp_prev{T(0), T(0)};
      for (std::size_t pk = 0; pk < packets; ++pk) {
        const std::size_t last = std::min(pk * p + p, n) - 1;
        const T au_t = t.load(au.data() + m * packets + pk);
        const T cu_t = t.load(cu.data() + m * packets + pk);
        const T du_t = t.load(du.data() + m * packets + pk);
        const T al_l = t.load(al.data() + m * n + last);
        const T cl_l = t.load(cl.data() + m * n + last);
        const T dl_l = t.load(dl.data() + m * n + last);
        const M2<T> at{T(0), au_t, T(0), al_l};
        const M2<T> ct = pk + 1 < packets ? M2<T>{cu_t, T(0), cl_l, T(0)}
                                          : M2<T>{T(0), T(0), T(0), T(0)};
        const V2<T> ft{du_t, dl_l};
        const M2<T> acp = mul_mm(at, cp_prev);
        const M2<T> denom{T(1) - acp.m00, -acp.m01, -acp.m10, T(1) - acp.m11};
        const T det = denom.m00 * denom.m11 - denom.m01 * denom.m10;
        const T inv = T(1) / det;
        const M2<T> denom_inv{denom.m11 * inv, -denom.m01 * inv,
                              -denom.m10 * inv, denom.m00 * inv};
        cp[pk] = mul_mm(denom_inv, ct);
        const V2<T> afp = mul_mv(at, fp_prev);
        fp[pk] = mul_mv(denom_inv, V2<T>{ft.v0 - afp.v0, ft.v1 - afp.v1});
        cp_prev = cp[pk];
        fp_prev = fp[pk];
        t.flops<T>(40);
        t.divs<T>(1);
        t.end_round();
      }
      V2<T> u_next{T(0), T(0)};
      for (std::size_t pk = packets; pk-- > 0;) {
        const V2<T> cun = mul_mv(cp[pk], u_next);
        u_next = V2<T>{fp[pk].v0 - cun.v0, fp[pk].v1 - cun.v1};
        t.store(xf.data() + m * packets + pk, u_next.v0);
        t.store(xl.data() + m * packets + pk, u_next.v1);
        t.flops<T>(8);
        t.end_round();
      }
    });
  });
  report.timeline.add("reduced-solve", reduced);

  // ---- stage 3: per-packet back-substitution -----------------------------
  const auto backsub = gpusim::launch(dev, {grid_for(total_packets), bt},
                                      [&](gpusim::BlockContext& ctx) {
    ctx.phase([&](gpusim::ThreadCtx& t) {
      const std::size_t id = ctx.block_id() * static_cast<std::size_t>(bt) +
                             static_cast<std::size_t>(t.tid());
      if (id >= total_packets) return;
      const std::size_t m = id / packets;
      const std::size_t pk = id % packets;
      const std::size_t s = pk * p;
      const std::size_t e = std::min(s + p, n);
      auto sys = batch.system(m);

      const T x_left = pk > 0 ? t.load(xl.data() + id - 1) : T(0);
      const T x_first = t.load(xf.data() + id);
      const T x_last = t.load(xl.data() + id);
      t.end_round();
      t.store(sys.d.ptr(s), x_first);
      t.store(sys.d.ptr(e - 1), x_last);
      T x_next = x_last;
      for (std::size_t j = e - 1; j-- > s + 1;) {
        const T x = t.load(dl.data() + m * n + j) -
                    t.load(cl.data() + m * n + j) * x_next -
                    t.load(al.data() + m * n + j) * x_left;
        t.flops<T>(4);
        t.store(sys.d.ptr(j), x);
        x_next = x;
        t.end_round();
      }
    });
  });
  report.timeline.add("back-substitution", backsub);
  return report;
}

template PartitionGpuReport partition_solve_gpu<float>(const gpusim::DeviceSpec&,
                                                       tridiag::SystemBatch<float>&);
template PartitionGpuReport partition_solve_gpu<double>(
    const gpusim::DeviceSpec&, tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
