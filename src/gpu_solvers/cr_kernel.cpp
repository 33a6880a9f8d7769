#include "gpu_solvers/cr_kernel.hpp"

#include <bit>
#include <stdexcept>

#include "gpu_solvers/zhang_pcr_thomas.hpp"
#include "tridiag/pcr.hpp"

namespace tridsolve::gpu {

namespace {

constexpr int kBlockThreads = 128;

/// Index padding a la Göddeke & Strzodka: insert one padding element per
/// half-warp of entries so power-of-two strides stop aliasing to the same
/// banks. (bank = word % 32; doubles occupy 2 words, hence the /16.)
constexpr std::size_t pad_index(std::size_t i, bool enabled,
                                std::size_t elems_per_conflict_period) noexcept {
  return enabled ? i + i / elems_per_conflict_period : i;
}

}  // namespace

template <typename T>
gpusim::LaunchStats cr_kernel_solve(const gpusim::DeviceSpec& dev,
                                    tridiag::SystemBatch<T>& batch,
                                    const CrKernelOptions& opts) {
  const std::size_t n = batch.system_size();
  const std::size_t npad = std::bit_ceil(std::max<std::size_t>(n, 1));
  // Elements per conflict period: a full set of banks' worth of elements.
  const std::size_t period =
      static_cast<std::size_t>(dev.shared_banks) *
      static_cast<std::size_t>(dev.shared_bank_width) / sizeof(T);
  const std::size_t storage =
      pad_index(npad - 1, opts.pad_shared, period) + 1;
  if (storage * 4 * sizeof(T) > dev.shared_mem_per_block) {
    throw std::invalid_argument("cr_kernel_solve: padded system (" +
                                std::to_string(storage) +
                                " rows) does not fit in shared memory");
  }
  const auto levels = static_cast<unsigned>(std::bit_width(npad) - 1);

  return gpusim::launch(dev, {batch.num_systems(), kBlockThreads},
                        [&](gpusim::BlockContext& ctx) {
    // SoA shared arrays, as a real CR kernel lays them out.
    auto sa = ctx.shared<T>(storage);
    auto sb = ctx.shared<T>(storage);
    auto sc = ctx.shared<T>(storage);
    auto sd = ctx.shared<T>(storage);
    auto sys = batch.system(ctx.block_id());
    const auto tcount = static_cast<std::size_t>(kBlockThreads);
    auto idx = [&](std::size_t i) { return pad_index(i, opts.pad_shared, period); };

    // Coalesced load; identity rows pad to the next power of two.
    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t i = static_cast<std::size_t>(t.tid()); i < npad; i += tcount) {
        const std::size_t s = idx(i);
        if (i < n) {
          t.sstore(&sa[s], t.load(sys.a.ptr(i)));
          t.sstore(&sb[s], t.load(sys.b.ptr(i)));
          t.sstore(&sc[s], t.load(sys.c.ptr(i)));
          t.sstore(&sd[s], t.load(sys.d.ptr(i)));
        } else {
          t.sstore(&sa[s], T(0));
          t.sstore(&sb[s], T(1));
          t.sstore(&sc[s], T(0));
          t.sstore(&sd[s], T(0));
        }
      }
    });

    // Forward reduction: level L eliminates rows p == 2^{L+1}-1 (mod
    // 2^{L+1}) against neighbours at +-2^L. In place: neighbours belong to
    // the other residue class and are not written this level. Active rows
    // halve per level while each level still costs a full barrier — and
    // the stride-2^L shared accesses produce the bank conflicts the
    // padding option removes.
    for (unsigned level = 0; level < levels; ++level) {
      const std::size_t step = std::size_t{2} << level;  // 2^{L+1}
      const std::size_t reach = std::size_t{1} << level;
      ctx.phase([&](gpusim::ThreadCtx& t) {
        for (std::size_t p = step - 1 + static_cast<std::size_t>(t.tid()) * step;
             p < npad; p += tcount * step) {
          // Braced lists load a, b, c, d in order: mid, lo, then hi.
          auto load_row = [&](std::size_t s) {
            return tridiag::Row<T>{t.sload(&sa[s]), t.sload(&sb[s]),
                                   t.sload(&sc[s]), t.sload(&sd[s])};
          };
          const std::size_t sm = idx(p);
          const tridiag::Row<T> mid = load_row(sm);
          const tridiag::Row<T> lo = load_row(idx(p - reach));
          const tridiag::Row<T> hi = p + reach < npad
                                         ? load_row(idx(p + reach))
                                         : tridiag::identity_row<T>();
          const tridiag::Row<T> out = tridiag::pcr_combine(lo, mid, hi);
          t.sstore(&sa[sm], out.a);
          t.sstore(&sb[sm], out.b);
          t.sstore(&sc[sm], out.c);
          t.sstore(&sd[sm], out.d);
          t.flops<T>(10);
          t.divs<T>(2);
        }
      });
    }

    // Backward substitution: x overwrites d for solved rows.
    for (unsigned level = levels + 1; level-- > 0;) {
      const std::size_t reach = std::size_t{1} << level;
      const std::size_t step = reach * 2;
      ctx.phase([&](gpusim::ThreadCtx& t) {
        for (std::size_t p = reach - 1 + static_cast<std::size_t>(t.tid()) * step;
             p < npad; p += tcount * step) {
          const std::size_t sm = idx(p);
          const T x_lo = p >= reach ? t.sload(&sd[idx(p - reach)]) : T(0);
          const T x_hi = p + reach < npad ? t.sload(&sd[idx(p + reach)]) : T(0);
          const T x = (t.sload(&sd[sm]) - t.sload(&sa[sm]) * x_lo -
                       t.sload(&sc[sm]) * x_hi) /
                      t.sload(&sb[sm]);
          t.sstore(&sd[sm], x);
          t.flops<T>(4);
          t.divs<T>(1);
        }
      });
    }

    ctx.phase([&](gpusim::ThreadCtx& t) {
      for (std::size_t i = static_cast<std::size_t>(t.tid()); i < n; i += tcount) {
        t.store(sys.d.ptr(i), t.sload(&sd[idx(i)]));
      }
    });
  });
}

template gpusim::LaunchStats cr_kernel_solve<float>(const gpusim::DeviceSpec&,
                                                    tridiag::SystemBatch<float>&,
                                                    const CrKernelOptions&);
template gpusim::LaunchStats cr_kernel_solve<double>(const gpusim::DeviceSpec&,
                                                     tridiag::SystemBatch<double>&,
                                                     const CrKernelOptions&);

}  // namespace tridsolve::gpu
