// Vectorized functional fast path: registry-wide bit-identity of the
// grid-wide sweep against the per-block kernel bodies, and of functional,
// sampled and exact runs against watched runs (hazard detection or a
// fault plan attached: the only blocks that still walk every phase per
// thread), guard statuses and recorded costs included; the fallback rules
// (faults / hazards keep the sweep off, guards do not), pooled-scratch
// steady state (zero allocations once warm), and the LanePool itself.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/pthomas_kernel.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/vector_engine.hpp"
#include "obs/metrics.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gpu = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

double counter(const char* name) {
  return tridsolve::obs::MetricsRegistry::instance().counter(name);
}

/// Solve `batch` in `mode` with the vector path on/off into `solution`,
/// which stays empty when the kind rejects the shape. functional_only
/// runs report supported == false (no timing) but still hand out their
/// solution.
template <typename T>
gpu::SolveOutcome solve(gpu::SolverKind kind, const td::SystemBatch<T>& batch,
                        gs::InstrumentMode mode, bool vector, bool guard,
                        td::SystemBatch<T>& solution) {
  const auto dev = gs::gtx480();
  const gs::ScopedVectorMode vec(vector);
  gpu::SolverRunOptions opts;
  opts.instrument = mode;
  opts.guard = guard;
  return gpu::run_solver<T>(kind, dev, batch, opts, &solution);
}

/// Solve `batch` functionally with the vector path on/off; false when the
/// kind rejects the shape.
template <typename T>
bool solve_functional(gpu::SolverKind kind, const td::SystemBatch<T>& batch,
                      bool vector, td::SystemBatch<T>& solution) {
  (void)solve(kind, batch, gs::InstrumentMode::functional_only, vector,
              /*guard=*/false, solution);
  return solution.total_rows() == batch.total_rows();
}

template <typename T>
void expect_bitwise(const td::SystemBatch<T>& a, const td::SystemBatch<T>& b,
                    const std::string& what) {
  ASSERT_EQ(a.total_rows(), b.total_rows()) << what;
  for (std::size_t i = 0; i < a.total_rows(); ++i) {
    T x = a.d()[i], y = b.d()[i];
    std::uint64_t xb = 0, yb = 0;
    std::memcpy(&xb, &x, sizeof(T));
    std::memcpy(&yb, &y, sizeof(T));
    EXPECT_EQ(xb, yb) << what << " row " << i;
  }
}

void expect_same_status(const td::BatchStatus& want, const td::BatchStatus& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t m = 0; m < want.size(); ++m) {
    EXPECT_EQ(want[m].code, got[m].code) << what << " system " << m;
    EXPECT_EQ(want[m].index, got[m].index) << what << " system " << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[m].pivot_growth),
              std::bit_cast<std::uint64_t>(got[m].pivot_growth))
        << what << " system " << m;
  }
}

/// Launch by launch: labels, recorded costs and simulated time.
void expect_same_timeline(const gs::Timeline& want, const gs::Timeline& got,
                          const std::string& what) {
  ASSERT_EQ(want.segments().size(), got.segments().size()) << what;
  for (std::size_t i = 0; i < want.segments().size(); ++i) {
    const auto& w = want.segments()[i];
    const auto& g = got.segments()[i];
    const std::string at = what + " launch " + w.label;
    EXPECT_EQ(w.label, g.label) << at;
    const gs::KernelCosts& a = w.stats.costs;
    const gs::KernelCosts& b = g.stats.costs;
    EXPECT_EQ(a.ops_f32, b.ops_f32) << at;
    EXPECT_EQ(a.ops_f64, b.ops_f64) << at;
    EXPECT_EQ(a.transactions, b.transactions) << at;
    EXPECT_EQ(a.bytes_requested, b.bytes_requested) << at;
    EXPECT_EQ(a.loads, b.loads) << at;
    EXPECT_EQ(a.stores, b.stores) << at;
    EXPECT_EQ(a.rounds_total, b.rounds_total) << at;
    EXPECT_EQ(a.warps, b.warps) << at;
    EXPECT_EQ(a.barriers, b.barriers) << at;
    EXPECT_EQ(a.shared_accesses, b.shared_accesses) << at;
    EXPECT_EQ(a.shared_bytes, b.shared_bytes) << at;
    EXPECT_EQ(a.shared_serializations, b.shared_serializations) << at;
    EXPECT_EQ(a.shared_peak_bytes, b.shared_peak_bytes) << at;
    EXPECT_EQ(w.stats.timing.time_us, g.stats.timing.time_us) << at;
  }
}

double fault_counters() {
  double n = 0.0;
  for (const char* name :
       {"gpusim.fault.bit_flips", "gpusim.fault.shared_corruptions",
        "gpusim.fault.nan_writes", "gpusim.fault.launch_failures",
        "gpusim.fault.timeouts"}) {
    n += counter(name);
  }
  return n;
}

/// One finished run: its outputs, its timeline (null for functional runs,
/// whose launches record nothing) and its statuses.
template <typename T>
struct Finished {
  std::string name;
  const td::SystemBatch<T>* out;
  const gs::Timeline* timeline;
  const td::BatchStatus* status;
};

/// Run `exact_run(out)` twice more, watched: under hazard detection, and
/// under an active fault plan that draws no fault (rate 1e-9; the
/// gpusim.fault.* counters must not move). Watched blocks keep the
/// per-thread phased order, the order the hardware block runs, so these
/// two are the reference: every run in `others` must match their
/// outputs bitwise, and their statuses and (where it has one) timeline.
template <typename T, typename ExactRun>
void expect_match_watched(const ExactRun& exact_run,
                          const std::vector<Finished<T>>& others,
                          const std::string& what) {
  td::SystemBatch<T> detected, planned;
  const auto hz = [&] {
    const gs::ScopedHazardMode detect(gs::HazardMode::detect);
    return exact_run(detected);
  }();
  const double faults_before = fault_counters();
  const auto fp = [&] {
    gs::FaultPlan plan;
    plan.seed = 1;
    plan.rate = 1e-9;  // active, but draws nothing on these shapes
    const gs::ScopedFaultPlan scoped(plan);
    return exact_run(planned);
  }();
  EXPECT_EQ(fault_counters(), faults_before)
      << what << ": the fault plan drew a fault";
  const Finished<T> watched[] = {
      {"hazard-checked exact", &detected, &hz.timeline, &hz.status},
      {"fault-planned exact", &planned, &fp.timeline, &fp.status}};
  for (const Finished<T>& w : watched) {
    for (const Finished<T>& o : others) {
      const std::string at = what + " " + w.name + " vs " + o.name;
      expect_bitwise(*w.out, *o.out, at);
      if (o.timeline != nullptr) expect_same_timeline(*w.timeline, *o.timeline, at);
      expect_same_status(*w.status, *o.status, at);
    }
  }
}

}  // namespace

// Every solver kind, both layouts, shapes chosen to stress the lane
// blocking: odd N, N not divisible by any SIMD width, and M = 1 (a
// single lane — no cross-system vectorization possible). M = 4, N = 16384
// runs the hybrid's split-system PCR, whose first, interior and last
// windows are different cost classes, and M = 4100 spans several k = 0
// p-Thomas blocks plus a ragged tail; sampled runs leave blocks of every
// hybrid launch unrecorded. Functional runs with the vector path on and
// off and sampled runs must all match the exact run bitwise, and sampled
// runs must match it on every launch's costs and time_us as well. The
// guarded pass plants a zero pivot, which every kind must flag, and also
// compares every system's SolveStatus of the sampled and functional runs
// (vector on and off) against the exact run's, and all four against two
// watched exact runs (hazard-checked, fault-planned), which alone still
// walk every phase per thread. A guarded float hybrid runs the same
// checks, and guarded p-Thomas on rows with tiny diagonals compares
// statuses whose growth |c| sets. Every exact launch checks its declared cost classes against its
// full record; none may disagree.
TEST(VectorEngine, RegistryWideBitIdentityVectorOnVsOff) {
  struct Shape {
    std::size_t m, n;
  };
  const Shape shapes[] = {{96, 257}, {64, 130}, {1, 301}, {4100, 33},
                          {4, 16384}};
  const double mismatches_before = counter("gpusim.sampling.mismatches");
  std::set<std::string> sampled_launches;  // labels with unrecorded blocks
  for (const bool guard : {false, true}) {
    for (const auto kind : gpu::all_solver_kinds()) {
      for (const auto layout :
           {td::Layout::interleaved, td::Layout::contiguous}) {
        for (const auto& s : shapes) {
          auto batch = wl::make_batch<double>(
              wl::Kind::random_dominant, s.m, s.n, layout, /*seed=*/7);
          if (guard) batch.b()[batch.index(s.m / 2, 0)] = 0.0;  // zero pivot
          td::SystemBatch<double> with_vec, without_vec, exact, sampled;
          const auto on =
              solve(kind, batch, gs::InstrumentMode::functional_only,
                    /*vector=*/true, guard, with_vec);
          const auto off =
              solve(kind, batch, gs::InstrumentMode::functional_only,
                    /*vector=*/false, guard, without_vec);
          const auto ref = solve(kind, batch, gs::InstrumentMode::exact,
                                 /*vector=*/true, guard, exact);
          const auto smp = solve(kind, batch, gs::InstrumentMode::sampled,
                                 /*vector=*/true, guard, sampled);
          const bool ok_on = with_vec.total_rows() == batch.total_rows();
          ASSERT_EQ(ok_on, without_vec.total_rows() == batch.total_rows())
              << gpu::solver_name(kind) << " applicability changed with --vector";
          if (!ok_on) continue;  // kind rejects this shape (e.g. in-shared cap)
          const std::string what =
              std::string(gpu::solver_name(kind)) + " " +
              (layout == td::Layout::contiguous ? "contiguous"
                                                : "interleaved") +
              " M=" + std::to_string(s.m) +
              " N=" + std::to_string(s.n) + (guard ? " guarded" : "");
          expect_bitwise(with_vec, without_vec, what);
          expect_bitwise(exact, with_vec, what + " exact vs functional");
          expect_bitwise(exact, sampled, what + " exact vs sampled");
          EXPECT_EQ(ref.time_us, smp.time_us) << what << " sampled";
          expect_same_timeline(ref.timeline, smp.timeline, what + " sampled");
          expect_same_status(ref.status, smp.status, what + " sampled");
          expect_same_status(ref.status, on.status,
                             what + " functional, vector on");
          expect_same_status(ref.status, off.status,
                             what + " functional, vector off");
          if (guard) {
            ASSERT_EQ(ref.status.size(), batch.num_systems()) << what;
            EXPECT_FALSE(ref.status[s.m / 2].ok())
                << what << ": the planted zero pivot went unflagged";
            expect_match_watched<double>(
                [&](td::SystemBatch<double>& out) {
                  return solve(kind, batch, gs::InstrumentMode::exact,
                               /*vector=*/true, guard, out);
                },
                {{"exact", &exact, &ref.timeline, &ref.status},
                 {"sampled", &sampled, &smp.timeline, &smp.status},
                 {"functional, vector on", &with_vec, nullptr, &on.status},
                 {"functional, vector off", &without_vec, nullptr,
                  &off.status}},
                what);
          }
          for (const auto& seg : smp.timeline.segments()) {
            if (seg.stats.instrumented_blocks < seg.stats.config.grid_blocks) {
              sampled_launches.insert(seg.label);
            }
          }
        }
      }
    }
  }
  for (const char* label : {"pcr", "thomas-fwd", "thomas-bwd"}) {
    EXPECT_EQ(sampled_launches.count(label), 1u)
        << label << ": no sampled run left a block unrecorded";
  }

  // A guarded hybrid on sub-tiles of c = 2 (S = 8 rows at k = 2): blocks
  // that run unrecorded must meet rows in the phased order, thread-major
  // and sub-tile-minor. The zero pivot at row 3 breaks the level-1
  // eliminations of rows 2 (thread 3, sub-tile 0) and 4 (thread 1,
  // sub-tile 1); the phased order meets row 4 first.
  {
    auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 64,
                                        td::Layout::contiguous, /*seed=*/7);
    batch.b()[batch.index(32, 3)] = 0.0;
    gpu::HybridOptions opts;
    opts.force_k = 2;
    opts.sub_tile_c = 2;
    opts.guard = true;
    const auto run = [&](gs::InstrumentMode mode, bool vector,
                         td::SystemBatch<double>& out) {
      const gs::ScopedInstrumentMode scoped_mode(mode);
      const gs::ScopedVectorMode vec(vector);
      out = batch.clone();
      return gpu::hybrid_solve<double>(gs::gtx480(), out, opts);
    };
    td::SystemBatch<double> exact, sampled, with_vec, without_vec;
    const auto ref = run(gs::InstrumentMode::exact, true, exact);
    const auto smp = run(gs::InstrumentMode::sampled, true, sampled);
    const auto on = run(gs::InstrumentMode::functional_only, true, with_vec);
    const auto off =
        run(gs::InstrumentMode::functional_only, false, without_vec);
    const std::string what = "hybrid k=2 c=2 guarded";
    ASSERT_EQ(ref.plan_c, 2u) << what;
    expect_bitwise(exact, sampled, what + " exact vs sampled");
    expect_bitwise(exact, with_vec, what + " exact vs functional");
    expect_bitwise(with_vec, without_vec, what);
    expect_same_timeline(ref.timeline, smp.timeline, what + " sampled");
    expect_same_status(ref.status, smp.status, what + " sampled");
    expect_same_status(ref.status, on.status, what + " functional, vector on");
    expect_same_status(ref.status, off.status,
                       what + " functional, vector off");
    ASSERT_EQ(ref.status.size(), batch.num_systems()) << what;
    EXPECT_EQ(ref.status[32].code, td::SolveCode::zero_pivot) << what;
    EXPECT_EQ(ref.status[32].index, 4u) << what;
    EXPECT_LT(smp.timeline.segments().front().stats.instrumented_blocks,
              smp.timeline.segments().front().stats.config.grid_blocks)
        << what << ": the sampled PCR launch recorded every block";
    expect_match_watched<double>(
        [&](td::SystemBatch<double>& out) {
          return run(gs::InstrumentMode::exact, true, out);
        },
        {{"exact", &exact, &ref.timeline, &ref.status},
         {"sampled", &sampled, &smp.timeline, &smp.status},
         {"functional, vector on", &with_vec, nullptr, &on.status},
         {"functional, vector off", &without_vec, nullptr, &off.status}},
        what);
  }

  // A guarded float hybrid with a planted zero pivot: the same checks at
  // single precision.
  {
    auto batch = wl::make_batch<float>(wl::Kind::random_dominant, 64, 130,
                                       td::Layout::contiguous, /*seed=*/7);
    batch.b()[batch.index(32, 0)] = 0.0f;
    const auto kind = gpu::SolverKind::hybrid;
    td::SystemBatch<float> exact, sampled, with_vec, without_vec;
    const auto ref = solve(kind, batch, gs::InstrumentMode::exact,
                           /*vector=*/true, /*guard=*/true, exact);
    const auto smp = solve(kind, batch, gs::InstrumentMode::sampled,
                           /*vector=*/true, /*guard=*/true, sampled);
    const auto on = solve(kind, batch, gs::InstrumentMode::functional_only,
                          /*vector=*/true, /*guard=*/true, with_vec);
    const auto off = solve(kind, batch, gs::InstrumentMode::functional_only,
                           /*vector=*/false, /*guard=*/true, without_vec);
    const std::string what = "float hybrid contiguous M=64 N=130 guarded";
    ASSERT_EQ(ref.status.size(), batch.num_systems()) << what;
    EXPECT_EQ(ref.status[32].code, td::SolveCode::zero_pivot) << what;
    EXPECT_EQ(ref.time_us, smp.time_us) << what;
    expect_same_timeline(ref.timeline, smp.timeline, what + " sampled");
    expect_match_watched<float>(
        [&](td::SystemBatch<float>& out) {
          return solve(kind, batch, gs::InstrumentMode::exact,
                       /*vector=*/true, /*guard=*/true, out);
        },
        {{"exact", &exact, &ref.timeline, &ref.status},
         {"sampled", &sampled, &smp.timeline, &smp.status},
         {"functional, vector on", &with_vec, nullptr, &on.status},
         {"functional, vector off", &without_vec, nullptr, &off.status}},
        what);
  }

  // The lane sweeps' guard reads each row's input c, not the c' the sweep
  // writes over it. On a diagonally dominant matrix max(|a|, |b|, |c|) is
  // |b| either way, so this case takes rows with tiny diagonals, where |c|
  // sets the growth: guarded p-Thomas (k = 0) in both layouts, whose lane
  // sweeps (sampled: per block; functional: grid-wide) must report the
  // per-thread body's statuses (exact; functional with --vector off).
  for (const auto layout : {td::Layout::interleaved, td::Layout::contiguous}) {
    const auto batch = wl::make_batch<double>(wl::Kind::needs_pivoting, 256,
                                              33, layout, /*seed=*/7);
    gpu::HybridOptions opts;
    opts.force_k = 0;
    opts.guard = true;
    const auto run = [&](gs::InstrumentMode mode, bool vector) {
      const gs::ScopedInstrumentMode scoped_mode(mode);
      const gs::ScopedVectorMode vec(vector);
      auto out = batch.clone();
      return gpu::hybrid_solve<double>(gs::gtx480(), out, opts);
    };
    const auto ref = run(gs::InstrumentMode::exact, true);
    const std::string what =
        std::string("p-Thomas guarded needs_pivoting ") +
        (layout == td::Layout::contiguous ? "contiguous" : "interleaved");
    ASSERT_EQ(ref.k, 0u) << what;
    ASSERT_EQ(ref.status.size(), batch.num_systems()) << what;
    expect_same_status(ref.status, run(gs::InstrumentMode::sampled, true).status,
                       what + " sampled");
    expect_same_status(ref.status,
                       run(gs::InstrumentMode::functional_only, true).status,
                       what + " functional, vector on");
    expect_same_status(ref.status,
                       run(gs::InstrumentMode::functional_only, false).status,
                       what + " functional, vector off");
  }
  EXPECT_EQ(counter("gpusim.sampling.mismatches"), mismatches_before);
}

TEST(VectorEngine, FloatPathBitIdentical) {
  const auto batch = wl::make_batch<float>(wl::Kind::random_dominant, 48, 203,
                                           td::Layout::interleaved, /*seed=*/9);
  td::SystemBatch<float> with_vec, without_vec;
  ASSERT_TRUE(solve_functional(gpu::SolverKind::hybrid, batch, true, with_vec));
  ASSERT_TRUE(
      solve_functional(gpu::SolverKind::hybrid, batch, false, without_vec));
  ASSERT_EQ(with_vec.total_rows(), without_vec.total_rows());
  for (std::size_t i = 0; i < with_vec.total_rows(); ++i) {
    std::uint32_t xb = 0, yb = 0;
    std::memcpy(&xb, &with_vec.d()[i], sizeof(float));
    std::memcpy(&yb, &without_vec.d()[i], sizeof(float));
    EXPECT_EQ(xb, yb) << i;
  }
}

// Hazard detection and fault injection must each keep the grid-wide
// sweep off: it skips per-access bookkeeping, so either would silently
// lose its observations. A guard is not an observer of that kind: the
// lane sweeps call the same guard per row and lane as the kernel bodies
// (statuses pinned by RegistryWideBitIdentityVectorOnVsOff), so a guarded
// run vectorizes exactly the blocks an unguarded one does.
TEST(VectorEngine, FaultsAndHazardsForceScalarFallback) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 128,
                                            td::Layout::interleaved, 11);
  td::SystemBatch<double> solution;
  gpu::SolverRunOptions functional;
  functional.instrument = gs::InstrumentMode::functional_only;

  // Baseline: the plain functional run takes the vector path.
  double plain_delta = 0.0;
  {
    const double before = counter("gpusim.vector.blocks");
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch,
                                  functional, &solution);
    plain_delta = counter("gpusim.vector.blocks") - before;
    EXPECT_GT(plain_delta, 0.0) << "plain functional run should vectorize";
  }

  // Guarded run: the sweeps carry the guard, so it vectorizes as much.
  {
    auto opts = functional;
    opts.guard = true;
    const double before = counter("gpusim.vector.blocks");
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch, opts,
                                  &solution);
    EXPECT_EQ(counter("gpusim.vector.blocks") - before, plain_delta)
        << "a guarded run vectorizes the blocks an unguarded run does";
  }

  // Hazard detection: needs per-access shared-memory tracking.
  {
    const gs::ScopedHazardMode detect(gs::HazardMode::detect);
    const double before = counter("gpusim.vector.blocks");
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch,
                                  functional, &solution);
    EXPECT_EQ(counter("gpusim.vector.blocks"), before)
        << "hazard-checked run must stay scalar";
  }

  // Active fault plan: victim sites are per-access, so the vectorized
  // sweep would never see its faults.
  {
    gs::FaultPlan plan;
    plan.seed = 1;
    plan.rate = 1e-9;  // active, but virtually never fires
    const gs::ScopedFaultPlan fault(plan);
    const double before = counter("gpusim.vector.blocks");
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch,
                                  functional, &solution);
    EXPECT_EQ(counter("gpusim.vector.blocks"), before)
        << "fault-injected run must stay scalar";
  }
}

// gpusim.vector.blocks also counts the blocks of an instrumented launch
// that run the lane sweeps block by block: in a sampled k = 0 solve,
// every block but the one recorded per cost class. With the sweeps off,
// or with hazard checks observing every block, it does not move.
TEST(VectorEngine, CounterCountsPerBlockLaneSweeps) {
  const auto dev = gs::gtx480();
  const gs::ScopedInstrumentMode sampled(gs::InstrumentMode::sampled);
  const auto solve_delta = [&](gpu::PthomasStats* stats) {
    auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4100, 33,
                                        td::Layout::interleaved, 17);
    std::vector<td::SystemRef<double>> systems;
    for (std::size_t m = 0; m < batch.num_systems(); ++m) {
      systems.push_back(batch.system(m));
    }
    const double before = counter("gpusim.vector.blocks");
    const auto run = gpu::pthomas_solve<double>(dev, systems);
    if (stats != nullptr) *stats = run;
    return counter("gpusim.vector.blocks") - before;
  };

  gpu::PthomasStats stats;
  const double delta = solve_delta(&stats);
  double unrecorded = 0.0;
  for (const gs::LaunchStats* launch : {&stats.forward, &stats.backward}) {
    EXPECT_GT(launch->instrumented_blocks, 0u);
    EXPECT_LT(launch->instrumented_blocks, launch->config.grid_blocks);
    unrecorded += static_cast<double>(launch->config.grid_blocks -
                                      launch->instrumented_blocks);
  }
  EXPECT_EQ(delta, unrecorded);
  {
    const gs::ScopedVectorMode off(false);
    EXPECT_EQ(solve_delta(nullptr), 0.0) << "--vector off runs the bodies";
  }
  {
    const gs::ScopedHazardMode detect(gs::HazardMode::detect);
    EXPECT_EQ(solve_delta(nullptr), 0.0) << "hazard checks observe every block";
  }
}

// Steady-state functional solves must perform zero pool growth: after a
// warm-up solve, repeated solves of the same shape serve every lane
// carry from the warm arena (reuses climb, acquires stay flat).
TEST(VectorEngine, PooledScratchZeroAllocSteadyState) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 128, 256,
                                            td::Layout::interleaved, 13);
  td::SystemBatch<double> solution;
  gpu::SolverRunOptions functional;
  functional.instrument = gs::InstrumentMode::functional_only;

  // Two warm-up solves: the first sizes the arenas (spill growth), the
  // second consolidates them (one growth per pool) — from then on every
  // take is served warm.
  for (int i = 0; i < 2; ++i) {
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch,
                                  functional, &solution);
  }
  const double acquires = counter("gpusim.scratch.acquires");
  const double reuses = counter("gpusim.scratch.reuses");
  for (int i = 0; i < 3; ++i) {
    (void)gpu::run_solver<double>(gpu::SolverKind::hybrid, dev, batch,
                                  functional, &solution);
  }
  EXPECT_EQ(counter("gpusim.scratch.acquires"), acquires)
      << "steady-state solves must not grow the lane pools";
  EXPECT_GT(counter("gpusim.scratch.reuses"), reuses)
      << "steady-state solves must serve from the warm arenas";
}

TEST(VectorEngine, LanePoolConsolidatesAndZeroInitializes) {
  gs::LanePool pool;
  pool.begin_block();
  auto first = pool.take<double>(100);
  ASSERT_EQ(first.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first.data()) % 64, 0u);
  for (double v : first) EXPECT_EQ(v, 0.0);
  first[0] = 42.0;
  auto second = pool.take<double>(50);  // spill chunk; first stays valid
  EXPECT_EQ(first[0], 42.0);
  for (double v : second) EXPECT_EQ(v, 0.0);

  std::size_t acquires = 0, reuses = 0;
  pool.drain(acquires, reuses);
  EXPECT_GT(acquires, 0u);

  // Next block consolidates: the same demand is now served warm.
  pool.begin_block();
  (void)pool.take<double>(100);
  (void)pool.take<double>(50);
  acquires = reuses = 0;
  pool.drain(acquires, reuses);
  EXPECT_EQ(acquires, 1u) << "one consolidation growth, then warm";
  EXPECT_EQ(reuses, 2u) << "both takes served from the consolidated arena";
  pool.begin_block();
  (void)pool.take<double>(100);
  (void)pool.take<double>(50);
  acquires = reuses = 0;
  pool.drain(acquires, reuses);
  EXPECT_EQ(acquires, 0u) << "steady state: zero allocations";
  EXPECT_EQ(reuses, 2u);
}

TEST(VectorEngine, LaneTilePowerOfTwoAndBudgetBound) {
  const std::size_t w = gs::lane_tile(512, sizeof(double));
  EXPECT_EQ(w & (w - 1), 0u);
  EXPECT_GE(w, 64u);
  EXPECT_LE(2 * 512 * sizeof(double) * w, std::size_t{128} << 20);
  // Tiny rows hit the upper clamp; huge rows the lower one.
  EXPECT_EQ(gs::lane_tile(1, 1), std::size_t{1} << 20);
  EXPECT_EQ(gs::lane_tile(std::size_t{1} << 22, sizeof(double)), 64u);
}
