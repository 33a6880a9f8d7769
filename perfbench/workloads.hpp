#pragma once
// The benchmark's four workloads. Each one generates its inputs from the
// seed, builds the objects it drives, runs a timed phase through the
// library's public API and checks every output. RATIONALE.md records why
// each exists and which layer it isolates.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// End-to-end figures of one timed phase. Host times exclude the
/// benchmark's own output checks.
struct Phase {
  Samples op_ms;  ///< host ms per operation (pass, step, request)
  /// 10^6 rows of ok operations per host second: one sample per pass or
  /// step, or per 0.25 s window of a service phase.
  std::vector<double> mrows_s;
  double sim_us = 0.0;        ///< simulated GTX480 us per operation
  std::size_t sent = 0;       ///< operations attempted
  std::size_t slo_ok = 0;     ///< ok (and within the latency objective)
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Simulation threads this workload pins, so that the benchmark's own
  /// threads, the service batcher and the engine pool fit in nproc.
  [[nodiscard]] virtual std::size_t sim_threads() const noexcept = 0;
  /// Generate inputs, construct objects, empty the plan cache and produce
  /// the first checked result. Repeatable: each call starts over.
  virtual void setup() = 0;
  /// Untimed checks that need more than the timed path (e.g. 1 vs nproc
  /// simulation threads).
  virtual void verify() {}
  /// Timed phase of `seconds` of host time.
  virtual Phase run(double seconds) = 0;
  /// Untimed load before the timed phases, so that they start in steady
  /// state. By default one shortest run().
  virtual void warm_up() { run(0.0); }
  /// Per-layer metrics of the last run() (called after a traced phase).
  virtual void layer_metrics(Report& out) = 0;
  /// Workload-specific names for the end-to-end figures of `p` (text).
  virtual void describe(const Phase& p) const = 0;
  /// Layer probes for the traced run: single public calls at the
  /// workload's shapes, timed on their own.
  virtual void probe(Report& /*out*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Tally& tally);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Span count at which a traced phase stops early, so the tracer never
/// drops spans (the traced run sets it before each phase).
extern std::size_t g_span_budget;

}  // namespace perfbench
