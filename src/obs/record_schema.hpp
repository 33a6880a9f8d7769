#pragma once
// The bench JSONL record schema, declared once. A record is one JSON
// object per line (bench::Telemetry writes them); this header lists every
// field group such a record may carry, one value rule per field, the
// cross-field orders, and the names an enum-valued field may take.
// Writers emit the keys declared here (bench::Telemetry builds its
// hazard and fault counter deltas from the declaration), and
// tools/validate_telemetry checks each record with check_record().
//
// Presence: the base group is required; every other top-level group is
// all-or-nothing — a record carries every field of it or none. The
// nested blocks are checked whole where they apply: the roofline block
// inline when a record has `frac_bandwidth` and for each entry of a
// `roofline` map, the histogram block under `hist_launch_us`.

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace tridsolve::obs {

/// What one field's value must be.
enum class Rule {
  number,        ///< any number
  non_negative,  ///< a number >= 0
  positive,      ///< a number > 0
  at_least_one,  ///< a number >= 1
  flag,          ///< 0 or 1
  unit,          ///< a number in [0, 1]
  text,          ///< a non-empty string
  name,          ///< one of Field::names
};

struct Field {
  std::string_view key;
  Rule rule;
  /// Rule::name: the accepted values.
  std::span<const std::string_view> names = {};
  /// Counter-delta fields: the metrics counter whose change since the
  /// previous record the field carries.
  std::string_view counter = {};
};

/// Cross-field order: the value at `lo` must not exceed the one at `hi`.
struct Order {
  std::string_view lo, hi;
};

struct Group {
  std::string_view name;
  bool required;  ///< false: all-or-nothing
  std::span<const Field> fields;
  std::span<const Order> orders = {};
};

// Names of enums defined above obs, in enum order; RecordSchema tests pin
// each list to its enum's name function.

/// tridiag::SolveCode (solve_code_name).
inline constexpr std::string_view solve_code_names[] = {
    "ok", "near_singular", "zero_pivot", "singular", "timed_out",
    "launch_failed", "deadline", "overloaded", "bad_size", "bad_argument"};
/// gpu::PlanSource (plan_source_name).
inline constexpr std::string_view plan_source_names[] = {
    "heuristic", "forced", "calibrated", "autotuned"};
/// gpusim::HazardMode (hazard_mode_name) as records carry it: the mode is
/// written only while detection is on, so "off" is not a record value.
inline constexpr std::string_view hazard_mode_names[] = {"detect", "fatal"};
/// gpu::WindowVariant (window_variant_name) as a calibrated plan pins it:
/// "auto" is a request, never a plan.
inline constexpr std::string_view window_variant_names[] = {
    "one_block_per_system", "split_system", "multi_system_per_block"};
/// RooflineAttribution::bound (obs/roofline.hpp).
inline constexpr std::string_view roofline_bound_names[] = {"bandwidth",
                                                            "compute"};

inline constexpr Field base_fields[] = {
    {"bench", Rule::text},
    {"solver", Rule::text},
    {"m", Rule::positive},
    {"n", Rule::positive},
    {"time_us", Rule::non_negative},
};

/// Systems the pivot guard flagged (hybrid-family records).
inline constexpr Field guard_fields[] = {
    {"guard_flagged", Rule::non_negative},
};

/// Shared-memory hazard findings (--check-hazards).
inline constexpr Field hazard_fields[] = {
    {"hazard_mode", Rule::name, hazard_mode_names},
    {"hazard_raw", Rule::non_negative, {}, "gpusim.hazard.raw"},
    {"hazard_war", Rule::non_negative, {}, "gpusim.hazard.war"},
    {"hazard_waw", Rule::non_negative, {}, "gpusim.hazard.waw"},
    {"hazard_oob", Rule::non_negative, {}, "gpusim.hazard.oob"},
    {"hazard_divergence", Rule::non_negative, {},
     "gpusim.hazard.divergence"},
};

/// Injected faults (--fault-seed/--fault-rate/--fault-kinds).
inline constexpr Field fault_fields[] = {
    {"fault_seed", Rule::non_negative},
    {"fault_rate", Rule::unit},
    {"fault_bit_flips", Rule::non_negative, {}, "gpusim.fault.bit_flips"},
    {"fault_shared_corruptions", Rule::non_negative, {},
     "gpusim.fault.shared_corruptions"},
    {"fault_nan_writes", Rule::non_negative, {}, "gpusim.fault.nan_writes"},
    {"fault_launch_failures", Rule::non_negative, {},
     "gpusim.fault.launch_failures"},
    {"fault_timeouts", Rule::non_negative, {}, "gpusim.fault.timeouts"},
};

/// What the resilient solve pipeline did.
inline constexpr Field resilience_fields[] = {
    {"resilience_worst", Rule::name, solve_code_names},
    {"resilience_retries", Rule::non_negative},
    {"resilience_fallbacks", Rule::non_negative},
    {"resilience_spent_us", Rule::non_negative},
    {"resilience_partial", Rule::flag},
    {"resilience_deadline_exceeded", Rule::flag},
};

/// The plan a hybrid solve ran with, or the autotuner's pick.
inline constexpr Field plan_fields[] = {
    {"plan_source", Rule::name, plan_source_names},
    {"plan_k", Rule::non_negative},
    {"plan_variant", Rule::text},
    {"plan_c", Rule::at_least_one},
};

/// One bench_service run: offered vs achieved load, coalescing, latency,
/// hardening tallies and the simulated economics.
inline constexpr Field service_fields[] = {
    {"service_offered_rps", Rule::non_negative},
    {"service_achieved_rps", Rule::non_negative},
    {"service_requests", Rule::at_least_one},
    {"service_expired", Rule::non_negative},
    {"service_batches", Rule::non_negative},
    {"service_occupancy_mean", Rule::non_negative},
    {"service_occupancy_max", Rule::non_negative},
    {"service_p50_us", Rule::non_negative},
    {"service_p99_us", Rule::non_negative},
    {"service_batched_sim_us", Rule::non_negative},
    {"service_solo_sim_us", Rule::non_negative},
    {"service_shed", Rule::non_negative},
    {"service_degraded", Rule::non_negative},
    {"service_retried", Rule::non_negative},
};
/// Each request is counted at most once per tally.
inline constexpr Order service_orders[] = {
    {"service_expired", "service_requests"},
    {"service_shed", "service_requests"},
    {"service_degraded", "service_requests"},
    {"service_retried", "service_requests"},
    {"service_occupancy_mean", "service_occupancy_max"},
    {"service_p50_us", "service_p99_us"},
};

/// The host a timed record ran on: logical CPU count, CPU model, and the
/// share of host CPU time stolen by the hypervisor during the record's
/// timed repeats (/proc/stat), which explains run-to-run wall spread.
inline constexpr Field host_fields[] = {
    {"host_nproc", Rule::at_least_one},
    {"host_cpu_model", Rule::text},
    {"host_steal_share", Rule::unit},
};

/// Top-level groups, in check order.
inline constexpr Group record_groups[] = {
    {"base", true, base_fields},
    {"guard", false, guard_fields},
    {"hazard", false, hazard_fields},
    {"fault", false, fault_fields},
    {"resilience", false, resilience_fields},
    {"plan", false, plan_fields},
    {"service", false, service_fields, service_orders},
    {"host", false, host_fields},
};

/// Roofline attribution of one phase (bench_profile).
inline constexpr Field roofline_fields[] = {
    {"bytes_global", Rule::non_negative},
    {"bytes_shared", Rule::non_negative},
    {"flops_f32", Rule::non_negative},
    {"flops_f64", Rule::non_negative},
    {"achieved_gbps", Rule::non_negative},
    {"achieved_gflops", Rule::non_negative},
    {"frac_bandwidth", Rule::non_negative},
    {"frac_compute", Rule::non_negative},
    {"intensity", Rule::non_negative},
    {"time_us", Rule::non_negative},
    {"peak_gbps", Rule::positive},
    {"bound", Rule::name, roofline_bound_names},
};
inline constexpr Group roofline_block = {"roofline", true, roofline_fields};

/// Launch-latency histogram snapshot (obs::LogHistogram quantiles).
inline constexpr Field hist_fields[] = {
    {"count", Rule::non_negative},
    {"p50", Rule::number},
    {"p90", Rule::number},
    {"p99", Rule::number},
    {"max", Rule::number},
};
inline constexpr Order hist_orders[] = {
    {"p50", "p90"}, {"p90", "p99"}, {"p99", "max"}};
inline constexpr Group hist_launch_block = {"hist_launch_us", true,
                                            hist_fields, hist_orders};

/// The first way `rec` (a JSON object) breaks the schema, or nullopt when
/// it obeys every group, block and order above.
[[nodiscard]] std::optional<std::string> check_record(const JsonValue& rec);

}  // namespace tridsolve::obs
