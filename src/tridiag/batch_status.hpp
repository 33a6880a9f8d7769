#pragma once
// Per-system solve statuses for batched workloads.
//
// A 65K-system batch must not be poisoned by one singular member: every
// batched solve path records one SolveStatus per system here, so callers
// can tell exactly which systems failed (and why), and the resilient
// pipeline re-solves just those, leaving the rest untouched.
//
// Statuses merge via absorb(): a batched pipeline has several stages
// (tiled PCR, then p-Thomas, then a post-solve scan), each of which may
// flag the same system; the most severe code and the largest pivot-growth
// estimate win, and the first stage to flag keeps its offending row.
//
// Contracts: BatchStatus is a plain container with no synchronization —
// concurrent writers must own disjoint slots (each p-Thomas lane owns one
// system, each tiled-PCR block a disjoint window range), merging happens
// post-launch in deterministic order. Detection is read-only: recording a
// status changes no arithmetic and no simulated cost, so guarded runs are
// bit-identical to unguarded ones. Pivot growth is the dimensionless
// ratio max|coef| / |pivot|; rows are 0-based element indices.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "tridiag/types.hpp"

namespace tridsolve::tridiag {

/// Severity order for merging statuses from multiple pipeline stages —
/// and the resilient pipeline's error taxonomy. Transient execution
/// failures (timed_out, launch_failed) rank between the numerical codes a
/// retry can plausibly clear and the terminal ones (singular: the matrix
/// itself is bad; deadline: the budget is gone; overloaded: the service
/// shed the request before spending compute; bad_size: the request was
/// malformed).
[[nodiscard]] constexpr int solve_code_severity(SolveCode c) noexcept {
  switch (c) {
    case SolveCode::ok: return 0;
    case SolveCode::near_singular: return 1;
    case SolveCode::zero_pivot: return 2;
    case SolveCode::timed_out: return 3;
    case SolveCode::launch_failed: return 4;
    case SolveCode::singular: return 5;
    case SolveCode::deadline: return 6;
    case SolveCode::overloaded: return 7;
    case SolveCode::bad_size: return 8;
    case SolveCode::bad_argument: return 9;
  }
  return 0;
}

/// Default pivot-growth limit above which a completed solve is flagged
/// near_singular: 1/sqrt(eps) of the working precision, the classical
/// point past which half the mantissa is amplification noise.
template <typename T>
[[nodiscard]] inline double default_growth_limit() noexcept {
  return 1.0 /
         std::sqrt(static_cast<double>(std::numeric_limits<T>::epsilon()));
}

/// One SolveStatus per system of a batch.
class BatchStatus {
 public:
  BatchStatus() = default;
  explicit BatchStatus(std::size_t num_systems) : sys_(num_systems) {}

  [[nodiscard]] std::size_t size() const noexcept { return sys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sys_.empty(); }
  void resize(std::size_t num_systems) {
    sys_.assign(num_systems, {});
    attempts_.clear();
    detected_.clear();
  }

  [[nodiscard]] SolveStatus& operator[](std::size_t m) noexcept { return sys_[m]; }
  [[nodiscard]] const SolveStatus& operator[](std::size_t m) const noexcept {
    return sys_[m];
  }

  /// Merge a stage's verdict for system m: higher-severity code wins (the
  /// first stage to reach that severity keeps its row), growth is the max.
  void absorb(std::size_t m, const SolveStatus& s) noexcept {
    SolveStatus& cur = sys_[m];
    if (solve_code_severity(s.code) > solve_code_severity(cur.code)) {
      cur.code = s.code;
      cur.index = s.index;
    }
    if (s.pivot_growth > cur.pivot_growth) cur.pivot_growth = s.pivot_growth;
  }

  /// Record one *attempt* at system m (the resilient pipeline's merge,
  /// distinct from absorb()): the live status becomes the latest
  /// attempt's verdict — a clean retry clears an earlier flag — while a
  /// sticky per-system detection record keeps the worst code ever seen
  /// (absorb semantics) and the attempt counter the full tally. The
  /// caller applies chunks in ascending system order, so merges from any
  /// chunking are deterministic and severity-ordered absorb no longer
  /// erases per-attempt provenance.
  void record_attempt(std::size_t m, const SolveStatus& s) {
    if (attempts_.size() != sys_.size()) {
      attempts_.assign(sys_.size(), 0);
      detected_ = sys_;  // seed the sticky record with pre-attempt state
    }
    ++attempts_[m];
    SolveStatus& det = detected_[m];
    if (solve_code_severity(s.code) > solve_code_severity(det.code)) {
      det.code = s.code;
      det.index = s.index;
    }
    if (s.pivot_growth > det.pivot_growth) det.pivot_growth = s.pivot_growth;
    sys_[m] = s;
  }

  /// Attempts recorded against system m (0 without provenance).
  [[nodiscard]] std::uint32_t attempts(std::size_t m) const noexcept {
    return m < attempts_.size() ? attempts_[m] : 0;
  }

  /// Sticky detection record for system m: the worst code any attempt
  /// reported (the live operator[] is the *latest* attempt's verdict).
  /// Falls back to the live status when no attempts were recorded.
  [[nodiscard]] const SolveStatus& detected(std::size_t m) const noexcept {
    return m < detected_.size() ? detected_[m] : sys_[m];
  }

  /// Upgrade ok systems whose recorded growth exceeds `limit` to
  /// near_singular (the guard's last detection step).
  void apply_growth_limit(double limit) noexcept {
    if (!(limit > 0.0)) return;
    for (auto& s : sys_) {
      if (s.code == SolveCode::ok && !(s.pivot_growth <= limit)) {
        s.code = SolveCode::near_singular;
      }
    }
  }

  [[nodiscard]] bool all_ok() const noexcept {
    for (const auto& s : sys_) {
      if (!s.ok()) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t flagged_count() const noexcept {
    std::size_t n = 0;
    for (const auto& s : sys_) n += s.ok() ? 0 : 1;
    return n;
  }

 private:
  std::vector<SolveStatus> sys_;
  // Attempt provenance (resilient pipeline); empty until record_attempt.
  std::vector<std::uint32_t> attempts_;
  std::vector<SolveStatus> detected_;
};

}  // namespace tridsolve::tridiag
