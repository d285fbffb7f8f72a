// Sparse linear solves and factorization reuse for the MNA engines.
//
// SolverContext owns the per-solve workspaces (sparse assembler +
// factors) and a small cache of sparse symbolic analyses keyed by
// matrix pattern. The intended lifecycle mirrors the per-macro
// campaign contexts from the parallel engine:
//
//   1. The golden netlist is solved once; its symbolic analysis is
//      exported via shared_symbolic() into a SolverSeed stored in the
//      (read-only, thread-shared) macro context.
//   2. Every fault / envelope-sample solve builds a cheap SolverContext
//      from the seed. Monte-Carlo samples and most fault classes keep
//      the golden matrix pattern, so they refactor against the cached
//      symbolic without ever re-running the analysis; bridge faults
//      that add entries analyze their own pattern once and reuse it
//      across all Newton iterations and continuation rungs of that
//      solve.
//
// Every system takes the sparse path. Dense partial-pivoting LU is only
// the fallback for a matrix that sparse analysis rejects: the assembled
// system is densified and factored whole.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"

namespace dot::spice {

/// Settings of the sparse LU and its dense fallback.
struct SolverOptions {
  double pivot_epsilon = 1e-13;
};

/// Immutable per-macro solver state, shared read-only across worker
/// threads: the options plus the golden netlist's symbolic analysis.
struct SolverSeed {
  SolverOptions options;
  std::shared_ptr<const numeric::SparseSymbolic> symbolic;
};

/// Wall-time breakdown of a Newton/transient run, attributing each
/// iteration to its phases: device (companion-model) evaluation, MNA
/// assembly (stamping minus device eval), numeric factorization, and
/// triangular solves. Collected only when a PhaseTimes sink is attached
/// to the SolverContext (TranOptions::collect_phase_times, or a
/// campaign run with --phase-times); without one the hot loop stays
/// clock-free.
struct PhaseTimes {
  double device_eval_seconds = 0.0;
  double assembly_seconds = 0.0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;
  // Attribution of factor_seconds (filled inside SolverContext::factor;
  // the two sub-buckets sum to at most factor_seconds, the remainder
  // being dispatch overhead): from-scratch symbolic analysis and numeric
  // (re)factorization.
  double factor_symbolic_seconds = 0.0;
  double factor_numeric_seconds = 0.0;

  double total_seconds() const {
    return device_eval_seconds + assembly_seconds + factor_seconds +
           solve_seconds;
  }
  PhaseTimes& operator+=(const PhaseTimes& o) {
    device_eval_seconds += o.device_eval_seconds;
    assembly_seconds += o.assembly_seconds;
    factor_seconds += o.factor_seconds;
    solve_seconds += o.solve_seconds;
    factor_symbolic_seconds += o.factor_symbolic_seconds;
    factor_numeric_seconds += o.factor_numeric_seconds;
    return *this;
  }
};

/// Mutable per-solve workspace; cheap to construct from a SolverSeed
/// (copies two words and a shared_ptr). Not thread-safe; make one per
/// worker/solve like the Rng streams.
class SolverContext {
 public:
  SolverContext() = default;
  explicit SolverContext(const SolverOptions& options) : options_(options) {}
  explicit SolverContext(const SolverSeed& seed) : options_(seed.options) {
    if (seed.symbolic) cache_.push_back(seed.symbolic);
  }

  const SolverOptions& options() const { return options_; }

  /// Sparse assembly workspace (hand to assemble_mna, then factor(n)).
  numeric::SparseAssembler& assembler() { return assembler_; }

  /// newton_solve's right-hand side, solution and best-iterate
  /// buffers, kept here so a run of Newton solves reuses them.
  struct NewtonBuffers {
    std::vector<double> b, x_new, best_x;
  };
  NewtonBuffers& newton_buffers() { return newton_buffers_; }

  /// Factors what was just assembled for an n-unknown system: symbolic
  /// cache -> refactor -> re-analyze -> densified dense fallback.
  /// Returns false when the matrix is numerically singular on every
  /// path.
  bool factor(std::size_t n);

  /// Solves with the factors from the last successful factor() call.
  void solve(const std::vector<double>& b, std::vector<double>& x);

  /// Attaches (or detaches, with nullptr) a per-phase wall-time sink;
  /// newton_solve and the stamping hooks accumulate into it. The sink
  /// must outlive the context or be detached first.
  void set_phase_times(PhaseTimes* sink) { phase_times_ = sink; }
  PhaseTimes* phase_times() const { return phase_times_; }

  /// Symbolic analysis of the golden (first-analyzed) pattern, for
  /// seeding campaign contexts. Null when sparse analysis never
  /// accepted a matrix.
  std::shared_ptr<const numeric::SparseSymbolic> shared_symbolic() const {
    return cache_.empty() ? nullptr : cache_.front();
  }

  /// Number of from-scratch symbolic analyses this context has run
  /// (test/diagnostic hook: cache hits keep this flat).
  std::size_t symbolic_analyses() const { return symbolic_analyses_; }
  /// Number of numeric factorizations (factor() calls).
  std::size_t factorizations() const { return factorizations_; }
  /// Whether the last successful factor() used the sparse factors
  /// (false after the dense fallback).
  bool sparse_active() const { return sparse_active_; }

 private:
  SolverOptions options_;
  numeric::DenseLu dense_;  ///< Densified fallback only.
  numeric::SparseAssembler assembler_;
  numeric::SparseFactors factors_;
  NewtonBuffers newton_buffers_;
  /// Pattern-keyed symbolic cache, front = golden/seed entry.
  std::vector<std::shared_ptr<const numeric::SparseSymbolic>> cache_;
  /// The cache entry of the last sparse factorization (null after the
  /// dense fallback); factor() keeps it while the pattern is reused.
  std::shared_ptr<const numeric::SparseSymbolic> symbolic_;
  std::size_t symbolic_analyses_ = 0;
  std::size_t factorizations_ = 0;
  bool sparse_active_ = false;
  PhaseTimes* phase_times_ = nullptr;
};

}  // namespace dot::spice
