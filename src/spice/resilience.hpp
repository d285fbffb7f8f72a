// Per-class evaluation guard state for the campaign resilience layer.
//
// A fault-simulation campaign evaluates thousands of independent faulty
// netlists; a single pathological one (a hard supply short whose Newton
// iteration never settles) must not cost hours of completed work. The
// campaign layer wraps each fault-class evaluation in an EvalScope that
// carries
//
//   * a wall-clock deadline, checked once per Newton iteration and per
//     factorization -- expiry throws util::TimeoutError, which (unlike
//     ConvergenceError) no macro simulator swallows, so it surfaces at
//     the per-class guard;
//   * the continuation *aid level*: each retry of a failed class
//     escalates the ladder dc_operating_point walks (extended gmin
//     stepping -> finer source-stepping ramp -> heavily damped Newton
//     from a reset start). Level 0 is the stock strategy set, so
//     non-campaign callers see byte-identical behaviour;
//   * an optional TranTotals sink (spice/transient.hpp): every
//     transient() run inside the scope adds its phase times to it, so
//     a campaign attributes solver work per class without threading a
//     sink through each macro simulator.
//
// EvalScope is thread-local and nests (campaigns run nested parallel
// loops); the innermost scope wins.
//
// The file also hosts the test-only fault-injection hook consulted by
// SolverContext::factor -- the only way to exercise retry, escalation
// and unresolved accounting deterministically in the test suite.
// Injection is flag-gated: nothing is consulted until a plan is
// installed, and the hot-path cost is one relaxed atomic load.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace dot::spice {

struct TranTotals;

/// Evaluation budget for one fault-class attempt.
struct EvalBudget {
  /// Wall-clock budget per attempt in milliseconds; 0 disables the
  /// deadline.
  double timeout_ms = 0.0;
  /// Continuation aid-ladder rung (0 = stock strategies; see dc.cpp).
  int aid_level = 0;
};

/// RAII marker: "this thread is evaluating fault class `class_index` of
/// `macro` under `budget`".
class EvalScope {
 public:
  EvalScope(std::string macro, std::size_t class_index, EvalBudget budget,
            TranTotals* totals = nullptr);
  ~EvalScope();
  EvalScope(const EvalScope&) = delete;
  EvalScope& operator=(const EvalScope&) = delete;

  /// Innermost active scope on this thread (nullptr outside campaigns).
  static const EvalScope* current();

  /// Throws util::TimeoutError when the innermost scope's deadline has
  /// passed; no-op without a scope or without a deadline. Called once
  /// per Newton iteration.
  static void check_deadline();

  /// Aid level of the innermost scope (0 without one).
  static int aid_level();

  /// TranTotals sink of the innermost scope (nullptr without one).
  static TranTotals* tran_totals();

  const std::string& macro() const { return macro_; }
  std::size_t class_index() const { return class_index_; }
  const EvalBudget& budget() const { return budget_; }
  bool expired() const;

 private:
  std::string macro_;
  std::size_t class_index_ = 0;
  EvalBudget budget_;
  TranTotals* totals_ = nullptr;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  EvalScope* prev_ = nullptr;
};

/// Test-only sabotage of chosen fault classes (see resilience_test).
struct InjectionPlan {
  enum class Mode {
    /// factor() throws ConvergenceError: the macro simulators convert
    /// this to converged=false, i.e. detected-by-construction -- the
    /// campaign must complete, not abort.
    kConvergence,
    /// factor() throws TimeoutError (simulated deadline expiry): the
    /// class guard retries and finally records the class unresolved.
    kTimeout,
    /// factor() throws TimeoutError unless the active aid level is at
    /// least `min_aid_level`: exercises ladder escalation succeeding.
    kFailBelowAid,
  };
  Mode mode = Mode::kTimeout;
  /// Fault-class indices to sabotage (within the targeted macro).
  std::vector<std::size_t> class_indices;
  int min_aid_level = 0;
  /// Restrict to one macro; empty = any macro.
  std::string macro;
};

/// Installs / clears the process-wide injection plan. Not thread-safe
/// against concurrent campaigns -- install before running, clear after.
void set_injection_plan(InjectionPlan plan);
void clear_injection_plan();

/// Consulted by SolverContext::factor. No-op unless a plan is installed
/// AND the calling thread is inside an EvalScope matching the plan.
void injection_point();

}  // namespace dot::spice
