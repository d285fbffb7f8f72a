// Transient analysis: fixed-step backward Euler with automatic step
// halving on Newton failure. Every accepted time point stores the full
// unknown vector, so any node voltage or source branch current can be
// inspected after the run.
#pragma once

#include <string>
#include <vector>

#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace dot::spice {

struct TranOptions {
  double t_stop = 1e-6;
  double dt = 1e-9;
  double dt_min = 1e-13;    ///< Give up below this step size.
  DcOptions newton;         ///< Per-step Newton settings (time is ignored).
  /// Linear-solver settings; one SolverContext is reused across all
  /// time steps, so the sparse symbolic analysis is paid once per run.
  SolverOptions solver;
  bool start_from_dc = true;  ///< Solve the t=0 operating point first.
  /// Collect the per-phase wall-time breakdown (TranStats::phases).
  /// Off by default: the hot loop stays clock-free.
  bool collect_phase_times = false;
};

/// Aggregate solver work of one transient run (scaling diagnostics:
/// bench_bank plots unknowns vs per-Newton-solve wall time from these
/// counters).
struct TranStats {
  std::size_t unknowns = 0;           ///< MNA system size.
  std::size_t newton_iterations = 0;  ///< Across all step attempts.
  std::size_t gshunt_rescues = 0;     ///< Steps saved by the gshunt ladder.
  std::size_t factorizations = 0;     ///< Numeric factor() calls.
  std::size_t symbolic_analyses = 0;  ///< From-scratch sparse analyses.
  bool sparse = false;  ///< Sparse path active on the last factor.
  /// Wall-time breakdown by phase (device eval / assembly / factor /
  /// solve); all zero unless TranOptions::collect_phase_times was set.
  PhaseTimes phases;
};

/// Per-class sums over every transient() run inside an EvalScope that
/// carries this sink (see spice/resilience.hpp): the campaign's
/// --phase-times breakdown. A run adds its share when it returns and
/// also when it throws, so failed attempts are counted too.
struct TranTotals {
  /// Time the phases of every run in the scope, whatever its
  /// TranOptions::collect_phase_times says.
  bool collect_phase_times = false;
  PhaseTimes phases;
};

/// Result of a transient run; indexable by node name / source name via
/// the stored netlist metadata.
class TranResult {
 public:
  TranResult(MnaMap map, std::vector<std::string> node_names);

  void append(double time, std::vector<double> state);

  std::size_t steps() const { return times_.size(); }
  double time(std::size_t step) const { return times_[step]; }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& state(std::size_t step) const {
    return states_[step];
  }

  /// Voltage of a named node at a stored step.
  double voltage(std::size_t step, const std::string& node) const;
  /// Branch current of a named V source at a stored step.
  double current(std::size_t step, const std::string& source) const;

  /// Linear interpolation of a node voltage at an arbitrary time.
  double voltage_at(double time, const std::string& node) const;
  /// Linear interpolation of a source branch current at a time.
  double current_at(double time, const std::string& source) const;

  /// Whole time series of one node.
  std::vector<double> voltage_series(const std::string& node) const;

  const MnaMap& map() const { return map_; }

  /// Aggregate solver work of the run that produced this result.
  const TranStats& stats() const { return stats_; }
  void set_stats(const TranStats& stats) { stats_ = stats; }

 private:
  NodeId node_id(const std::string& node) const;
  std::size_t step_before(double time) const;

  MnaMap map_;
  std::vector<std::string> node_names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> states_;
  TranStats stats_;
};

/// Resumable core of the transient loop: one object advances a single
/// circuit from a given t=0 state, one *accepted* time point per step()
/// call (internal dt halving retries failed Newton solves). transient()
/// drives one stepper with its MosKernel installed; a stepper left with
/// the default stamp template runs the plain Stamper walk, which is the
/// bit-identity reference for that fast path.
class TranStepper {
 public:
  /// `netlist`, `map` and `solver` must outlive the stepper; `x0` is
  /// the state at t = 0 (post-DC operating point, or flat).
  TranStepper(const Netlist& netlist, const MnaMap& map,
              const TranOptions& options, std::vector<double> x0,
              SolverContext* solver);

  /// True once the final time point (t_stop) has been accepted.
  bool done() const { return t_ >= options_.t_stop - 1e-18; }
  /// Advances to the next accepted time point. Precondition: !done().
  /// Throws util::ConvergenceError when the step fails even at dt_min.
  void step();

  double time() const { return t_; }
  const std::vector<double>& state() const { return x_; }
  std::size_t newton_iterations() const { return newton_iterations_; }
  std::size_t gshunt_rescues() const { return gshunt_rescues_; }

  /// Stamp template used for every assembly: transient() installs its
  /// MosKernel hooks (prepare_assembly / stream_tag / program) here.
  /// Per-step fields (mode, dt, time, gshunt) are overwritten by step().
  StampOptions& stamp_overrides() { return stamp_; }

 private:
  /// Last-resort rescue once the step cascade has halved dt below
  /// dt_min: re-attempt a dt_min step under a gshunt continuation
  /// ladder (heavy node-to-ground shunts relaxed rung by rung, exactly
  /// the DC gmin ladder). The final rung runs at the nominal gshunt, so
  /// an accepted point solves the TRUE system -- the ladder only
  /// supplies warm starts. Returns false (leaving the state untouched)
  /// when even the ladder fails.
  bool gshunt_rescue();

  const Netlist& netlist_;
  const MnaMap& map_;
  TranOptions options_;
  SolverContext* solver_;
  StampOptions stamp_;
  std::vector<double> x_;
  std::vector<double> guess_;  ///< Newton starting point, reused per step.
  double t_ = 0.0;
  double dt_ = 0.0;
  std::size_t newton_iterations_ = 0;
  std::size_t gshunt_rescues_ = 0;
};

/// Runs the transient simulation: the t = 0 operating point (unless
/// start_from_dc is off) and the stepping loop, both assembling through
/// a per-run MosKernel. Throws util::ConvergenceError when a step
/// cannot be completed even at dt_min.
TranResult transient(const Netlist& netlist, const TranOptions& options);

}  // namespace dot::spice
