#include "spice/transient.hpp"

#include <algorithm>
#include <cstdio>
#include <cmath>

#include "spice/resilience.hpp"
#include "util/error.hpp"

namespace dot::spice {

TranResult::TranResult(MnaMap map, std::vector<std::string> node_names)
    : map_(std::move(map)), node_names_(std::move(node_names)) {}

void TranResult::append(double time, std::vector<double> state) {
  times_.push_back(time);
  states_.push_back(std::move(state));
}

NodeId TranResult::node_id(const std::string& node) const {
  if (node == "0" || node == "gnd") return kGround;
  for (std::size_t i = 0; i < node_names_.size(); ++i)
    if (node_names_[i] == node) return static_cast<NodeId>(i);
  throw util::InvalidInputError("TranResult: unknown node " + node);
}

double TranResult::voltage(std::size_t step, const std::string& node) const {
  return map_.voltage(states_[step], node_id(node));
}

double TranResult::current(std::size_t step, const std::string& source) const {
  return map_.branch_current(states_[step], source);
}

std::size_t TranResult::step_before(double time) const {
  if (times_.empty())
    throw util::InvalidInputError("TranResult: empty result");
  const auto it = std::upper_bound(times_.begin(), times_.end(), time);
  if (it == times_.begin()) return 0;
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

namespace {

double interpolate(double t0, double v0, double t1, double v1, double t) {
  if (t1 <= t0) return v1;
  const double frac = std::clamp((t - t0) / (t1 - t0), 0.0, 1.0);
  return v0 + frac * (v1 - v0);
}

}  // namespace

double TranResult::voltage_at(double time, const std::string& node) const {
  const std::size_t i = step_before(time);
  if (i + 1 >= times_.size()) return voltage(times_.size() - 1, node);
  return interpolate(times_[i], voltage(i, node), times_[i + 1],
                     voltage(i + 1, node), time);
}

double TranResult::current_at(double time, const std::string& source) const {
  const std::size_t i = step_before(time);
  if (i + 1 >= times_.size()) return current(times_.size() - 1, source);
  return interpolate(times_[i], current(i, source), times_[i + 1],
                     current(i + 1, source), time);
}

std::vector<double> TranResult::voltage_series(const std::string& node) const {
  std::vector<double> out(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) out[i] = voltage(i, node);
  return out;
}

TranStepper::TranStepper(const Netlist& netlist, const MnaMap& map,
                         const TranOptions& options, std::vector<double> x0,
                         SolverContext* solver)
    : netlist_(netlist),
      map_(map),
      options_(options),
      solver_(solver),
      x_(std::move(x0)),
      dt_(options.dt) {}

void TranStepper::step() {
  while (true) {
    dt_ = std::min(dt_, options_.t_stop - t_);
    const double t_next = t_ + dt_;

    stamp_.mode = AnalysisMode::kTransient;
    stamp_.dt = dt_;
    stamp_.time = t_next;
    stamp_.gshunt = options_.newton.gshunt;

    guess_ = x_;
    DcResult step = newton_solve(netlist_, map_, std::move(guess_), stamp_,
                                 options_.newton, x_, solver_);
    newton_iterations_ += static_cast<std::size_t>(step.iterations);
    // Whichever buffer is left over becomes the next guess's.
    if (step.converged) x_.swap(step.x);
    guess_ = std::move(step.x);
    if (!step.converged) {
      dt_ /= 2.0;
      if (dt_ < options_.dt_min) {
        // Seen on column-sized perturbed netlists starting from the
        // zero state: Newton fails at every dt, because the problem is
        // the operating region, not the step size. The gshunt ladder
        // walks the iterate there; its final rung is the unmodified
        // system, so an accepted rescue point is exact.
        if (gshunt_rescue()) return;
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "transient: step failed at t = %.6e even at dt_min", t_);
        throw util::ConvergenceError(msg);
      }
      continue;
    }
    t_ = t_next;
    // Recover the step size after successful steps.
    if (dt_ < options_.dt) dt_ = std::min(options_.dt, dt_ * 2.0);
    return;
  }
}

bool TranStepper::gshunt_rescue() {
  const double dt = options_.dt_min;
  stamp_.mode = AnalysisMode::kTransient;
  stamp_.dt = dt;
  stamp_.time = t_ + dt;
  guess_ = x_;
  for (double g = options_.newton.gshunt_start;; g /= 10.0) {
    const bool last = g <= options_.newton.gshunt;
    stamp_.gshunt = last ? options_.newton.gshunt : g;
    DcResult rung = newton_solve(netlist_, map_, std::move(guess_), stamp_,
                                 options_.newton, x_, solver_);
    newton_iterations_ += static_cast<std::size_t>(rung.iterations);
    guess_ = std::move(rung.x);
    if (!rung.converged) return false;
    if (last) break;
  }
  x_.swap(guess_);
  t_ += dt;
  dt_ = dt;  // the normal per-step recovery doubles it back up
  ++gshunt_rescues_;
  return true;
}

TranResult transient(const Netlist& netlist, const TranOptions& options) {
  if (options.dt <= 0.0 || options.t_stop <= 0.0)
    throw util::InvalidInputError("transient: dt and t_stop must be positive");

  const MnaMap map(netlist);
  std::vector<std::string> node_names;
  node_names.reserve(netlist.node_count());
  for (std::size_t i = 0; i < netlist.node_count(); ++i)
    node_names.push_back(netlist.node_name(static_cast<NodeId>(i)));
  TranResult result(map, std::move(node_names));

  // One solver context for the whole run: the matrix pattern is fixed,
  // so every time step after the first refactors against the cached
  // symbolic analysis.
  SolverContext solver(options.solver);
  TranTotals* const totals = EvalScope::tran_totals();
  PhaseTimes phases;
  if (options.collect_phase_times ||
      (totals != nullptr && totals->collect_phase_times))
    solver.set_phase_times(&phases);
  MosKernel kernel(netlist, map);
  kernel.set_phase_times(solver.phase_times());
  MosKernel* const fast = kernel.size() > 0 ? &kernel : nullptr;

  // Hands this run's share to the enclosing class scope, on success
  // and on a ConvergenceError alike.
  auto report = [&] {
    if (totals != nullptr) totals->phases += phases;
  };

  TranStats stats;
  stats.unknowns = map.size();
  try {
    // Initial condition.
    std::vector<double> x(map.size(), 0.0);
    if (options.start_from_dc) {
      DcOptions dc = options.newton;
      dc.time = 0.0;
      const DcResult op =
          dc_operating_point(netlist, map, dc, nullptr, &solver, fast);
      stats.newton_iterations += static_cast<std::size_t>(op.iterations);
      x = op.x;
    }
    result.append(0.0, x);

    TranStepper stepper(netlist, map, options, std::move(x), &solver);
    if (fast != nullptr)
      fast->install(stepper.stamp_overrides(), kTransientStreamTag);
    while (!stepper.done()) {
      stepper.step();
      result.append(stepper.time(), stepper.state());
    }
    stats.newton_iterations += stepper.newton_iterations();
    stats.gshunt_rescues = stepper.gshunt_rescues();
  } catch (...) {
    report();
    throw;
  }
  report();
  stats.factorizations = solver.factorizations();
  stats.symbolic_analyses = solver.symbolic_analyses();
  stats.sparse = solver.sparse_active();
  stats.phases = phases;
  result.set_stats(stats);
  return result;
}

}  // namespace dot::spice
