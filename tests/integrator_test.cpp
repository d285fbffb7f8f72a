// Integration-method test: backward Euler, the transient engine's one
// integrator, must show its first order of accuracy on a smooth
// circuit -- halving the step halves the error.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot::spice {
namespace {

/// RC low-pass driven by a sine from rest: error against the full
/// analytic solution (forced response + decaying transient) at t_stop.
/// The excitation is smooth, so the integrator exhibits its nominal
/// order.
double rc_sine_error(double dt) {
  constexpr double kR = 1e3, kC = 1e-6, kF = 200.0;
  SineParams sp;
  sp.amplitude = 1.0;
  sp.freq_hz = kF;
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::sine(sp));
  n.add_resistor("R1", "in", "out", kR);
  n.add_capacitor("C1", "out", "0", kC);
  TranOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = dt;
  const auto result = transient(n, opt);

  const double tau = kR * kC;
  const double w = 2.0 * M_PI * kF;
  const double amp = 1.0 / std::sqrt(1.0 + w * w * tau * tau);
  const double phi = std::atan(w * tau);
  const double t = opt.t_stop;
  const double expected = amp * std::sin(w * t - phi) +
                          amp * std::sin(phi) * std::exp(-t / tau);
  return std::fabs(result.voltage(result.steps() - 1, "out") - expected);
}

TEST(Integrator, ObservedOrders) {
  // Halving the step should roughly halve the error.
  const double be1 = rc_sine_error(40e-6);
  const double be2 = rc_sine_error(20e-6);
  EXPECT_NEAR(be1 / be2, 2.0, 0.4);
}

}  // namespace
}  // namespace dot::spice
