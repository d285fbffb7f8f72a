// Tests for the extended device set: VCCS, inductors (branch-current
// unknowns, BE/TRAP companions, AC impedance) and junction diodes --
// plus cross-validations: RLC resonance against the analytic formula
// and transient steady state against the AC solution.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "spice/netlist_io.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::spice {
namespace {

TEST(Vccs, DcTransconductance) {
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::dc(0.5));
  n.add_vccs("G1", "0", "out", "in", "0", 2e-3);  // pushes into out
  n.add_resistor("RL", "out", "0", 1e3);
  const MnaMap map(n);
  const auto r = dc_operating_point(n, map);
  // i = gm * 0.5 = 1 mA into 1k -> 1 V.
  EXPECT_NEAR(map.voltage(r.x, *n.find_node("out")), 1.0, 1e-6);
}

TEST(Inductor, DcActsAsShort) {
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::dc(2.0));
  n.add_resistor("R1", "in", "mid", 1e3);
  n.add_inductor("L1", "mid", "out", 1e-3);
  n.add_resistor("R2", "out", "0", 1e3);
  const MnaMap map(n);
  const auto r = dc_operating_point(n, map);
  EXPECT_NEAR(map.voltage(r.x, *n.find_node("mid")), 1.0, 1e-6);
  EXPECT_NEAR(map.voltage(r.x, *n.find_node("out")), 1.0, 1e-6);
  // The inductor branch current equals the loop current, 1 mA.
  EXPECT_NEAR(map.branch_current(r.x, "L1"), 1e-3, 1e-8);
}

TEST(Inductor, RlRiseTimeMatchesAnalytic) {
  // L/R time constant: i(t) = (V/R)(1 - exp(-t R / L)).
  Netlist n;
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 1.0;
  p.rise = 1e-12;
  p.fall = 1e-12;
  p.width = 1.0;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(p));
  n.add_resistor("R1", "in", "x", 100.0);
  n.add_inductor("L1", "x", "0", 1e-3);  // tau = 10 us
  TranOptions opt;
  opt.t_stop = 30e-6;
  opt.dt = 0.1e-6;
  const auto r = transient(n, opt);
  for (double t : {5e-6, 10e-6, 20e-6}) {
    const double expected = 0.01 * (1.0 - std::exp(-t / 10e-6));
    // The inductor current appears as the branch unknown.
    double measured = 0.0;
    // interpolate via states: use nearest step
    std::size_t step = 0;
    for (std::size_t i = 0; i < r.steps(); ++i)
      if (std::fabs(r.time(i) - t) < std::fabs(r.time(step) - t)) step = i;
    measured = r.current(step, "L1");
    EXPECT_NEAR(measured, expected, 0.02 * 0.01) << "t = " << t;
  }
}

TEST(Inductor, RlcResonanceMatchesAnalytic) {
  // Series RLC driven through R: at resonance the LC tank (parallel
  // output) -- use a series RLC low-pass: V_c peaks near
  // f0 = 1/(2*pi*sqrt(LC)) with Q = (1/R)*sqrt(L/C).
  Netlist n;
  n.add_vsource("VIN", "in", "0", SourceSpec::dc(0.0));
  n.add_resistor("R1", "in", "x", 50.0);
  n.add_inductor("L1", "x", "y", 1e-3);
  n.add_capacitor("C1", "y", "0", 1e-9);  // f0 = 159.2 kHz, Q = 20
  AcOptions opt;
  opt.source = "VIN";
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(1e-3 * 1e-9));
  opt.frequencies = {f0 / 10.0, f0, f0 * 10.0};
  const auto r = ac_analysis(n, opt);
  const double q = std::sqrt(1e-3 / 1e-9) / 50.0;
  // Far below resonance: unity; at resonance: Q; far above: rolloff.
  EXPECT_NEAR(r.magnitude_db(0, "y"), 0.0, 0.1);
  EXPECT_NEAR(r.magnitude_db(1, "y"), 20.0 * std::log10(q), 0.2);
  EXPECT_LT(r.magnitude_db(2, "y"), -35.0);
}

TEST(Inductor, TransientSteadyStateMatchesAc) {
  // Drive the RLC with a sine near resonance and compare the settled
  // transient amplitude against the AC magnitude -- a cross-validation
  // of the two engines.
  const double f = 120e3;
  SineParams sp;
  sp.amplitude = 0.1;
  sp.freq_hz = f;
  Netlist n;
  n.add_vsource("VIN", "in", "0", SourceSpec::sine(sp));
  n.add_resistor("R1", "in", "x", 200.0);
  n.add_inductor("L1", "x", "y", 1e-3);
  n.add_capacitor("C1", "y", "0", 1e-9);

  AcOptions ac_opt;
  ac_opt.source = "VIN";
  ac_opt.frequencies = {f};
  const double expected_gain =
      std::abs(ac_analysis(n, ac_opt).voltage(0, "y"));

  TranOptions tr;
  tr.t_stop = 200e-6;  // many periods; Q ~ 5 settles in ~10 periods
  tr.dt = 20e-9;
  const auto r = transient(n, tr);
  double peak = 0.0;
  for (std::size_t i = 0; i < r.steps(); ++i)
    if (r.time(i) > 150e-6)
      peak = std::max(peak, std::fabs(r.voltage(i, "y")));
  EXPECT_NEAR(peak, 0.1 * expected_gain, 0.05 * 0.1 * expected_gain);
}

TEST(Diode, ExponentialForwardCharacteristic) {
  Diode d;
  d.i_sat = 1e-14;
  const auto op1 = eval_diode(d, 0.6);
  const auto op2 = eval_diode(d, 0.6 + 0.02585 * std::log(10.0));
  EXPECT_NEAR(op2.id / op1.id, 10.0, 0.01);  // 60 mV per decade
  EXPECT_NEAR(op1.gd, op1.id / 0.02585, 0.02 * op1.gd);
  // Reverse: saturation current.
  EXPECT_NEAR(eval_diode(d, -1.0).id, -1e-14, 1e-16);
}

TEST(Diode, RectifierOperatingPoint) {
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::dc(5.0));
  n.add_resistor("R1", "in", "a", 1e3);
  n.add_diode("D1", "a", "0");
  const MnaMap map(n);
  const auto r = dc_operating_point(n, map);
  const double va = map.voltage(r.x, *n.find_node("a"));
  // Forward drop ~0.75 V at ~4 mA.
  EXPECT_GT(va, 0.6);
  EXPECT_LT(va, 0.9);
  const double i = (5.0 - va) / 1e3;
  EXPECT_NEAR(eval_diode(Diode{}, va).id, i, 0.02 * i);
}

TEST(Diode, ReverseBlocksTransient) {
  Netlist n;
  SineParams sp;
  sp.amplitude = 2.0;
  sp.freq_hz = 1e3;
  n.add_vsource("V1", "in", "0", SourceSpec::sine(sp));
  n.add_diode("D1", "in", "out");
  // Hold time constant (10 ms) far above the period so the peak holds.
  n.add_resistor("RL", "out", "0", 1e6);
  n.add_capacitor("CF", "out", "0", 10e-9);
  TranOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 1e-6;
  const auto r = transient(n, opt);
  // Peak rectifier: output settles near the peak minus the diode drop.
  const double out = r.voltage(r.steps() - 1, "out");
  EXPECT_GT(out, 1.0);
  EXPECT_LT(out, 2.0);
  // Output never goes significantly negative.
  for (std::size_t i = 0; i < r.steps(); ++i)
    EXPECT_GT(r.voltage(i, "out"), -0.05);
}

TEST(DeckIo, NewDevicesRoundTrip) {
  Netlist n;
  n.add_vccs("G1", "out", "0", "in", "0", 3e-3);
  n.add_inductor("L1", "a", "b", 4.7e-6);
  n.add_diode("D1", "b", "0", 2e-14, 1.2);
  const std::string deck1 = to_deck(n);
  const Netlist reparsed = parse_deck(deck1);
  EXPECT_EQ(to_deck(reparsed), deck1);
  const auto& diode = std::get<Diode>(*reparsed.find_device("D1"));
  EXPECT_DOUBLE_EQ(diode.i_sat, 2e-14);
  EXPECT_DOUBLE_EQ(diode.ideality, 1.2);
  EXPECT_DOUBLE_EQ(std::get<Inductor>(*reparsed.find_device("L1")).henries,
                   4.7e-6);
}

TEST(DeckIo, BadDeviceParamsThrow) {
  EXPECT_THROW(parse_deck("L1 a b\n"), util::InvalidInputError);
  EXPECT_THROW(parse_deck("D1 a b XX=1\n"), util::InvalidInputError);
  Netlist n;
  EXPECT_THROW(n.add_inductor("L1", "a", "b", -1.0),
               util::InvalidInputError);
  EXPECT_THROW(n.add_diode("D1", "a", "b", 0.0), util::InvalidInputError);
}

}  // namespace
}  // namespace dot::spice
