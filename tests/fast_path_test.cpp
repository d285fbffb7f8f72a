// Building blocks of the transient engine's fast path: the SoA level-1
// MOSFET kernel, the trusted-stream assembler, the whole-stream stamp
// program and branch_at. Every case here asserts *bit* identity
// against the plain code path it replaces -- the campaign verdicts rest
// on these -- and the last case pins the whole fast path as transient()
// runs it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <variant>
#include <vector>

#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "numeric/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot {
namespace {

// Deterministic value wiggle (no RNG: failures must reproduce).
double wiggle(std::size_t i, std::size_t round) {
  return 0.25 * std::sin(static_cast<double>(3 * i + 7 * round + 1));
}

// ---------------------------------------------------------------------
// SoA device kernel vs scalar eval_mos.

TEST(DeviceBatch, LanesBitIdenticalToScalarEval) {
  spice::DeviceBatch batch;
  std::vector<spice::MosModel> models;
  std::vector<double> wols;
  // Sweep lanes across regions: cutoff, subthreshold, triode,
  // saturation, body-biased, and drain/source-swapped (vds < 0).
  for (std::size_t i = 0; i < 64; ++i) {
    spice::MosModel m;
    m.vt0 = 0.5 + 0.01 * static_cast<double>(i % 7);
    m.gamma = 0.3 + 0.05 * static_cast<double>(i % 3);
    m.lambda = 0.02 + 0.01 * static_cast<double>(i % 5);
    const double wol = 1.0 + static_cast<double>(i % 9);
    models.push_back(m);
    wols.push_back(wol);
    batch.push_device(m, wol);
    batch.vgs[i] = -0.5 + 0.08 * static_cast<double>(i);
    batch.vds[i] = -1.0 + 0.11 * static_cast<double>(i);
    batch.vbs[i] = -0.4 + 0.02 * static_cast<double>(i % 11);
  }
  eval_mos_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto op = spice::eval_mos(models[i], wols[i], batch.vgs[i],
                                    batch.vds[i], batch.vbs[i]);
    EXPECT_EQ(batch.ids[i], op.ids) << "lane " << i;
    EXPECT_EQ(batch.gm[i], op.gm) << "lane " << i;
    EXPECT_EQ(batch.gds[i], op.gds) << "lane " << i;
    EXPECT_EQ(batch.gmb[i], op.gmb) << "lane " << i;
  }
}

// ---------------------------------------------------------------------
// Trusted-stream assembler fast path.

TEST(TrustedStream, FastPathBitIdenticalAndTagGated) {
  const std::size_t n = 6;
  auto stamp_round = [&](numeric::SparseAssembler& a, std::uint32_t tag,
                         std::size_t round) {
    a.begin(n, tag);
    for (std::size_t i = 0; i < n; ++i) a.add(i, i, 2.0 + wiggle(i, round));
    a.add(0, 3, wiggle(1, round));
    a.add(3, 0, wiggle(2, round));
    a.add(2, 2, wiggle(3, round));  // duplicate slot accumulation
    a.finish();
  };
  numeric::SparseAssembler tagged;
  numeric::SparseAssembler checked;
  for (std::size_t round = 0; round < 4; ++round) {
    stamp_round(tagged, 5, round);
    stamp_round(checked, 0, round);
    EXPECT_EQ(tagged.values(), checked.values()) << "round " << round;
    EXPECT_EQ(tagged.pattern().cols, checked.pattern().cols);
    // Trusted scatter engages from the second tagged round on; the
    // untagged assembler always runs the checked path.
    EXPECT_EQ(tagged.fast_path_used(), round > 0) << "round " << round;
    EXPECT_FALSE(checked.fast_path_used());
  }
  // A tag change refreezes: the next round must not trust stale slots.
  stamp_round(tagged, 9, 4);
  EXPECT_FALSE(tagged.fast_path_used());
  stamp_round(checked, 0, 4);
  EXPECT_EQ(tagged.values(), checked.values());
}

// ---------------------------------------------------------------------
// MnaMap::branch_at vs the string-keyed branch_index.

TEST(MnaMap, BranchAtMatchesBranchIndex) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.01);
  const spice::MnaMap map(bench);
  std::size_t occurrence = 0;
  for (const auto& device : bench.devices()) {
    if (std::holds_alternative<spice::VoltageSource>(device) ||
        std::holds_alternative<spice::Vcvs>(device) ||
        std::holds_alternative<spice::Inductor>(device)) {
      EXPECT_EQ(map.branch_at(occurrence),
                map.branch_index(spice::device_name(device)));
      ++occurrence;
    }
  }
  EXPECT_GT(occurrence, 0u);
}

// ---------------------------------------------------------------------
// Whole-stream stamp program (StampProgram).

// One newton_solve call as assembly sees it: fixed stamp options and a
// previous step (numbered: calls with one number share it), with an
// iterate that moves every iteration.
struct SolveCall {
  spice::AnalysisMode mode = spice::AnalysisMode::kDc;
  double gshunt = 1e-12;
  double source_scale = 1.0;
  double time = 0.0;
  double dt = 0.0;
  std::size_t prev_step = 0;
};

// The calls a transient() run makes, in order: the t = 0 DC solve
// (plain Newton, the gmin ladder, source stepping) on the DC stream,
// then time steps on the transient stream, one of them failing into a
// halved dt, and a gshunt-rescue ladder at dt_min. Three more calls
// change the time, the dt or the previous step alone, so each input of
// the linear entries is seen to refresh them by itself.
std::vector<SolveCall> newton_call_sequence() {
  const auto dc = spice::AnalysisMode::kDc;
  const auto tran = spice::AnalysisMode::kTransient;
  std::vector<SolveCall> calls;
  calls.push_back({});
  for (double g = 1e-3; g > 1e-12; g /= 10.0) calls.push_back({dc, g});
  for (int s = 1; s <= 4; ++s) calls.push_back({dc, 1e-12, s / 4.0});
  calls.push_back({tran, 1e-12, 1.0, 0.5e-9, 0.5e-9, 1});
  calls.push_back({tran, 1e-12, 1.0, 1.0e-9, 0.5e-9, 2});    // fails,
  calls.push_back({tran, 1e-12, 1.0, 0.75e-9, 0.25e-9, 2});  // halved
  calls.push_back({tran, 1e-12, 1.0, 0.75e-9, 0.125e-9, 2});  // dt only
  calls.push_back({tran, 1e-12, 1.0, 0.875e-9, 0.125e-9, 2});  // time only
  calls.push_back({tran, 1e-12, 1.0, 1.125e-9, 0.25e-9, 3});
  calls.push_back({tran, 1e-12, 1.0, 1.125e-9, 0.25e-9, 4});  // step only
  for (double g = 1e-3;; g /= 10.0) {
    const bool last = g <= 1e-12;
    calls.push_back({tran, last ? 1e-12 : g, 1.0, 1.125e-9 + 1e-13, 1e-13, 4});
    if (last) break;
  }
  return calls;
}

// Drives a MosKernel-installed assembly through newton_call_sequence()
// -- four iterations per call, the first walking the netlist to refresh
// the linear entries, the rest replaying them -- and asserts every CSR
// value array and RHS equals the plain Stamper walk's, bit for bit.
void expect_program_matches_walk(const spice::Netlist& netlist,
                                 bool expect_walk_every_iteration) {
  const spice::MnaMap map(netlist);
  spice::MosKernel kernel(netlist, map);
  ASSERT_GT(kernel.size(), 0u);
  numeric::SparseAssembler a_fast;
  numeric::SparseAssembler a_ref;
  std::vector<double> b_fast;
  std::vector<double> b_ref;
  std::vector<double> x(map.size());
  std::vector<double> x_prev(map.size());
  std::size_t round = 0;
  std::uint32_t last_tag = 0;
  for (const SolveCall& call : newton_call_sequence()) {
    spice::StampOptions plain;
    plain.mode = call.mode;
    plain.gshunt = call.gshunt;
    plain.source_scale = call.source_scale;
    plain.time = call.time;
    plain.dt = call.dt;
    spice::StampOptions hooked = plain;
    const std::uint32_t tag = call.mode == spice::AnalysisMode::kDc
                                  ? spice::kDcStreamTag
                                  : spice::kTransientStreamTag;
    kernel.install(hooked, tag);
    for (std::size_t i = 0; i < x_prev.size(); ++i)
      x_prev[i] = call.prev_step == 0 ? 0.0 : wiggle(i, 1000 + call.prev_step);
    for (int iter = 0; iter < 4; ++iter, ++round) {
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = wiggle(i, round);
      spice::assemble_mna(netlist, map, x, x_prev, hooked, a_fast, b_fast);
      spice::assemble_mna(netlist, map, x, x_prev, plain, a_ref, b_ref);
      ASSERT_EQ(a_fast.pattern(), a_ref.pattern()) << "round " << round;
      ASSERT_EQ(a_fast.values(), a_ref.values()) << "round " << round;
      ASSERT_EQ(b_fast, b_ref) << "round " << round;
      // The first round on a stream stamps and captures; every later
      // one is a trusted replay.
      EXPECT_EQ(a_fast.fast_path_used(), tag == last_tag)
          << "round " << round;
      EXPECT_EQ(kernel.program().tag, tag);
      last_tag = tag;
    }
  }
  EXPECT_EQ(kernel.program().walk_every_iteration,
            expect_walk_every_iteration);
}

TEST(StampProgram, AssembliesBitIdenticalToStamperWalk) {
  const auto macro = flashadc::build_comparator_netlist();
  expect_program_matches_walk(
      flashadc::instantiate_comparator_bench(macro, 0.02), false);
}

// A diode and a switch move their stamps with x, so the program walks
// the netlist every iteration; the extra linear kinds (inductor, VCVS,
// VCCS, current source) ride along.
TEST(StampProgram, DiodeAndSwitchNetlistBitIdenticalToStamperWalk) {
  const auto macro = flashadc::build_comparator_netlist();
  auto bench = flashadc::instantiate_comparator_bench(macro, 0.02);
  bench.add_diode("dx", "q", "qb");
  bench.add_switch(spice::Switch{}, "sx", "q", "0", "clk1", "0");
  bench.add_inductor("lx", "qb", "0", 1e-6);
  bench.add_vcvs("ex", "ex_out", "0", "q", "qb", 2.0);
  bench.add_resistor("rex", "ex_out", "0", 1e4);
  bench.add_vccs("gx", "q", "0", "qb", "0", 1e-5);
  bench.add_isource("ix", "qb", "0", spice::SourceSpec::dc(1e-6));
  expect_program_matches_walk(bench, true);
}

// ---------------------------------------------------------------------
// transient(): the fast path as the campaign runs it.

// A comparator bench with a bridge fault, the shape of a campaign
// class evaluation.
spice::Netlist faulted_comparator_bench() {
  auto macro = flashadc::build_comparator_netlist();
  macro.add_resistor("rbridge", "outp", "outn", 2e4);
  return flashadc::instantiate_comparator_bench(macro, 0.009);
}

// Every accepted step of a faulted comparator transient, re-assembled
// through a MosKernel on the trusted transient stream, matches a
// hook-free assemble_mna bit for bit; and the whole waveform matches a
// hook-free DC + TranStepper run of the same options.
TEST(FastPathTransient, AssembliesAndWaveformBitIdenticalToHookFree) {
  const auto bench = faulted_comparator_bench();
  const auto options = flashadc::comparator_tran_options();
  const auto fast = spice::transient(bench, options);
  ASSERT_GT(fast.steps(), 2u);
  EXPECT_TRUE(fast.stats().sparse);
  EXPECT_GT(fast.stats().symbolic_analyses, 0u);

  const spice::MnaMap map(bench);
  spice::MosKernel kernel(bench, map);
  ASSERT_GT(kernel.size(), 0u);
  spice::StampOptions plain;
  plain.mode = spice::AnalysisMode::kTransient;
  spice::StampOptions hooked = plain;
  kernel.install(hooked, spice::kTransientStreamTag);
  numeric::SparseAssembler a_fast;
  numeric::SparseAssembler a_ref;
  std::vector<double> b_fast;
  std::vector<double> b_ref;
  for (std::size_t s = 1; s < fast.steps(); ++s) {
    for (spice::StampOptions* stamp : {&plain, &hooked}) {
      stamp->time = fast.time(s);
      stamp->dt = fast.time(s) - fast.time(s - 1);
    }
    spice::assemble_mna(bench, map, fast.state(s), fast.state(s - 1), hooked,
                        a_fast, b_fast);
    spice::assemble_mna(bench, map, fast.state(s), fast.state(s - 1), plain,
                        a_ref, b_ref);
    ASSERT_EQ(a_fast.values(), a_ref.values()) << "step " << s;
    ASSERT_EQ(b_fast, b_ref) << "step " << s;
  }
  EXPECT_TRUE(a_fast.fast_path_used());
  EXPECT_FALSE(a_ref.fast_path_used());

  spice::SolverContext ctx(options.solver);
  spice::DcOptions dc = options.newton;
  dc.time = 0.0;
  const auto op = spice::dc_operating_point(bench, map, dc, nullptr, &ctx);
  EXPECT_EQ(fast.state(0), op.x);
  spice::TranStepper stepper(bench, map, options, op.x, &ctx);
  std::size_t s = 0;
  while (!stepper.done()) {
    stepper.step();
    ++s;
    ASSERT_LT(s, fast.steps());
    EXPECT_EQ(fast.time(s), stepper.time());
    ASSERT_EQ(fast.state(s), stepper.state()) << "step " << s;
  }
  EXPECT_EQ(s + 1, fast.steps());
}

}  // namespace
}  // namespace dot
