// Building blocks of the transient engine's fast path: the SoA level-1
// MOSFET kernel, the trusted-stream assembler, the precompiled MOSFET
// stamp plan and branch_at. Every case here asserts *bit* identity
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
// Precompiled MOSFET stamp plan (MosStampPlan).

// Assembles the comparator bench with and without a stamp plan over
// several rounds of changing companion values and iterates, asserting
// bit-identical matrices and right-hand sides. Rounds 0/1 exercise the
// freeze and capture paths, later rounds the flat apply loop.
TEST(MosStampPlan, AssembliesBitIdenticalToStamperWalk) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.02);
  const spice::MnaMap map(bench);

  std::size_t n_mos = 0;
  for (const auto& device : bench.devices())
    if (std::holds_alternative<spice::Mosfet>(device)) ++n_mos;
  ASSERT_GT(n_mos, 0u);

  std::vector<spice::MosCompanion> companions(n_mos);
  auto refresh_companions = [&](std::size_t round) {
    for (std::size_t i = 0; i < n_mos; ++i) {
      companions[i].gm = 1e-4 * (1.0 + wiggle(i, round));
      companions[i].gds = 1e-5 * (1.0 + wiggle(i + 1, round));
      companions[i].gmb = 1e-6 * (1.0 + wiggle(i + 2, round));
      companions[i].ieq = 1e-5 * wiggle(i + 3, round);
    }
  };

  spice::MosStampPlan plan;
  spice::StampOptions with_plan;
  with_plan.mos_companions = &companions;
  with_plan.stream_tag = 7;
  with_plan.mos_plan = &plan;
  spice::StampOptions without_plan = with_plan;
  without_plan.mos_plan = nullptr;

  numeric::SparseAssembler a_plan;
  numeric::SparseAssembler a_ref;
  std::vector<double> b_plan;
  std::vector<double> b_ref;
  std::vector<double> x(map.size(), 0.0);
  const std::vector<double> x_prev(map.size(), 0.1);

  for (std::size_t round = 0; round < 5; ++round) {
    refresh_companions(round);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = wiggle(i, round);
    assemble_mna(bench, map, x, x_prev, with_plan, a_plan, b_plan);
    assemble_mna(bench, map, x, x_prev, without_plan, a_ref, b_ref);
    EXPECT_EQ(a_plan.values(), a_ref.values()) << "round " << round;
    EXPECT_EQ(b_plan, b_ref) << "round " << round;
    // Round 0 freezes the pattern, round 1 captures the plan, round 2+
    // run the flat apply loop.
    EXPECT_EQ(plan.ready, round >= 1) << "round " << round;
  }
  EXPECT_EQ(plan.mat_ptr.size(), n_mos + 1);
  EXPECT_EQ(plan.b_ptr.size(), n_mos + 1);
  EXPECT_EQ(plan.tag, 7u);

  // A stream-tag change (the DC -> transient hand-off in transient())
  // invalidates and recaptures the plan on the new stream.
  with_plan.mode = spice::AnalysisMode::kTransient;
  with_plan.dt = 1e-9;
  with_plan.stream_tag = 8;
  without_plan.mode = spice::AnalysisMode::kTransient;
  without_plan.dt = 1e-9;
  without_plan.stream_tag = 8;
  for (std::size_t round = 5; round < 9; ++round) {
    refresh_companions(round);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = wiggle(i, round);
    assemble_mna(bench, map, x, x_prev, with_plan, a_plan, b_plan);
    assemble_mna(bench, map, x, x_prev, without_plan, a_ref, b_ref);
    EXPECT_EQ(a_plan.values(), a_ref.values()) << "round " << round;
    EXPECT_EQ(b_plan, b_ref) << "round " << round;
  }
  EXPECT_EQ(plan.tag, 8u);
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
