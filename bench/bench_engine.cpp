// google-benchmark microbenchmarks of the computational kernels: MNA
// assembly + LU solve, DC operating points, clocked transients, one
// transient Newton iteration and one sparse refactorization, defect
// analysis and sprinkling, and the behavioral missing-code test. These
// bound how large a campaign a given time budget affords.
#include <benchmark/benchmark.h>

#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace dot;

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  numeric::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    numeric::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(40)->Arg(128);

void BM_ComparatorDc(benchmark::State& state) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.1);
  const spice::MnaMap map(bench);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::dc_operating_point(bench, map));
  }
}
BENCHMARK(BM_ComparatorDc);

void BM_ComparatorTransient(benchmark::State& state) {
  const auto macro = flashadc::build_comparator_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flashadc::simulate_comparator(macro, 0.009));
  }
}
BENCHMARK(BM_ComparatorTransient)->Unit(benchmark::kMillisecond);

/// A column bench (comparator, or an 8-slice bank at its middle
/// slice), its transient options and its waveform: the state the
/// per-iteration benchmarks start from.
struct ColumnRun {
  spice::Netlist bench;
  spice::TranOptions options;
  spice::TranResult run;
  std::size_t step = 0;  ///< First accepted step of the latch phase.
};

ColumnRun column_run(bool bank) {
  flashadc::BankOptions bank_options;
  bank_options.size = 8;
  spice::Netlist bench =
      bank ? flashadc::instantiate_bank_bench(
                 flashadc::build_bank_macro(bank_options).netlist,
                 bank_options, bank_options.size / 2, 0.009)
           : flashadc::instantiate_comparator_bench(
                 flashadc::build_comparator_netlist(), 0.009);
  spice::TranOptions options = bank ? flashadc::bank_tran_options()
                                    : flashadc::comparator_tran_options();
  spice::TranResult run = spice::transient(bench, options);
  std::size_t step = 0;
  while (run.time(step) < flashadc::kLatchStart) ++step;
  return {std::move(bench), options, std::move(run), step};
}

// One time step's Newton solve per benchmark iteration, from the
// state where the first latch phase starts, assembled through a
// MosKernel as transient() does: the per-iteration cost of the Newton
// loop (device eval, assembly, factor, solve) without the phase timers.
// `newton_iters` is the iterations per solve, `s_per_iter` the time per
// iteration.
void BM_NewtonIteration(benchmark::State& state, bool bank) {
  const ColumnRun c = column_run(bank);
  const std::size_t s = c.step;
  const spice::MnaMap map(c.bench);
  spice::SolverContext ctx(c.options.solver);
  spice::MosKernel kernel(c.bench, map);
  spice::StampOptions stamp;
  stamp.mode = spice::AnalysisMode::kTransient;
  stamp.time = c.run.time(s + 1);
  stamp.dt = c.run.time(s + 1) - c.run.time(s);
  stamp.gshunt = c.options.newton.gshunt;
  kernel.install(stamp, spice::kTransientStreamTag);
  std::vector<double> guess;
  double iterations = 0.0;
  for (auto _ : state) {
    guess = c.run.state(s);
    spice::DcResult r =
        spice::newton_solve(c.bench, map, std::move(guess), stamp,
                            c.options.newton, c.run.state(s), &ctx);
    benchmark::DoNotOptimize(r.x.data());
    iterations += r.iterations;
    guess = std::move(r.x);
  }
  state.counters["newton_iters"] =
      iterations / static_cast<double>(state.iterations());
  state.counters["s_per_iter"] = benchmark::Counter(
      iterations, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_NewtonIteration, comparator, false);
BENCHMARK_CAPTURE(BM_NewtonIteration, bank8, true);

// The numeric sparse refactorization alone, on the matrix of the same
// state, against its cached symbolic analysis.
void BM_Refactor(benchmark::State& state, bool bank) {
  const ColumnRun c = column_run(bank);
  const std::size_t s = c.step;
  const spice::MnaMap map(c.bench);
  spice::StampOptions stamp;
  stamp.mode = spice::AnalysisMode::kTransient;
  stamp.time = c.run.time(s + 1);
  stamp.dt = c.run.time(s + 1) - c.run.time(s);
  numeric::SparseAssembler a;
  std::vector<double> b;
  spice::assemble_mna(c.bench, map, c.run.state(s), c.run.state(s), stamp, a,
                      b);
  const auto symbolic =
      numeric::SparseSymbolic::analyze(a.pattern(), a.values());
  numeric::SparseFactors factors;
  for (auto _ : state)
    benchmark::DoNotOptimize(factors.refactor(symbolic, a.values()));
  state.counters["n"] = static_cast<double>(map.size());
  state.counters["factor_nnz"] = static_cast<double>(symbolic->factor_nnz());
}
BENCHMARK_CAPTURE(BM_Refactor, comparator, false);
BENCHMARK_CAPTURE(BM_Refactor, bank8, true);

void BM_LadderDc(benchmark::State& state) {
  const auto macro = flashadc::build_ladder_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flashadc::solve_ladder(macro));
  }
}
BENCHMARK(BM_LadderDc)->Unit(benchmark::kMillisecond);

void BM_DefectAnalysis(benchmark::State& state) {
  const auto cell = flashadc::build_comparator_layout();
  const defect::DefectAnalyzer analyzer(cell, {.vdd_net = "vdda"});
  const defect::DefectSampler sampler(defect::DefectStatistics{},
                                      cell.bounding_box());
  defect::DefectAnalyzer::Scratch scratch;
  util::Rng rng(7);
  for (auto _ : state) {
    const auto defect = sampler.draw(rng);
    benchmark::DoNotOptimize(analyzer.analyze(defect, scratch));
  }
}
BENCHMARK(BM_DefectAnalysis);

/// The whole defect layer (sprinkle, extract, collapse) on one thread.
void BM_DefectSprinkle(benchmark::State& state) {
  const auto cell = flashadc::build_comparator_layout();
  defect::CampaignOptions options;
  options.defect_count = static_cast<std::size_t>(state.range(0));
  options.vdd_net = "vdda";
  util::ThreadPool::set_global_thread_count(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(defect::run_campaign(cell, options));
    ++options.seed;
  }
  util::ThreadPool::set_global_thread_count(0);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DefectSprinkle)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_MissingCodeTest(benchmark::State& state) {
  flashadc::FlashAdcModel adc;
  adc.set_comparator(100, {flashadc::ComparatorMode::kOffset, 0.02});
  for (auto _ : state) {
    benchmark::DoNotOptimize(flashadc::has_missing_code(adc));
  }
}
BENCHMARK(BM_MissingCodeTest);

}  // namespace

BENCHMARK_MAIN();
