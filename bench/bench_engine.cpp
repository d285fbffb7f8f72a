// google-benchmark microbenchmarks of the computational kernels: MNA
// assembly + LU solve, DC operating points, clocked transients, defect
// analysis and sprinkling, and the behavioral missing-code test. These
// bound how large a campaign a given time budget affords.
#include <benchmark/benchmark.h>

#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/ladder.hpp"
#include "numeric/lu.hpp"
#include "spice/dc.hpp"
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
