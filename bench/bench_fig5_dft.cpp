// Figure 5: global detectability after the two DfT measures -- the
// leakage-free flipflop redesign and the separated bias lines.
//
// Paper: coverage rises from 93.3% to 99.1% (catastrophic); the
// voltage-only segment shrinks to 5.8% (5.6% non-catastrophic), making
// a current-only wafer-sort test feasible.
#include "bench_common.hpp"

namespace {

void print_venn(const char* title, const dot::macro::VennResult& venn) {
  std::printf("%s: voltage-only %.1f%%  both %.1f%%  current-only %.1f%%  "
              "undetected %.1f%%  => total %.1f%%\n",
              title, 100.0 * venn.voltage_only, 100.0 * venn.both,
              100.0 * venn.current_only, 100.0 * venn.undetected,
              100.0 * venn.detected());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;
  auto args = bench::BenchArgs::parse(argc, argv, 150000);
  const bench::WallTimer timer;

  bench::print_header("Figure 5 -- global detectability after DfT");

  std::printf("--- nominal design ---\n");
  const auto before = flashadc::run_campaign(args.config);
  print_venn("catastrophic     ", before.venn_catastrophic);
  print_venn("non-catastrophic ", before.venn_noncatastrophic);

  std::printf("\n--- with DfT: leakage-free flipflop + separated bias lines "
              "---\n");
  args.config.dft.leakage_free_flipflop = true;
  args.config.dft.separated_bias_lines = true;
  const auto after = flashadc::run_campaign(args.config);
  print_venn("catastrophic     ", after.venn_catastrophic);
  print_venn("non-catastrophic ", after.venn_noncatastrophic);

  std::printf(
      "\ncoverage change (catastrophic): %.1f %% -> %.1f %% "
      "(paper: 93.3 -> 99.1)\n",
      100.0 * before.venn_catastrophic.detected(),
      100.0 * after.venn_catastrophic.detected());
  std::printf(
      "voltage-only after DfT: cat %.1f %% / non-cat %.1f %% "
      "(paper: 5.8 / 5.6) -- small enough for current-only wafer sort\n",
      100.0 * after.venn_catastrophic.voltage_only,
      100.0 * after.venn_noncatastrophic.voltage_only);
  std::size_t classes = 0;
  for (const auto* g : {&before, &after})
    for (const auto& m : g->macros)
      classes += m.catastrophic.size() + m.noncatastrophic.size();
  bench::report_run(args, timer, classes);
  return 0;
}
