// Per-macro coverage breakdown (paper section 3.3): "in the clock
// generator 93.8% and in the reference ladder even 99.8% of the faults
// were current detectable".
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 150000);
  const bench::WallTimer timer;

  bench::print_header("Per-macro detectability breakdown");
  const auto global = flashadc::run_campaign(args.config);

  util::TextTable table({"macro", "faults", "classes", "coverage %",
                         "current-detectable %"});
  for (const auto& m : global.macros) {
    table.add_row({m.macro_name,
                   std::to_string(m.defects.faults_extracted),
                   std::to_string(m.defects.classes.size()),
                   util::pct(m.coverage(false)),
                   util::pct(m.current_coverage(false))});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "paper reference: clock generator 93.8%% and reference ladder 99.8%%\n"
      "current detectable.\n");
  std::size_t classes = 0;
  for (const auto& m : global.macros)
    classes += m.catastrophic.size() + m.noncatastrophic.size();
  bench::report_run(args, timer, classes);
  return 0;
}
