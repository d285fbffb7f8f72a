// Figure 4: global detectability of (a) catastrophic and (b)
// non-catastrophic faults across the whole ADC, compiled from all five
// macros with area scaling.
//
// Paper: (a) voltage-only 21.5%, both 39.3%, current-only 32.5%,
// total 93.3%; (b) 21.7 / 27.3 / 44.1, total 93.1%.
#include <fstream>

#include "bench_common.hpp"
#include "flashadc/report.hpp"

namespace {

void print_venn(const char* title, const dot::macro::VennResult& venn,
                const char* paper) {
  std::printf("%s\n", title);
  dot::util::TextTable table({"segment", "% of faults"});
  table.add_row({"voltage only", dot::util::pct(venn.voltage_only)});
  table.add_row({"voltage + current", dot::util::pct(venn.both)});
  table.add_row({"current only", dot::util::pct(venn.current_only)});
  table.add_row({"undetected", dot::util::pct(venn.undetected)});
  std::printf("%s", table.str().c_str());
  std::printf("total coverage: %.1f %%   voltage: %.1f %%   current: %.1f %%\n",
              100.0 * venn.detected(), 100.0 * venn.voltage_total(),
              100.0 * venn.current_total());
  std::printf("paper reference: %s\n\n", paper);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 150000);
  const bench::WallTimer timer;

  bench::print_header("Figure 4 -- global detectability (entire ADC)");
  const auto global = flashadc::run_campaign(args.config);

  std::printf("macro areas (one instance x count):\n");
  double total_area = 0.0;
  for (const auto& m : global.macros)
    total_area += m.cell_area * static_cast<double>(m.instance_count);
  for (const auto& m : global.macros) {
    const double area = m.cell_area * static_cast<double>(m.instance_count);
    std::printf("  %-11s %9.0f um^2 x %3zu = %12.0f um^2 (%4.1f %%)\n",
                m.macro_name.c_str(), m.cell_area, m.instance_count, area,
                100.0 * area / total_area);
  }
  std::printf("\n");

  print_venn("(a) catastrophic faults", global.venn_catastrophic,
             "21.5 / 39.3 / 32.5, total 93.3%");
  print_venn("(b) non-catastrophic faults", global.venn_noncatastrophic,
             "21.7 / 27.3 / 44.1, total 93.1%");

  std::printf("faults detectable ONLY by clock-generator IDDQ: %.1f %% "
              "(paper: 11.0%%)\n",
              100.0 * global.matrix_catastrophic.only_mechanism(4));

  std::size_t classes = 0;
  for (const auto& m : global.macros)
    classes += m.catastrophic.size() + m.noncatastrophic.size();
  bench::report_run(args, timer, classes, flashadc::to_json(global));
  return 0;
}
