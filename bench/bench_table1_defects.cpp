// Table 1: catastrophic faults and fault classes for the comparator.
//
// Paper: 25,000 sprinkled defects gave the initial class list; a second
// 10,000,000-defect run established statistically significant class
// magnitudes (334 classes holding 226,596 faults). Shorts are >95% of
// the faults; opens are ~0.03% of faults but 5.1% of the classes.
#include "bench_common.hpp"
#include "defect/simulate.hpp"
#include "flashadc/comparator.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 1000000);
  const bench::WallTimer timer;

  bench::print_header(
      "Table 1 -- catastrophic faults & fault classes (comparator)");
  const auto cell = flashadc::build_comparator_layout();
  std::printf("comparator cell area: %.0f um^2\n\n", cell.area());

  const defect::DefectAnalyzer analyzer(cell, {.vdd_net = "vdda"});

  util::JsonWriter json;
  json.begin_array();
  for (std::size_t count : {std::size_t{25000}, args.config.defect_count}) {
    defect::CampaignOptions opt;
    opt.statistics = args.config.statistics;
    opt.defect_count = count;
    opt.seed = args.config.seed;
    const auto r = defect::run_campaign(analyzer, opt);

    std::printf("sprinkled %zu defects -> %zu faults (%.2f%%), %zu classes\n",
                r.defects_sprinkled, r.faults_extracted,
                100.0 * r.fault_yield(), r.classes.size());
    util::TextTable table({"fault type", "% faults", "% fault classes"});
    json.begin_object();
    json.key("defects");
    json.value(r.defects_sprinkled);
    json.key("faults");
    json.value(r.faults_extracted);
    json.key("classes");
    json.value(r.classes.size());
    json.key("rows");
    json.begin_array();
    for (int k = 0; k < fault::kFaultKindCount; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const double fault_pct =
          100.0 * static_cast<double>(r.faults_by_kind[ku]) /
          static_cast<double>(r.faults_extracted);
      const double class_pct =
          100.0 * static_cast<double>(r.classes_by_kind[ku]) /
          static_cast<double>(r.classes.size());
      table.add_row(
          {fault::fault_kind_name(static_cast<fault::FaultKind>(k)),
           util::fmt(fault_pct, 2), util::fmt(class_pct, 2)});
      json.begin_object();
      json.key("fault_type");
      json.value(fault::fault_kind_name(static_cast<fault::FaultKind>(k)));
      json.key("fault_pct");
      json.value(fault_pct);
      json.key("class_pct");
      json.value(class_pct);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", table.str().c_str());
  }
  json.end_array();

  std::printf(
      "paper reference: shorts > 95%% of faults; opens 0.03%% of faults\n"
      "but 5.1%% of fault classes; 334 classes at 10M defects.\n");
  // Sprinkling only: no class is evaluated, so the wall line and the
  // report's classes_evaluated read 0 (the collapsed class counts are in
  // the result payload).
  bench::report_run(args, timer, 0, json.str());
  return 0;
}
