// End-to-end tests of the defect-oriented test path: defect sprinkling
// through fault simulation to detection outcomes, per macro and global.
// Small defect counts and truncated class lists keep these fast; the
// full-scale runs live in bench/.
#include <gtest/gtest.h>

#include "flashadc/campaign.hpp"
#include "testgen/testset.hpp"

namespace dot::flashadc {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.defect_count = 40000;
  config.seed = 7;
  config.envelope_samples = 10;
  config.max_classes = 25;
  return config;
}

TEST(Campaign, ComparatorProducesOutcomes) {
  const auto r = run_macro_campaign("comparator", small_config());
  EXPECT_EQ(r.macro_name, "comparator");
  EXPECT_EQ(r.instance_count, 256u);
  EXPECT_GT(r.cell_area, 0.0);
  EXPECT_GT(r.defects.faults_extracted, 0u);
  ASSERT_FALSE(r.catastrophic.empty());
  ASSERT_FALSE(r.noncatastrophic.empty());
  // Non-catastrophic variants exist only for shorts / extra contacts.
  EXPECT_LE(r.noncatastrophic.size(), r.catastrophic.size());
  // Signature fractions are distributions.
  double sum = 0.0;
  for (double f : r.voltage_signature_fractions(false)) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Coverage is a sane fraction and current tests carry real weight.
  EXPECT_GT(r.coverage(false), 0.4);
  EXPECT_LE(r.coverage(false), 1.0);
  EXPECT_GT(r.current_coverage(false), 0.3);
}

TEST(Campaign, ComparatorDeterministicForSeed) {
  const auto a = run_macro_campaign("comparator", small_config());
  const auto b = run_macro_campaign("comparator", small_config());
  ASSERT_EQ(a.catastrophic.size(), b.catastrophic.size());
  for (std::size_t i = 0; i < a.catastrophic.size(); ++i) {
    EXPECT_EQ(a.catastrophic[i].voltage, b.catastrophic[i].voltage);
    EXPECT_EQ(a.catastrophic[i].detection.detected(),
              b.catastrophic[i].detection.detected());
  }
}

TEST(Campaign, LadderMostlyCurrentDetectable) {
  auto config = small_config();
  config.max_classes = 40;
  const auto r = run_macro_campaign("ladder", config);
  ASSERT_FALSE(r.catastrophic.empty());
  // Paper: 99.8% of reference-ladder faults are current detectable.
  EXPECT_GT(r.current_coverage(false), 0.9);
}

TEST(Campaign, BiasgenEvaluates) {
  const auto r = run_macro_campaign("biasgen", small_config());
  ASSERT_FALSE(r.catastrophic.empty());
  EXPECT_GT(r.coverage(false), 0.3);
}

TEST(Campaign, ClockgenIddqDominates) {
  auto config = small_config();
  config.max_classes = 40;
  const auto r = run_macro_campaign("clockgen", config);
  ASSERT_FALSE(r.catastrophic.empty());
  // Paper: 93.8% of clock-generator faults are current detectable, and
  // the mechanism is the digital quiescent current.
  EXPECT_GT(r.current_coverage(false), 0.7);
  double iddq_weight = 0.0, total = 0.0;
  for (const auto& o : r.catastrophic) {
    if (o.current.iddq) iddq_weight += static_cast<double>(o.cls.count);
    total += static_cast<double>(o.cls.count);
  }
  EXPECT_GT(iddq_weight / total, 0.5);
}

TEST(Campaign, DecoderEvaluates) {
  const auto r = run_macro_campaign("decoder", small_config());
  ASSERT_FALSE(r.catastrophic.empty());
  EXPECT_EQ(r.instance_count, 64u);
  EXPECT_GT(r.coverage(false), 0.5);
}

TEST(Campaign, GlobalCompilationAreaWeighted) {
  auto config = small_config();
  config.max_classes = 15;
  auto comparator = run_macro_campaign("comparator", config);
  auto ladder = run_macro_campaign("ladder", config);
  const auto global = compile_global({comparator, ladder});
  EXPECT_EQ(global.macros.size(), 2u);
  const auto& venn = global.venn_catastrophic;
  EXPECT_NEAR(venn.voltage_only + venn.both + venn.current_only +
                  venn.undetected,
              1.0, 1e-9);
  EXPECT_GT(venn.detected(), 0.5);
  // The 256 comparator instances dominate the area, so global coverage
  // sits close to the comparator's own coverage.
  EXPECT_GT(comparator.cell_area * 256, ladder.cell_area * 10);
}

TEST(Campaign, OutcomesFeedTestSetOptimizer) {
  const auto r = run_macro_campaign("comparator", small_config());
  const auto contribution = r.contribution(false);
  const auto set = testgen::optimize_test_set(contribution.outcomes);
  EXPECT_FALSE(set.mechanisms.empty());
  EXPECT_GT(set.coverage, 0.4);
  EXPECT_GT(set.time_seconds, 0.0);
  EXPECT_LT(set.time_seconds, 1.0);  // far below spec-test minutes
}

TEST(Campaign, DftImprovesComparatorCoverage) {
  auto config = small_config();
  config.max_classes = 30;
  const auto nominal = run_macro_campaign("comparator", config);
  auto dft_config = config;
  dft_config.dft.leakage_free_flipflop = true;
  dft_config.dft.separated_bias_lines = true;
  const auto dft = run_macro_campaign("comparator", dft_config);
  // Paper figure 5: the DfT measures raise coverage (93.3% -> 99.1%
  // globally). At this truncated scale we only require improvement.
  EXPECT_GE(dft.coverage(false) + 0.02, nominal.coverage(false));
}

}  // namespace
}  // namespace dot::flashadc
