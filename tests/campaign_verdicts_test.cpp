// Campaign-level properties of the one fault-evaluation path: per-class
// verdicts of the comparator, the 8-slice bank and the 8-slice chip are
// identical across threads {1, 4}, a 2-shard split merges back to the
// unsharded verdicts, and --phase-times reports every class transient's
// phase split without touching the report when it is off.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "flashadc/campaign.hpp"
#include "flashadc/report.hpp"
#include "util/parallel.hpp"
#include "verdict_key.hpp"

namespace dot {
namespace {

using flashadc::CampaignConfig;
using flashadc::MacroCampaignResult;
using testing_support::class_key;
using testing_support::verdict_of;

CampaignConfig small_config() {
  CampaignConfig config;
  config.defect_count = 20000;
  config.seed = 11;
  config.envelope_samples = 6;
  config.max_classes = 12;
  config.macro_selection = "comparator";
  return config;
}

/// One single-macro campaign on a pool of `threads`.
MacroCampaignResult run_macro(const CampaignConfig& config, unsigned threads) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  return flashadc::run_campaign(config).macros.front();
}

using VerdictMap = std::map<std::string, std::string>;

void collect(const MacroCampaignResult& r, VerdictMap& out) {
  for (const auto& o : r.catastrophic) out[class_key(o)] = verdict_of(o);
  for (const auto& o : r.noncatastrophic) out[class_key(o)] = verdict_of(o);
}

/// The verdict-equality condition at 4 threads and the 2-shard-merge
/// condition, against a 1-thread reference.
void expect_verdicts_stable(CampaignConfig config) {
  VerdictMap reference;
  collect(run_macro(config, 1), reference);
  ASSERT_FALSE(reference.empty());
  VerdictMap four;
  collect(run_macro(config, 4), four);
  EXPECT_EQ(four, reference) << "4 threads";

  config.resilience.shard_count = 2;
  VerdictMap merged;
  for (const std::size_t shard : {0u, 1u}) {
    config.resilience.shard_index = shard;
    collect(run_macro(config, 4), merged);
  }
  EXPECT_EQ(merged, reference) << "2-shard merge";
}

TEST(CampaignVerdicts, ComparatorIdenticalAcrossThreadsAndShards) {
  expect_verdicts_stable(small_config());
}

TEST(CampaignVerdicts, Bank8IdenticalAcrossThreadsAndShards) {
  auto config = small_config();
  config.macro_selection = "bank";
  config.bank_size = 8;
  config.max_classes = 4;
  expect_verdicts_stable(config);
}

// The full chip: 8 comparators plus biasgen, clockgen and decoder as one
// flat netlist.
TEST(CampaignVerdicts, Chip8IdenticalAcrossThreadsAndShards) {
  auto config = small_config();
  config.macro_selection = "chip";
  config.chip_slices = 8;
  config.max_classes = 4;
  expect_verdicts_stable(config);
}

// --phase-times sums every class transient's phase split into the
// macro result, the sparse symbolic analyses included.
TEST(CampaignPhaseTimes, NonzeroWithFlagAndFollowSolver) {
  auto config = small_config();
  config.max_classes = 3;
  config.collect_phase_times = true;
  const auto result = run_macro(config, 2);
  const spice::PhaseTimes& p = result.phase_times;
  EXPECT_GT(p.device_eval_seconds, 0.0);
  EXPECT_GT(p.assembly_seconds, 0.0);
  EXPECT_GT(p.factor_seconds, 0.0);
  EXPECT_GT(p.factor_symbolic_seconds, 0.0);
  EXPECT_GT(p.factor_numeric_seconds, 0.0);
  EXPECT_GT(p.solve_seconds, 0.0);
}

// Without the flag the report carries no wall times and stays
// byte-identical across thread counts.
TEST(CampaignPhaseTimes, ReportWithoutFlagByteIdenticalAcrossThreads) {
  auto config = small_config();
  config.max_classes = 6;
  const auto one = run_macro(config, 1);
  const auto four = run_macro(config, 4);
  EXPECT_EQ(one.phase_times.total_seconds(), 0.0);
  const std::string report = flashadc::to_json(one);
  EXPECT_EQ(report.find("phase_times"), std::string::npos);
  EXPECT_EQ(report, flashadc::to_json(four));
}

}  // namespace
}  // namespace dot
