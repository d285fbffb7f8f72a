// Traced rebuild of flashadc::run_campaign.
//
// The campaign is rebuilt from the program's public functions (macro
// cells and layouts, defect sprinkling, fault models, the transient and
// DC solvers, the Monte-Carlo envelope, util::parallel_map and the
// global compilation), with a span around every call into a layer. It
// follows run_campaign step for step -- same seeds, same attempt
// ladder, same thread-pool structure -- so it must reproduce the
// campaign's defect, fault and class counts and its per-class verdicts
// exactly; the benchmark checks both.
#pragma once

#include <cstddef>
#include <cstdint>

#include "flashadc/campaign.hpp"

namespace perfbench {

struct TracedCampaign {
  dot::flashadc::GlobalResult global;
  std::uint32_t root_span = 0;  ///< The "campaign" span around it all.
  /// Monte-Carlo envelope samples attempted / kept, over all macros.
  std::size_t envelope_attempted = 0;
  std::size_t envelope_kept = 0;
};

/// Runs the traced rebuild of `config` (macro_selection "all",
/// "comparator" or "bank") on the current global thread pool.
TracedCampaign traced_campaign(const dot::flashadc::CampaignConfig& config);

}  // namespace perfbench
