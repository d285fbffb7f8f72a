// Full defect-oriented test path for the case-study ADC (paper fig. 1):
// defect simulation -> fault collapsing -> circuit-level fault models ->
// fault simulation -> fault signatures -> sensitization/propagation ->
// fault detection, per macro; plus the area-scaled global compilation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "defect/simulate.hpp"
#include "fault/fault.hpp"
#include "fault/model.hpp"
#include "flashadc/comparator.hpp"
#include "macro/detection.hpp"
#include "macro/envelope.hpp"
#include "macro/equivalence.hpp"
#include "macro/signature.hpp"
#include "spice/solver.hpp"

namespace dot::flashadc {

/// Knobs for the campaign resilience layer: sharding, crash-safe
/// journaling/resume, and graceful degradation on pathological fault
/// classes. Defaults reproduce the original single-process,
/// no-journal, no-deadline behaviour exactly.
struct ResilienceOptions {
  /// Wall-clock budget per fault-class evaluation attempt in
  /// milliseconds (0 = unlimited). Expiry aborts the attempt with
  /// util::TimeoutError and triggers a retry at the next aid level.
  double class_timeout_ms = 0.0;
  /// Retries after the first failed attempt; each retry escalates the
  /// continuation aid ladder (see spice/resilience.hpp). A class still
  /// failing after 1 + max_retries attempts is recorded kUnresolved.
  int max_retries = 3;
  /// Split the collapsed fault-class list into `shard_count`
  /// deterministic shards; this process evaluates class index c iff
  /// c % shard_count == shard_index. The union of all shards is
  /// bit-identical to an unsharded run at the same seed.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  /// Append-only JSONL journal of completed class outcomes (empty =
  /// no journaling). Flushed via write-to-temp + atomic rename every
  /// `checkpoint_block` records, so a crash loses at most one block.
  std::string journal_path;
  /// Replay an existing journal at `journal_path`: completed classes
  /// are skipped and their outcomes restored instead of re-evaluated.
  bool resume = false;
  /// Records per checkpoint flush.
  std::size_t checkpoint_block = 16;
  /// Optional hook invoked with every journal record line (macro and
  /// class records, never the meta record) just before it is appended
  /// to the journal. The dispatch worker streams records to the
  /// dispatcher through it. May be called concurrently from evaluation
  /// workers; exceptions propagate out of the evaluation (the dispatch
  /// layer uses this to unwind abandoned shards).
  std::function<void(const std::string& line)> journal_observer;
};

struct CampaignConfig {
  std::size_t defect_count = 500000;
  std::uint64_t seed = 1995;
  int envelope_samples = 25;
  ComparatorDft dft;
  /// Evaluate at most this many fault classes per macro (0 = all);
  /// classes are ranked by likelihood, so truncation keeps the weight
  /// distribution nearly intact. Used to bound test runtimes.
  std::size_t max_classes = 0;
  /// Also derive and evaluate non-catastrophic (near-miss) variants.
  bool with_noncatastrophic = true;
  /// Acceptance-band policy for the good-signature envelope (ablation
  /// benches sweep k_sigma and the tester noise floors).
  macro::BandPolicy band_policy{3.0, 2e-6, 0.02};
  /// Circuit-level fault-model parameters (bridge resistances etc.);
  /// the per-macro supply net is filled in by each campaign.
  fault::FaultModelOptions fault_models;
  /// Defect statistics used for sprinkling.
  defect::DefectStatistics statistics;
  /// Linear-solver settings for every DC solve and transient in the
  /// campaign (golden grid, envelope, class evaluation, equivalence
  /// re-evaluation). The golden symbolic factorization is cached per
  /// macro context and shared across workers; results are bit-identical
  /// at any thread count.
  spice::SolverOptions solver;
  /// Sharding / checkpoint-resume / degradation knobs.
  ResilienceOptions resilience;
  /// Collect the device-eval / assembly / factor / solve wall-time
  /// breakdown of every fault-class transient (MacroCampaignResult::
  /// phase_times). Off by default: the hot loops stay clock-free.
  bool collect_phase_times = false;
  /// Which macro campaigns run_campaign drives: "all" (the five-macro
  /// decomposed flow) or a single macro name (see campaign_macros).
  std::string macro_selection = "all";
  /// Column height for the flat comparator-bank macro (2..256, must
  /// divide 256). Only meaningful with macro_selection == "bank".
  int bank_size = 64;
  /// Comparator count for the full-chip macro (4..256, must divide 256
  /// and be a multiple of 4 so the thermometer decoder tiles). Only
  /// meaningful with macro_selection == "chip".
  int chip_slices = 256;
};

/// How a fault-class evaluation resolved.
enum class EvalStatus {
  kOk,          ///< Produced a trustworthy signature.
  kUnresolved,  ///< Exhausted the retry/aid budget; outcome untrusted.
};

/// One evaluated fault class.
struct FaultOutcome {
  fault::FaultClass cls;
  bool non_catastrophic = false;
  macro::VoltageSignature voltage = macro::VoltageSignature::kNoDeviation;
  macro::CurrentSignature current;
  macro::DetectionOutcome detection;
  /// Resolution of the evaluation guard. Unresolved classes carry a
  /// blank signature and are reported in their own coverage bucket --
  /// never counted detected or undetected.
  EvalStatus status = EvalStatus::kOk;
  /// Evaluation attempts spent (1 = first try succeeded).
  int attempts = 1;
  /// Diagnostic from the last failed attempt (empty when status==kOk).
  std::string failure;
};

struct MacroCampaignResult {
  std::string macro_name;
  double cell_area = 0.0;
  std::size_t instance_count = 1;
  defect::CampaignResult defects;
  std::vector<FaultOutcome> catastrophic;
  std::vector<FaultOutcome> noncatastrophic;
  /// Solver wall-time breakdown summed over the fault-class transients
  /// evaluated here (classes restored from a journal add nothing); all
  /// zero unless CampaignConfig::collect_phase_times was set.
  spice::PhaseTimes phase_times;
  /// The good-signature envelope the classes were judged against: the
  /// Monte-Carlo samples it kept (those with an operating point) and
  /// one band per measurement dimension. Kept out of the report and the
  /// journal, so it is empty for results read back from a journal.
  std::size_t envelope_samples_kept = 0;
  util::SignatureSpace envelope;

  /// Weighted outcomes for the global compilation.
  macro::MacroContribution contribution(bool non_catastrophic) const;
  /// Weighted fraction per voltage signature (paper Table 2).
  std::vector<double> voltage_signature_fractions(bool non_catastrophic) const;
  /// Weighted fraction with each current flag set (paper Table 3): the
  /// returned vector is {ivdd, iddq, iinput, none}.
  std::vector<double> current_signature_fractions(bool non_catastrophic) const;
  /// Weighted fraction of detected faults. Unresolved classes count in
  /// the denominator but never the numerator (conservative coverage).
  double coverage(bool non_catastrophic) const;
  /// Weighted fraction detected by current measurements.
  double current_coverage(bool non_catastrophic) const;
  /// Weighted fraction of classes whose evaluation never resolved.
  double unresolved_weight(bool non_catastrophic) const;
  /// Number of unresolved classes across both outcome vectors.
  std::size_t unresolved_classes() const;
};

/// Every macro campaign, in canonical (journal and report) order:
/// comparator, ladder, biasgen, clockgen, decoder, bank, chip. The one
/// table behind this list also fixes each macro's supply net and its
/// sprinkle and envelope salts (flashadc/campaign.cpp).
std::vector<std::string> macro_names();

/// The macros a CampaignConfig::macro_selection runs, in campaign
/// order: "all" is the five-macro decomposed flow (comparator, ladder,
/// biasgen, clockgen, decoder), any macro name is that macro alone.
/// Throws util::InvalidInputError on anything else.
std::vector<std::string> campaign_macros(const std::string& selection);

/// Whether compare_decomposition can diff this macro against the
/// per-comparator decomposition (bank and chip).
bool has_decomposition(const std::string& macro_name);

/// One macro campaign, unjournaled: sprinkle -> collapse -> fault
/// models -> simulation -> signatures -> detection (paper fig. 1).
/// The flat "bank" observes each class at the slice it touches; the
/// "chip" (config.chip_slices comparators plus the bias generator,
/// clock generator and thermometer decoder as ONE flat netlist) gives
/// a coverage number with no decomposition assumptions at all.
MacroCampaignResult run_macro_campaign(const std::string& macro_name,
                                       const CampaignConfig& config);

/// Whole-circuit results (paper figures 4 and 5).
struct GlobalResult {
  std::vector<MacroCampaignResult> macros;
  macro::VennResult venn_catastrophic;
  macro::VennResult venn_noncatastrophic;
  macro::MechanismMatrix matrix_catastrophic;
  macro::MechanismMatrix matrix_noncatastrophic;
};

/// Runs campaign_macros(config.macro_selection) -- journaled when
/// configured, sharded and resumable -- and compiles them.
GlobalResult run_campaign(const CampaignConfig& config);

/// Compiles the global figures from already-run macro results.
GlobalResult compile_global(std::vector<MacroCampaignResult> macros);

/// Diffs a finished bank or chip campaign against the paper's
/// per-comparator decomposition: every class is projected onto the
/// single-comparator macro (macro::project_fault with the macro's slice
/// mapper); mapped classes are re-evaluated there under the same band
/// policy, and genuine inter-slice / unmappable classes -- the weight
/// the decomposition never sees; on the chip also every support-macro
/// class and cross-macro net -- are bucketed separately with their
/// weight kept in every coverage denominator. Throws
/// util::InvalidInputError for a macro without a decomposition.
macro::EquivalenceReport compare_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& composite);

}  // namespace dot::flashadc
