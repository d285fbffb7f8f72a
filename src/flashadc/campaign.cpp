#include "flashadc/campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "spice/montecarlo.hpp"
#include "spice/resilience.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"

namespace dot::flashadc {

using fault::FaultClass;
using fault::FaultModelOptions;
using macro::CurrentSignature;
using macro::DetectionOutcome;
using macro::VoltageSignature;
using spice::Netlist;

namespace {

/// Missing-code propagation for comparator-style voltage signatures:
/// stuck-at and >8 mV offsets produce missing codes through the edge
/// decoder; clock-value / mixed / no-deviation do not (paper 3.2,
/// validated against the behavioral model in the test suite).
bool propagate_missing_code(VoltageSignature signature) {
  return signature == VoltageSignature::kOutputStuckAt ||
         signature == VoltageSignature::kOffset;
}

DetectionOutcome make_outcome(VoltageSignature voltage,
                              const CurrentSignature& current) {
  DetectionOutcome out;
  out.missing_code = propagate_missing_code(voltage);
  out.ivdd = current.ivdd;
  out.iddq = current.iddq;
  out.iinput = current.iinput;
  return out;
}

/// Fewer detection mechanisms = harder to detect. The paper keeps the
/// worst-case (hardest) gate-oxide pinhole variant.
int detectability_score(const FaultOutcome& outcome) {
  int score = 0;
  if (outcome.detection.missing_code) score += 1;
  if (outcome.detection.ivdd) score += 1;
  if (outcome.detection.iddq) score += 1;
  if (outcome.detection.iinput) score += 1;
  return score;
}

// ---------------------------------------------------------------------
// Macro drivers: the per-macro half of the pipeline.

/// What the shared campaign skeleton (run_driver) needs from one macro
/// once its cell and fault-free state are built: the good-signature
/// envelope population and the classification of a faulty netlist.
/// One small subclass per kind of macro -- the comparator column
/// (comparator, bank, chip) and the DC macros (ladder, biasgen,
/// clockgen, decoder). The constants fixed per macro (name, supply
/// net, salts) are its kMacros row.
class MacroDriver {
 public:
  explicit MacroDriver(macro::MacroCell c) : cell(std::move(c)) {}
  virtual ~MacroDriver() = default;
  MacroDriver(const MacroDriver&) = delete;
  MacroDriver& operator=(const MacroDriver&) = delete;

  /// One envelope sample measured on the perturbed `benches`, in
  /// `layout` order; nullopt drops the sample.
  virtual std::optional<std::vector<double>> measure(
      const std::vector<Netlist>& perturbed) const = 0;
  /// Signatures of one faulty macro netlist against the envelope. The
  /// representative steers fault-dependent observation (the column
  /// macros watch the slice it touches).
  virtual FaultOutcome classify(
      const Netlist& faulty,
      const fault::CircuitFault& representative) const = 0;

  macro::MacroCell cell;
  /// Netlists perturbed, in this order, for every envelope sample.
  std::vector<Netlist> benches;
  /// Envelope population: process spread, the supply sources it
  /// scales, the measurement layout, and the chip-level dilution of the
  /// IVdd / input-current bands (IDDQ is never diluted: the digital
  /// part's quiescent current is near zero however many instances
  /// share the tester pin -- the paper's key insight).
  spice::ProcessSpread spread;
  std::vector<std::string> supplies;
  macro::MeasurementLayout layout;
  double dilution = 1.0;
  /// Built by the skeleton before any classify call.
  std::optional<macro::GoodEnvelope> envelope;
};

/// Outcome of a comparator-style bench (comparator, bank, chip) from its
/// four decision-grid runs, against the fault-free grid and envelope.
FaultOutcome classify_grid(const std::array<ComparatorRun, 4>& runs,
                           const std::array<ComparatorRun, 4>& nominal,
                           const macro::GoodEnvelope& envelope) {
  FaultOutcome outcome;
  outcome.voltage = classify_comparator(runs, nominal);
  if (runs.front().converged && runs.back().converged) {
    outcome.current = envelope.classify(
        comparator_measurements(runs.front(), runs.back()));
  } else {
    // The faulty circuit has no valid operating point (typically a
    // hard supply short): its supply current is grossly abnormal.
    outcome.current.ivdd = true;
  }
  outcome.detection = make_outcome(outcome.voltage, outcome.current);
  return outcome;
}

/// How a comparator-column macro is driven: its bench around a macro
/// netlist for one observed slice and input level, the two-cycle run of
/// that bench (throws util::ConvergenceError), and the slice a fault
/// is observed at. The single comparator is a one-slice column.
struct ColumnBench {
  int mid_slice = 0;
  std::function<Netlist(const Netlist& macro, int slice, double delta_v)>
      instantiate;
  std::function<ComparatorRun(const Netlist& bench, int slice)> run;
  std::function<int(const fault::CircuitFault&)> observed_slice;
};

/// The comparator-column macros: four decision-grid transients per
/// faulty netlist, classified against the fault-free grid at the
/// middle slice. The decision pattern and the shared clock levels are
/// slice-independent by construction, so that grid is the nominal for
/// every observation slice (the middle tap sits at mid-scale like the
/// per-comparator bench's reference). The envelope measures the two
/// outer grid points; all three macros share the comparator's layout
/// (their run records are field-identical).
class ColumnDriver final : public MacroDriver {
 public:
  ColumnDriver(macro::MacroCell c, ColumnBench bench)
      : MacroDriver(std::move(c)), bench_(std::move(bench)) {
    nominal_ = grid(cell.netlist, bench_.mid_slice);
    for (const double delta_v : {kDecisionGrid.front(), kDecisionGrid.back()})
      benches.push_back(
          bench_.instantiate(cell.netlist, bench_.mid_slice, delta_v));
    layout = comparator_measurement_layout();
  }

  std::optional<std::vector<double>> measure(
      const std::vector<Netlist>& perturbed) const override {
    try {
      const ComparatorRun lo = bench_.run(perturbed[0], bench_.mid_slice);
      const ComparatorRun hi = bench_.run(perturbed[1], bench_.mid_slice);
      return comparator_measurements(lo, hi);
    } catch (const util::ConvergenceError&) {
      return std::nullopt;  // drop this Monte-Carlo sample
    }
  }

  FaultOutcome classify(
      const Netlist& faulty,
      const fault::CircuitFault& representative) const override {
    return classify_grid(grid(faulty, bench_.observed_slice(representative)),
                         nominal_, *envelope);
  }

 private:
  std::array<ComparatorRun, 4> grid(const Netlist& macro_netlist,
                                    int slice) const {
    return run_decision_grid([&](double delta_v) {
      return bench_.run(bench_.instantiate(macro_netlist, slice, delta_v),
                        slice);
    });
  }

  ColumnBench bench_;
  std::array<ComparatorRun, 4> nominal_;
};

std::unique_ptr<MacroDriver> make_comparator(const CampaignConfig& config) {
  ColumnBench bench;
  bench.instantiate = [](const Netlist& macro, int, double delta_v) {
    return instantiate_comparator_bench(macro, delta_v);
  };
  bench.run = [solver = config.solver](const Netlist& full, int) {
    return run_comparator(full, solver);
  };
  bench.observed_slice = [](const fault::CircuitFault&) { return 0; };
  auto driver = std::make_unique<ColumnDriver>(
      build_comparator_macro(config.dft), std::move(bench));
  driver->supplies = {"VDDA", "VDDD", "VBN_SRC", "VBC_SRC"};
  // IVdd and the analog/reference input currents are chip-level
  // measurements shared by all 256 comparator instances; the fault-free
  // spread one faulty instance must escape scales accordingly.
  driver->dilution = static_cast<double>(driver->cell.instance_count);
  return driver;
}

BankOptions bank_options_of(const CampaignConfig& config) {
  BankOptions opt;
  opt.size = config.bank_size;
  opt.dft = config.dft;
  opt.solver = config.solver;
  return opt;
}

std::unique_ptr<MacroDriver> make_bank(const CampaignConfig& config) {
  const BankOptions opt = bank_options_of(config);
  ColumnBench bench;
  bench.mid_slice = opt.size / 2;
  bench.instantiate = [opt](const Netlist& macro, int slice, double delta_v) {
    return instantiate_bank_bench(macro, opt, slice, delta_v);
  };
  bench.run = [opt](const Netlist& full, int slice) {
    return run_bank_bench(full, opt, slice);
  };
  bench.observed_slice = [opt](const fault::CircuitFault& fault) {
    return bank_observed_slice(opt, fault);
  };
  auto driver =
      std::make_unique<ColumnDriver>(build_bank_macro(opt), std::move(bench));
  driver->supplies = {"VDDA", "VDDD", "VBN_SRC", "VBC_SRC"};
  // N slices already sum inside the column measurement; the remaining
  // chip-level dilution is the kLevels/N bank instances, so the total
  // matches the per-comparator campaign's 256-instance dilution.
  driver->dilution = static_cast<double>(driver->cell.instance_count);
  return driver;
}

ChipOptions chip_options_of(const CampaignConfig& config) {
  ChipOptions opt;
  opt.slices = config.chip_slices;
  opt.dft = config.dft;
  opt.solver = config.solver;
  return opt;
}

std::unique_ptr<MacroDriver> make_chip(const CampaignConfig& config) {
  const ChipOptions opt = chip_options_of(config);
  ColumnBench bench;
  bench.mid_slice = opt.slices / 2;
  bench.instantiate = [opt](const Netlist& macro, int slice, double delta_v) {
    return instantiate_chip_bench(macro, opt, slice, delta_v);
  };
  bench.run = [opt](const Netlist& full, int slice) {
    return run_chip_bench(full, opt, slice);
  };
  bench.observed_slice = [opt](const fault::CircuitFault& fault) {
    return chip_observed_slice(opt, fault);
  };
  auto driver =
      std::make_unique<ColumnDriver>(build_chip_macro(opt), std::move(bench));
  // Only the two chip supplies are perturbed: the bias and clock
  // sources of the bank bench are on-chip hardware here, inside the
  // netlist being measured. The chip is the whole converter: the
  // measured currents already carry the full-chip dilution, so none is
  // added.
  driver->supplies = {"VDDA", "VDDD"};
  return driver;
}

/// The DC macros (ladder, biasgen, clockgen, decoder): one golden
/// solver context shared read-only by every worker, one DC solve of the
/// macro netlist per envelope sample and per faulty netlist. A faulty
/// macro without an operating point is stuck, and its `fallback`
/// current flag is grossly abnormal. Subclasses supply the envelope
/// measurement of a solution and its voltage signature.
template <typename Context, typename Solution>
class DcDriver : public MacroDriver {
 public:
  using Solve = Solution (*)(const Netlist&, const Context*);

  using MakeContext = Context (*)(const Netlist&,
                                  const spice::SolverOptions&);

  DcDriver(macro::MacroCell c, const CampaignConfig& config,
           MakeContext make_context, Solve solve,
           bool CurrentSignature::*fallback)
      : MacroDriver(std::move(c)),
        context_(make_context(cell.netlist, config.solver)),
        nominal_(solve(cell.netlist, &context_)),
        solve_(solve),
        fallback_(fallback) {
    benches = {cell.netlist};
  }

  std::optional<std::vector<double>> measure(
      const std::vector<Netlist>& perturbed) const override {
    const Solution sol = solve_(perturbed.front(), &context_);
    if (!sol.converged) return std::nullopt;
    return measurements(sol);
  }

  FaultOutcome classify(const Netlist& faulty,
                        const fault::CircuitFault&) const override {
    FaultOutcome outcome;
    const Solution sol = solve_(faulty, &context_);
    if (!sol.converged) {
      outcome.voltage = VoltageSignature::kOutputStuckAt;
      outcome.current.*fallback_ = true;
    } else {
      outcome.voltage = voltage(sol);
      outcome.current = envelope->classify(measurements(sol));
    }
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  }

 protected:
  virtual std::vector<double> measurements(const Solution& sol) const = 0;
  virtual VoltageSignature voltage(const Solution& sol) const = 0;

  const Context context_;
  const Solution nominal_;

 private:
  Solve solve_;
  bool CurrentSignature::*fallback_;
};

class LadderDriver final : public DcDriver<LadderContext, LadderSolution> {
 public:
  explicit LadderDriver(const CampaignConfig& config)
      : DcDriver(build_ladder_macro(), config, make_ladder_context,
                 solve_ladder, &CurrentSignature::iinput) {
    layout.add("iref_p", macro::MeasurementKind::kIinput);
    layout.add("iref_m", macro::MeasurementKind::kIinput);
    // The reference string is built in a precision poly module whose
    // sheet resistance and temperature coefficient are controlled far
    // more tightly than generic poly; the resulting narrow
    // reference-current band is what makes nearly every ladder fault
    // current-detectable (paper: 99.8%).
    spread.res_sigma_rel_global = 0.015;
    spread.res_tc = 1e-4;
  }

 private:
  std::vector<double> measurements(const LadderSolution& sol) const override {
    return {sol.iref_p, sol.iref_m};
  }

  /// Propagates the faulty tap vector through the behavioral converter.
  /// The signature carries its missing-code verdict: a missing code
  /// maps to stuck-at or offset, which make_outcome propagates as
  /// missing_code, and intact codes to mixed or no-deviation, which it
  /// does not -- so detection.missing_code is has_missing_code exactly.
  VoltageSignature voltage(const LadderSolution& sol) const override {
    const bool missing = has_missing_code(FlashAdcModel(sol.taps));
    // Tap errors below one LSB leave the codes intact but may still be
    // a measurable offset; classify by the worst tap deviation.
    double worst = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kLevels); ++i)
      worst = std::max(worst, std::fabs(sol.taps[i] - nominal_.taps[i]));
    if (missing)
      return worst > 10 * lsb() ? VoltageSignature::kOutputStuckAt
                                : VoltageSignature::kOffset;
    return worst > lsb() / 2 ? VoltageSignature::kMixed
                             : VoltageSignature::kNoDeviation;
  }
};

class BiasgenDriver final
    : public DcDriver<BiasgenContext, BiasgenSolution> {
 public:
  explicit BiasgenDriver(const CampaignConfig& config)
      : DcDriver(build_biasgen_macro(), config, make_biasgen_context,
                 solve_biasgen, &CurrentSignature::ivdd) {
    layout.add("ivdd", macro::MeasurementKind::kIVdd);
  }

 private:
  std::vector<double> measurements(const BiasgenSolution& sol) const override {
    return {sol.ivdd};
  }

  VoltageSignature voltage(const BiasgenSolution& sol) const override {
    const double dev = std::max(std::fabs(sol.vbn - nominal_.vbn),
                                std::fabs(sol.vbc - nominal_.vbc));
    // A grossly wrong bias starves / floods all comparator tails: the
    // converter produces stuck codes. Moderate shifts only degrade
    // dynamics (no missing code at the slow missing-code test).
    if (dev > 0.15) return VoltageSignature::kOutputStuckAt;
    if (dev > 0.03) return VoltageSignature::kMixed;
    return VoltageSignature::kNoDeviation;
  }
};

class ClockgenDriver final
    : public DcDriver<ClockgenContext, ClockgenSolution> {
 public:
  explicit ClockgenDriver(const CampaignConfig& config)
      : DcDriver(build_clockgen_macro(), config, make_clockgen_context,
                 solve_clockgen, &CurrentSignature::iddq) {
    layout.add("iddq_low", macro::MeasurementKind::kIddq);
    layout.add("iddq_high", macro::MeasurementKind::kIddq);
    layout.add("iclk_low", macro::MeasurementKind::kIinput);
    layout.add("iclk_high", macro::MeasurementKind::kIinput);
    supplies = {"VDDD"};
  }

 private:
  std::vector<double> measurements(
      const ClockgenSolution& sol) const override {
    return {sol.iddq_low, sol.iddq_high, sol.iclk_low, sol.iclk_high};
  }

  VoltageSignature voltage(const ClockgenSolution& sol) const override {
    double worst = 0.0;
    bool logic_broken = false;
    for (int i = 0; i < 3; ++i) {
      const double dl = std::fabs(sol.out_low[i] - nominal_.out_low[i]);
      const double dh = std::fabs(sol.out_high[i] - nominal_.out_high[i]);
      worst = std::max({worst, dl, dh});
      const bool flip_low = (sol.out_low[i] > kVddd / 2) !=
                            (nominal_.out_low[i] > kVddd / 2);
      const bool flip_high = (sol.out_high[i] > kVddd / 2) !=
                             (nominal_.out_high[i] > kVddd / 2);
      logic_broken = logic_broken || flip_low || flip_high;
    }
    if (logic_broken) return VoltageSignature::kOutputStuckAt;  // clocks dead
    if (worst > 0.05) return VoltageSignature::kClockValue;
    return VoltageSignature::kNoDeviation;
  }
};

class DecoderDriver final
    : public DcDriver<DecoderContext, DecoderSolution> {
 public:
  explicit DecoderDriver(const CampaignConfig& config)
      : DcDriver(build_decoder_macro(), config, make_decoder_context,
                 solve_decoder, &CurrentSignature::iddq) {
    for (int v = 0; v <= kDecoderSliceInputs; ++v)
      layout.add("iddq_v" + std::to_string(v), macro::MeasurementKind::kIddq);
    supplies = {"VDDD"};
  }

 private:
  std::vector<double> measurements(const DecoderSolution& sol) const override {
    return {sol.iddq.begin(), sol.iddq.end()};
  }

  VoltageSignature voltage(const DecoderSolution& sol) const override {
    for (int v = 0; v <= kDecoderSliceInputs; ++v)
      for (int r = 0; r < 4; ++r)
        if ((sol.rows[static_cast<std::size_t>(v)]
                     [static_cast<std::size_t>(r)] > kVddd / 2) !=
            decoder_row_expected(v, r))
          return VoltageSignature::kOutputStuckAt;
    return VoltageSignature::kNoDeviation;
  }
};

template <typename Driver>
std::unique_ptr<MacroDriver> make(const CampaignConfig& config) {
  return std::make_unique<Driver>(config);
}

macro::SliceMapper bank_mapper(const CampaignConfig& config) {
  return bank_slice_mapper(bank_options_of(config));
}

macro::SliceMapper chip_mapper(const CampaignConfig& config) {
  return chip_slice_mapper(chip_options_of(config));
}

/// One row per macro campaign, in canonical (journal and report)
/// order. Every per-macro decision the skeleton takes is read here;
/// the salts keep each macro's sprinkle and envelope streams apart.
struct MacroKind {
  const char* name;
  /// Supply net of the sprinkle's supply shorts and the fault models.
  const char* supply_net;
  /// Added to config.seed for the defect sprinkle.
  std::uint64_t sprinkle_offset;
  /// XORed into config.seed for the envelope Monte-Carlo stream.
  std::uint64_t envelope_salt;
  /// One of the five macros of the decomposed flow ("all").
  bool decomposed;
  /// Builds the cell and its fault-free state.
  std::unique_ptr<MacroDriver> (*make)(const CampaignConfig&);
  /// Projects the macro's classes onto the single comparator for
  /// compare_decomposition; nullptr when there is no such projection.
  macro::SliceMapper (*slice_mapper)(const CampaignConfig&);
};

const MacroKind kMacros[] = {
    {"comparator", "vdda", 1, 0xc0ffee, true, make_comparator, nullptr},
    {"ladder", "vdda", 2, 0x1adde4, true, make<LadderDriver>, nullptr},
    {"biasgen", "vdda", 3, 0xb1a5, true, make<BiasgenDriver>, nullptr},
    {"clockgen", "vddd", 4, 0xc10c, true, make<ClockgenDriver>, nullptr},
    {"decoder", "vddd", 5, 0xdec0de, true, make<DecoderDriver>, nullptr},
    {"bank", "vdda", 6, 0xba4c, false, make_bank, bank_mapper},
    {"chip", "vdda", 7, 0xc41b, false, make_chip, chip_mapper},
};

const MacroKind* find_kind(const std::string& name) {
  for (const MacroKind& kind : kMacros)
    if (name == kind.name) return &kind;
  return nullptr;
}

const MacroKind& kind_of(const std::string& name) {
  if (const MacroKind* kind = find_kind(name)) return *kind;
  std::string expected = "all";
  for (const MacroKind& kind : kMacros)
    expected += std::string(", ") + kind.name;
  throw util::InvalidInputError("unknown macro '" + name + "' (expected " +
                                expected + ")");
}

// ---------------------------------------------------------------------
// The campaign skeleton: the macro-independent half of the pipeline.

/// Builds the driver's good-signature envelope: one counter-based RNG
/// stream per Monte-Carlo sample keeps the population identical at any
/// thread count. Returns the number of samples kept.
std::size_t fill_envelope(MacroDriver& driver, const MacroKind& kind,
                   const CampaignConfig& config) {
  const MacroDriver& d = driver;
  const util::Rng master(config.seed ^ kind.envelope_salt);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(d.spread, rng);
        std::vector<Netlist> perturbed;
        for (const Netlist& bench : d.benches)
          perturbed.push_back(
              spice::perturb(bench, d.spread, env, d.supplies, rng));
        return d.measure(perturbed);
      });
  macro::BandPolicy policy = config.band_policy;
  policy.ivdd_dilution *= d.dilution;
  policy.iinput_dilution *= d.dilution;
  driver.envelope.emplace(macro::build_envelope(d.layout, samples, policy));
  return samples.size();
}

FaultModelOptions model_options(const CampaignConfig& config,
                                const MacroKind& kind) {
  FaultModelOptions opt = config.fault_models;
  opt.vdd_net = kind.supply_net;
  opt.new_device_model = nmos_model();
  return opt;
}

/// The hardest-to-detect outcome over the fault model's variants of
/// `fault` in the driver's macro (nullopt when the model has none).
std::optional<FaultOutcome> worst_variant(const MacroDriver& driver,
                                          const fault::CircuitFault& fault,
                                          const FaultModelOptions& model_opt,
                                          bool noncat) {
  std::optional<FaultOutcome> worst;
  const int variants = fault::model_variant_count(fault);
  for (int variant = 0; variant < variants; ++variant) {
    FaultOutcome outcome = driver.classify(
        fault::apply_fault(driver.cell.netlist, fault, model_opt, variant,
                           noncat),
        fault);
    if (!worst || detectability_score(outcome) < detectability_score(*worst))
      worst = std::move(outcome);
  }
  return worst;
}

/// Catastrophic / non-catastrophic outcome pair of one fault class,
/// plus the solver work its transients reported (all attempts).
struct ClassEval {
  std::optional<FaultOutcome> cat;
  std::optional<FaultOutcome> noncat;
  spice::TranTotals totals;
};

/// For each (possibly truncated) fault class, for each catastrophic /
/// non-catastrophic form, keep the hardest-to-detect model variant of
/// the faulty macro netlist.
///
/// Classes are evaluated in parallel: each one builds its own faulty
/// netlist and shares only read-only state (good netlist, options, the
/// driver), and the results are appended in likelihood order
/// afterwards, so the outcome vectors are bit-identical at any thread
/// count.
///
/// The resilience layer hooks in here:
///   * sharding -- this process evaluates class c iff
///     c % shard_count == shard_index; classes are independent, so the
///     union of all shards equals the unsharded run bit-for-bit;
///   * resume -- classes already in the journal are restored instead of
///     re-evaluated (the stored representative is abbreviated, so it is
///     rehydrated from the deterministic re-sprinkle);
///   * graceful degradation -- each class runs under an EvalScope with
///     the configured wall-clock budget; a failed attempt is retried
///     with the continuation aid ladder escalated one rung, and a class
///     that exhausts 1 + max_retries attempts is carried as a
///     structured kUnresolved outcome instead of aborting the campaign.
///
/// The same EvalScope carries a spice::TranTotals sink, so the phase
/// times (--phase-times) of every transient a class runs are summed
/// into the result in class order.
void evaluate_classes(const MacroDriver& driver,
                      const std::vector<FaultClass>& classes,
                      const FaultModelOptions& model_opt,
                      const CampaignConfig& config, CampaignJournal* journal,
                      MacroCampaignResult& result) {
  const std::string& macro_name = result.macro_name;
  const ResilienceOptions& res = config.resilience;
  if (res.shard_count == 0 || res.shard_index >= res.shard_count)
    throw util::ShardError("shard index " + std::to_string(res.shard_index) +
                           " out of range for " +
                           std::to_string(res.shard_count) + " shards");

  auto evaluate_once = [&](std::size_t c) {
    const auto& cls = classes[c];
    ClassEval eval;
    for (int pass = 0; pass < 2; ++pass) {
      const bool noncat = pass == 1;
      if (noncat && (!config.with_noncatastrophic ||
                     !fault::supports_noncatastrophic(cls.representative)))
        continue;
      auto worst =
          worst_variant(driver, cls.representative, model_opt, noncat);
      if (worst) {
        worst->cls = cls;
        worst->non_catastrophic = noncat;
      }
      (noncat ? eval.noncat : eval.cat) = std::move(worst);
    }
    return eval;
  };

  auto evals = util::parallel_map(classes.size(), [&](std::size_t c) {
    ClassEval eval;
    if (c % res.shard_count != res.shard_index) return eval;
    if (journal != nullptr) {
      if (const ClassRecord* record = journal->completed(macro_name, c)) {
        eval.cat = record->catastrophic;
        eval.noncat = record->noncatastrophic;
        if (eval.cat) eval.cat->cls = classes[c];
        if (eval.noncat) eval.noncat->cls = classes[c];
        return eval;
      }
    }
    // Graceful shutdown: skip classes not yet evaluated (restored ones
    // above still land in the partial report); the caller marks the
    // report `interrupted` and exits nonzero.
    if (util::shutdown_requested()) return eval;
    const int attempts_allowed = 1 + std::max(0, res.max_retries);
    std::string failure;
    spice::TranTotals totals;
    totals.collect_phase_times = config.collect_phase_times;
    for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
      spice::EvalBudget budget;
      budget.timeout_ms = res.class_timeout_ms;
      budget.aid_level = attempt - 1;
      spice::EvalScope scope(macro_name, c, budget, &totals);
      try {
        eval = evaluate_once(c);
        if (eval.cat) eval.cat->attempts = attempt;
        if (eval.noncat) eval.noncat->attempts = attempt;
        failure.clear();
        break;
      } catch (const util::ShardError&) {
        throw;  // infrastructure failure, not a circuit pathology
      } catch (const std::exception& e) {
        failure = e.what();
        eval = ClassEval{};
      }
    }
    if (!failure.empty()) {
      // Retry/aid budget exhausted: carry the class as a structured
      // unresolved outcome. It lands in its own coverage bucket --
      // never silently counted detected or undetected.
      auto unresolved = [&](bool noncat) {
        FaultOutcome o;
        o.cls = classes[c];
        o.non_catastrophic = noncat;
        o.status = EvalStatus::kUnresolved;
        o.attempts = attempts_allowed;
        o.failure = failure;
        return o;
      };
      eval.cat = unresolved(false);
      if (config.with_noncatastrophic &&
          fault::supports_noncatastrophic(classes[c].representative))
        eval.noncat = unresolved(true);
    }
    eval.totals = totals;
    if (journal != nullptr)
      journal->record_class(macro_name, c, eval.cat, eval.noncat);
    return eval;
  });
  for (auto& eval : evals) {
    if (eval.cat) result.catastrophic.push_back(std::move(*eval.cat));
    if (eval.noncat) result.noncatastrophic.push_back(std::move(*eval.noncat));
    result.phase_times += eval.totals.phases;
  }
}

/// One macro campaign (paper fig. 1): build the cell and its fault-free
/// state, sprinkle defects and collapse them into classes, journal the
/// macro record, build the envelope, evaluate every class.
MacroCampaignResult run_driver(const MacroKind& kind,
                               const CampaignConfig& config,
                               CampaignJournal* journal) {
  const std::unique_ptr<MacroDriver> driver = kind.make(config);
  const macro::MacroCell& cell = driver->cell;
  MacroCampaignResult result;
  result.macro_name = kind.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;

  defect::CampaignOptions sprinkle;
  sprinkle.statistics = config.statistics;
  sprinkle.defect_count = config.defect_count;
  sprinkle.seed = config.seed + kind.sprinkle_offset;
  sprinkle.vdd_net = kind.supply_net;
  result.defects = defect::run_campaign(cell.layout, sprinkle);
  if (journal != nullptr) journal->record_macro(result);
  result.envelope_samples_kept = fill_envelope(*driver, kind, config);
  result.envelope = driver->envelope->space();

  // Classes are ranked by likelihood, so truncation keeps the weight
  // distribution nearly intact.
  std::vector<FaultClass> classes = result.defects.classes;
  if (config.max_classes > 0 && classes.size() > config.max_classes)
    classes.resize(config.max_classes);
  evaluate_classes(*driver, classes, model_options(config, kind), config,
                   journal, result);
  return result;
}

}  // namespace

macro::MacroContribution MacroCampaignResult::contribution(
    bool non_catastrophic) const {
  macro::MacroContribution c;
  c.name = macro_name;
  c.cell_area = cell_area;
  c.instance_count = instance_count;
  for (const auto& outcome :
       non_catastrophic ? noncatastrophic : catastrophic)
    c.outcomes.push_back({outcome.detection,
                          static_cast<double>(outcome.cls.count),
                          outcome.status == EvalStatus::kUnresolved});
  return c;
}

std::vector<double> MacroCampaignResult::voltage_signature_fractions(
    bool non_catastrophic) const {
  std::vector<double> fractions(macro::kVoltageSignatureCount, 0.0);
  double total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    if (o.status != EvalStatus::kOk) continue;  // no trustworthy signature
    fractions[static_cast<std::size_t>(o.voltage)] +=
        static_cast<double>(o.cls.count);
    total += static_cast<double>(o.cls.count);
  }
  if (total > 0.0)
    for (auto& f : fractions) f /= total;
  return fractions;
}

std::vector<double> MacroCampaignResult::current_signature_fractions(
    bool non_catastrophic) const {
  std::vector<double> fractions(4, 0.0);
  double total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    if (o.status != EvalStatus::kOk) continue;  // no trustworthy signature
    const auto w = static_cast<double>(o.cls.count);
    if (o.current.ivdd) fractions[0] += w;
    if (o.current.iddq) fractions[1] += w;
    if (o.current.iinput) fractions[2] += w;
    if (!o.current.any()) fractions[3] += w;
    total += w;
  }
  if (total > 0.0)
    for (auto& f : fractions) f /= total;
  return fractions;
}

double MacroCampaignResult::coverage(bool non_catastrophic) const {
  double detected = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kOk && o.detection.detected()) detected += w;
    total += w;
  }
  return total > 0.0 ? detected / total : 0.0;
}

double MacroCampaignResult::current_coverage(bool non_catastrophic) const {
  double detected = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kOk && o.detection.current_detected())
      detected += w;
    total += w;
  }
  return total > 0.0 ? detected / total : 0.0;
}

double MacroCampaignResult::unresolved_weight(bool non_catastrophic) const {
  double unresolved = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kUnresolved) unresolved += w;
    total += w;
  }
  return total > 0.0 ? unresolved / total : 0.0;
}

std::size_t MacroCampaignResult::unresolved_classes() const {
  std::size_t n = 0;
  for (const auto& o : catastrophic)
    if (o.status == EvalStatus::kUnresolved) ++n;
  for (const auto& o : noncatastrophic)
    if (o.status == EvalStatus::kUnresolved) ++n;
  return n;
}


std::vector<std::string> macro_names() {
  std::vector<std::string> names;
  for (const MacroKind& kind : kMacros) names.emplace_back(kind.name);
  return names;
}

std::vector<std::string> campaign_macros(const std::string& selection) {
  if (selection != "all") return {kind_of(selection).name};
  std::vector<std::string> names;
  for (const MacroKind& kind : kMacros)
    if (kind.decomposed) names.emplace_back(kind.name);
  return names;
}

bool has_decomposition(const std::string& macro_name) {
  const MacroKind* kind = find_kind(macro_name);
  return kind != nullptr && kind->slice_mapper != nullptr;
}

MacroCampaignResult run_macro_campaign(const std::string& macro_name,
                                       const CampaignConfig& config) {
  return run_driver(kind_of(macro_name), config, nullptr);
}

macro::EquivalenceReport compare_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& composite) {
  const MacroKind& kind = kind_of(composite.macro_name);
  if (kind.slice_mapper == nullptr)
    throw util::InvalidInputError("compare_decomposition: macro '" +
                                  composite.macro_name +
                                  "' has no per-comparator decomposition");
  const macro::SliceMapper mapper = kind.slice_mapper(config);
  const MacroKind& comparator = kind_of("comparator");
  const std::unique_ptr<MacroDriver> driver = comparator.make(config);
  fill_envelope(*driver, comparator, config);
  const FaultModelOptions model_opt = model_options(config, comparator);

  // One entry per catastrophic composite class: project it onto the
  // single-comparator namespace; mapped classes are re-evaluated there
  // with the campaign's own variant loop / worst-case keep. What
  // project_fault cannot map -- genuine inter-slice hardware, and on
  // the chip the decoder / clockgen / biasgen hardware, the digital
  // nets and every interface-straddling bridge -- lands in its own
  // equivalence bucket.
  const auto& outcomes = composite.catastrophic;
  auto entries = util::parallel_map(outcomes.size(), [&](std::size_t i) {
    const FaultOutcome& o = outcomes[i];
    macro::EquivalenceEntry e;
    e.index = i;
    e.weight = static_cast<double>(o.cls.count);
    e.composite_key = o.cls.representative.key();
    e.composite_voltage = o.voltage;
    e.composite_detection = o.detection;
    e.composite_unresolved = o.status == EvalStatus::kUnresolved;
    const macro::ProjectedFault projected =
        macro::project_fault(o.cls.representative, mapper);
    e.locality = projected.locality;
    e.slice = projected.slice;
    if (!projected.fault) return e;
    e.projected_key = projected.fault->key();
    try {
      const auto worst =
          worst_variant(*driver, *projected.fault, model_opt, false);
      if (worst) {
        e.projected_voltage = worst->voltage;
        e.projected_detection = worst->detection;
      } else {
        e.projected_unresolved = true;
      }
    } catch (const std::exception&) {
      // The projection is structurally valid but the comparator-side
      // model rejected it (e.g. hardware mismatch): carry it as
      // unresolved on the projected side rather than aborting the diff.
      e.projected_unresolved = true;
    }
    return e;
  });
  return macro::compile_equivalence(std::move(entries));
}

// ---------------------------------------------------------------------
// Global compilation.

GlobalResult compile_global(std::vector<MacroCampaignResult> macros) {
  GlobalResult global;
  std::vector<macro::MacroContribution> cat, noncat;
  for (const auto& m : macros) {
    cat.push_back(m.contribution(false));
    noncat.push_back(m.contribution(true));
  }
  global.venn_catastrophic = macro::compile_global(cat);
  global.matrix_catastrophic = macro::compile_global_matrix(cat);
  // Macros without non-catastrophic variants contribute nothing there.
  std::erase_if(noncat, [](const macro::MacroContribution& c) {
    return c.outcomes.empty();
  });
  if (!noncat.empty()) {
    global.venn_noncatastrophic = macro::compile_global(noncat);
    global.matrix_noncatastrophic = macro::compile_global_matrix(noncat);
  }
  global.macros = std::move(macros);
  return global;
}

/// The macro campaigns are fully independent until the global
/// compilation (paper fig. 1), so they fan out across the pool; each
/// one's inner loops keep parallelizing on whatever threads are free
/// (the pool's caller-participates design makes nesting safe).
GlobalResult run_campaign(const CampaignConfig& config) {
  std::vector<const MacroKind*> kinds;
  for (const std::string& name : campaign_macros(config.macro_selection))
    kinds.push_back(&kind_of(name));
  std::unique_ptr<CampaignJournal> journal;
  if (!config.resilience.journal_path.empty())
    journal = std::make_unique<CampaignJournal>(config);
  std::vector<MacroCampaignResult> macros;
  if (kinds.size() == 1) {
    // Run inline, so its exceptions reach the caller unwrapped.
    macros.push_back(run_driver(*kinds.front(), config, journal.get()));
  } else {
    macros = util::parallel_map(kinds.size(), [&](std::size_t m) {
      return run_driver(*kinds[m], config, journal.get());
    });
  }
  if (journal) journal->close();
  return compile_global(std::move(macros));
}

}  // namespace dot::flashadc
