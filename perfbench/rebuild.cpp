#include "rebuild.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "spice/montecarlo.hpp"
#include "spice/resilience.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using dot::fault::FaultClass;
using dot::fault::FaultModelOptions;
using dot::flashadc::CampaignConfig;
using dot::flashadc::ComparatorRun;
using dot::flashadc::EvalStatus;
using dot::flashadc::FaultOutcome;
using dot::flashadc::MacroCampaignResult;
using dot::macro::CurrentSignature;
using dot::macro::DetectionOutcome;
using dot::macro::VoltageSignature;
using dot::spice::Netlist;
namespace flashadc = dot::flashadc;
namespace macro = dot::macro;
namespace spice = dot::spice;
namespace util = dot::util;

namespace {

// The helpers below restate private steps of flashadc/campaign.cpp; a
// drift between the two shows up as a count or verdict mismatch.

DetectionOutcome make_outcome(VoltageSignature voltage,
                              const CurrentSignature& current) {
  DetectionOutcome out;
  out.missing_code = voltage == VoltageSignature::kOutputStuckAt ||
                     voltage == VoltageSignature::kOffset;
  out.ivdd = current.ivdd;
  out.iddq = current.iddq;
  out.iinput = current.iinput;
  return out;
}

int detectability_score(const FaultOutcome& outcome) {
  return int{outcome.detection.missing_code} + int{outcome.detection.ivdd} +
         int{outcome.detection.iddq} + int{outcome.detection.iinput};
}

struct MacroRun {
  MacroCampaignResult result;
  std::size_t envelope_kept = 0;
};

/// A macro's result header and its sprinkled, extracted and collapsed
/// defects (campaign.cpp's sprinkle with the macro's seed offset).
MacroRun start_macro(const macro::MacroCell& cell, const CampaignConfig& config,
                     std::uint64_t seed_offset) {
  MacroRun run;
  run.result.macro_name = cell.name;
  run.result.cell_area = cell.cell_area();
  run.result.instance_count = cell.instance_count;
  dot::defect::CampaignOptions opt;
  opt.statistics = config.statistics;
  opt.defect_count = config.defect_count;
  opt.seed = config.seed + seed_offset;
  opt.vdd_net = cell.layout.name() == "clockgen" ||
                        cell.layout.name() == "decoder"
                    ? "vddd"
                    : "vdda";
  Span span("defect.sprinkle");
  run.result.defects = dot::defect::run_campaign(cell.layout, opt);
  return run;
}

FaultModelOptions model_options(const CampaignConfig& config,
                                const std::string& vdd_net) {
  FaultModelOptions opt = config.fault_models;
  opt.vdd_net = vdd_net;
  opt.new_device_model = flashadc::nmos_model();
  return opt;
}

/// fn() under a span named `name`.
template <typename Fn>
auto traced(const char* name, Fn&& fn) {
  Span span(name);
  return fn();
}

/// monte_carlo_samples + build_envelope under a "macro.envelope" span;
/// each sample runs on the pool under that span.
template <typename Sample>
macro::GoodEnvelope traced_envelope(
    const macro::MeasurementLayout& layout, const CampaignConfig& config,
    std::uint64_t salt, const macro::BandPolicy& policy, Sample&& sample,
    std::size_t& kept) {
  Span span("macro.envelope");
  const std::uint32_t parent = span.id();
  const util::Rng master(config.seed ^ salt);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int i, util::Rng& rng) -> std::optional<std::vector<double>> {
        ParentScope scope(parent);
        return sample(i, rng);
      });
  kept = samples.size();
  return macro::build_envelope(layout, samples, policy);
}

spice::TranResult traced_transient(const Netlist& bench,
                                   spice::TranOptions options) {
  options.collect_phase_times = true;
  Span span("spice.tran");
  try {
    spice::TranResult result = spice::transient(bench, options);
    span.set_tran(result.stats(), result.steps());
    return result;
  } catch (const util::ConvergenceError&) {
    span.set_nonconverged();
    throw;
  }
}

struct ClassEval {
  std::optional<FaultOutcome> cat;
  std::optional<FaultOutcome> noncat;
};

/// flashadc's evaluate_classes without shards, journal or batching:
/// every class under one "eval.class" span on the pool, its attempt
/// ladder, variant loop and worst-variant keep unchanged.
template <typename Evaluate>
void evaluate_classes(const Netlist& good, const CampaignConfig& config,
                      const FaultModelOptions& model_opt, Evaluate&& evaluate,
                      MacroCampaignResult& result) {
  Span stage("eval.stage");
  const std::uint32_t parent = stage.id();
  std::vector<FaultClass> classes = result.defects.classes;
  if (config.max_classes > 0 && classes.size() > config.max_classes)
    classes.resize(config.max_classes);
  const auto& res = config.resilience;

  auto evaluate_once = [&](std::size_t c) {
    const FaultClass& cls = classes[c];
    ClassEval eval;
    for (int pass = 0; pass < 2; ++pass) {
      const bool noncat = pass == 1;
      if (noncat && (!config.with_noncatastrophic ||
                     !dot::fault::supports_noncatastrophic(cls.representative)))
        continue;
      std::optional<FaultOutcome> worst;
      const int variants = dot::fault::model_variant_count(cls.representative);
      for (int variant = 0; variant < variants; ++variant) {
        const Netlist faulty = traced("fault.apply", [&] {
          return dot::fault::apply_fault(good, cls.representative, model_opt,
                                         variant, noncat);
        });
        FaultOutcome outcome = evaluate(faulty, cls.representative);
        outcome.cls = cls;
        outcome.non_catastrophic = noncat;
        if (!worst ||
            detectability_score(outcome) < detectability_score(*worst))
          worst = std::move(outcome);
      }
      (noncat ? eval.noncat : eval.cat) = std::move(worst);
    }
    return eval;
  };

  auto evals = util::parallel_map(classes.size(), [&](std::size_t c) {
    ParentScope scope(parent);
    Span span("eval.class");
    ClassEval eval;
    const int attempts_allowed = 1 + std::max(0, res.max_retries);
    std::string failure;
    for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
      spice::EvalBudget budget;
      budget.timeout_ms = res.class_timeout_ms;
      budget.aid_level = attempt - 1;
      spice::EvalScope eval_scope(result.macro_name, c, budget);
      try {
        eval = evaluate_once(c);
        if (eval.cat) eval.cat->attempts = attempt;
        if (eval.noncat) eval.noncat->attempts = attempt;
        failure.clear();
        break;
      } catch (const std::exception& e) {
        failure = e.what();
        eval = ClassEval{};
      }
    }
    if (!failure.empty()) {
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
          dot::fault::supports_noncatastrophic(classes[c].representative))
        eval.noncat = unresolved(true);
    }
    return eval;
  });
  for (auto& eval : evals) {
    if (eval.cat) result.catastrophic.push_back(std::move(*eval.cat));
    if (eval.noncat) result.noncatastrophic.push_back(std::move(*eval.noncat));
  }
}

/// Comparator-style outcome from the four decision-grid runs.
FaultOutcome classify_grid(const std::array<ComparatorRun, 4>& runs,
                           const std::array<ComparatorRun, 4>& nominal,
                           const macro::GoodEnvelope& envelope) {
  FaultOutcome outcome;
  outcome.voltage = flashadc::classify_comparator(runs, nominal);
  if (runs.front().converged && runs.back().converged)
    outcome.current = envelope.classify(
        flashadc::comparator_measurements(runs.front(), runs.back()));
  else
    outcome.current.ivdd = true;
  outcome.detection = make_outcome(outcome.voltage, outcome.current);
  return outcome;
}

const std::vector<std::string> kAnalogSupplies = {"VDDA", "VDDD", "VBN_SRC",
                                                  "VBC_SRC"};

MacroRun comparator_campaign(const CampaignConfig& config) {
  const macro::MacroCell cell =
      traced("flashadc.cell_build",
             [&] { return flashadc::build_comparator_macro(config.dft); });
  const auto nominal = traced("flashadc.golden", [&] {
    return flashadc::simulate_comparator_grid(cell.netlist);
  });
  auto run_bench = [](const Netlist& bench) {
    return flashadc::extract_comparator_run(
        traced_transient(bench, flashadc::comparator_tran_options()));
  };
  macro::BandPolicy policy = config.band_policy;
  policy.ivdd_dilution *= static_cast<double>(cell.instance_count);
  policy.iinput_dilution *= static_cast<double>(cell.instance_count);
  std::size_t kept = 0;
  const spice::ProcessSpread spread;
  const auto envelope = traced_envelope(
      flashadc::comparator_measurement_layout(), config, 0xc0ffee, policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist lo_bench = spice::perturb(
            flashadc::instantiate_comparator_bench(
                cell.netlist, flashadc::kDecisionGrid.front()),
            spread, env, kAnalogSupplies, rng);
        const Netlist hi_bench = spice::perturb(
            flashadc::instantiate_comparator_bench(
                cell.netlist, flashadc::kDecisionGrid.back()),
            spread, env, kAnalogSupplies, rng);
        try {
          const ComparatorRun lo = run_bench(lo_bench);
          const ComparatorRun hi = run_bench(hi_bench);
          return flashadc::comparator_measurements(lo, hi);
        } catch (const util::ConvergenceError&) {
          return std::nullopt;
        }
      },
      kept);

  MacroRun run = start_macro(cell, config, 1);
  run.envelope_kept = kept;
  evaluate_classes(
      cell.netlist, config, model_options(config, "vdda"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault&) {
        std::array<ComparatorRun, 4> runs;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const Netlist bench = flashadc::instantiate_comparator_bench(
              faulty, flashadc::kDecisionGrid[i]);
          try {
            runs[i] = run_bench(bench);
          } catch (const util::ConvergenceError&) {
            runs[i] = ComparatorRun{};
          }
        }
        return classify_grid(runs, nominal, envelope);
      },
      run.result);
  return run;
}

MacroRun bank_campaign(const CampaignConfig& config) {
  flashadc::BankOptions bank_opt;
  bank_opt.size = config.bank_size;
  bank_opt.dft = config.dft;
  bank_opt.solver = config.solver;
  const macro::MacroCell cell =
      traced("flashadc.cell_build",
             [&] { return flashadc::build_bank_macro(bank_opt); });
  MacroRun run = start_macro(cell, config, 6);

  const int mid_slice = bank_opt.size / 2;
  const auto nominal = traced("flashadc.golden", [&] {
    return flashadc::simulate_bank_grid(cell.netlist, bank_opt, mid_slice);
  });
  auto run_bench = [&](const Netlist& bench, int slice) {
    spice::TranOptions tran = flashadc::bank_tran_options();
    tran.solver = bank_opt.solver;
    return flashadc::extract_bank_run(traced_transient(bench, tran), bank_opt,
                                      slice);
  };
  macro::BandPolicy policy = config.band_policy;
  policy.ivdd_dilution *= static_cast<double>(cell.instance_count);
  policy.iinput_dilution *= static_cast<double>(cell.instance_count);
  const spice::ProcessSpread spread;
  const auto envelope = traced_envelope(
      flashadc::comparator_measurement_layout(), config, 0xba4c, policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist lo_bench = spice::perturb(
            flashadc::instantiate_bank_bench(cell.netlist, bank_opt, mid_slice,
                                             flashadc::kDecisionGrid.front()),
            spread, env, kAnalogSupplies, rng);
        const Netlist hi_bench = spice::perturb(
            flashadc::instantiate_bank_bench(cell.netlist, bank_opt, mid_slice,
                                             flashadc::kDecisionGrid.back()),
            spread, env, kAnalogSupplies, rng);
        try {
          const ComparatorRun lo = run_bench(lo_bench, mid_slice);
          const ComparatorRun hi = run_bench(hi_bench, mid_slice);
          return flashadc::comparator_measurements(lo, hi);
        } catch (const util::ConvergenceError&) {
          return std::nullopt;
        }
      },
      run.envelope_kept);

  evaluate_classes(
      cell.netlist, config, model_options(config, "vdda"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault& rep) {
        const int slice = flashadc::bank_observed_slice(bank_opt, rep);
        std::array<ComparatorRun, 4> runs;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const Netlist bench = flashadc::instantiate_bank_bench(
              faulty, bank_opt, slice, flashadc::kDecisionGrid[i]);
          try {
            runs[i] = run_bench(bench, slice);
          } catch (const util::ConvergenceError&) {
            runs[i] = ComparatorRun{};
          }
        }
        return classify_grid(runs, nominal, envelope);
      },
      run.result);
  return run;
}

/// Outcome of a DC macro whose faulty circuit has no operating point.
FaultOutcome nonconverged_outcome(bool CurrentSignature::*flag) {
  FaultOutcome outcome;
  outcome.voltage = VoltageSignature::kOutputStuckAt;
  outcome.current.*flag = true;
  outcome.detection = make_outcome(outcome.voltage, outcome.current);
  return outcome;
}


MacroRun ladder_campaign(const CampaignConfig& config) {
  const macro::MacroCell cell = traced(
      "flashadc.cell_build", [] { return flashadc::build_ladder_macro(); });
  MacroRun run = start_macro(cell, config, 2);
  const auto golden = traced("flashadc.golden", [&] {
    flashadc::LadderContext context =
        flashadc::make_ladder_context(cell.netlist, config.solver);
    const flashadc::LadderSolution nominal =
        flashadc::solve_ladder(cell.netlist, &context);
    return std::make_pair(std::move(context), nominal);
  });
  const flashadc::LadderContext& context = golden.first;
  const flashadc::LadderSolution& nominal = golden.second;
  auto solve = [&](const Netlist& netlist) {
    return traced("spice.dc",
                  [&] { return flashadc::solve_ladder(netlist, &context); });
  };

  macro::MeasurementLayout layout;
  layout.add("iref_p", macro::MeasurementKind::kIinput);
  layout.add("iref_m", macro::MeasurementKind::kIinput);
  spice::ProcessSpread spread;
  spread.res_sigma_rel_global = 0.015;
  spread.res_tc = 1e-4;
  const auto envelope = traced_envelope(
      layout, config, 0x1adde4, config.band_policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const auto sol =
            solve(spice::perturb(cell.netlist, spread, env, {}, rng));
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iref_p, sol.iref_m};
      },
      run.envelope_kept);

  evaluate_classes(
      cell.netlist, config, model_options(config, "vdda"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault&) {
        const auto sol = solve(faulty);
        if (!sol.converged)
          return nonconverged_outcome(&CurrentSignature::iinput);
        FaultOutcome outcome;
        const bool missing =
            flashadc::has_missing_code(flashadc::FlashAdcModel(sol.taps));
        double worst = 0.0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(flashadc::kLevels);
             ++i)
          worst = std::max(worst, std::fabs(sol.taps[i] - nominal.taps[i]));
        if (missing)
          outcome.voltage = worst > 10 * flashadc::lsb()
                                ? VoltageSignature::kOutputStuckAt
                                : VoltageSignature::kOffset;
        else
          outcome.voltage = worst > flashadc::lsb() / 2
                                ? VoltageSignature::kMixed
                                : VoltageSignature::kNoDeviation;
        outcome.current = envelope.classify({sol.iref_p, sol.iref_m});
        outcome.detection = make_outcome(outcome.voltage, outcome.current);
        outcome.detection.missing_code = missing;
        return outcome;
      },
      run.result);
  return run;
}

MacroRun biasgen_campaign(const CampaignConfig& config) {
  const macro::MacroCell cell = traced(
      "flashadc.cell_build", [] { return flashadc::build_biasgen_macro(); });
  MacroRun run = start_macro(cell, config, 3);
  const auto golden = traced("flashadc.golden", [&] {
    flashadc::BiasgenContext context =
        flashadc::make_biasgen_context(cell.netlist, config.solver);
    const flashadc::BiasgenSolution nominal =
        flashadc::solve_biasgen(cell.netlist, &context);
    return std::make_pair(std::move(context), nominal);
  });
  const flashadc::BiasgenContext& context = golden.first;
  const flashadc::BiasgenSolution& nominal = golden.second;
  auto solve = [&](const Netlist& netlist) {
    return traced("spice.dc",
                  [&] { return flashadc::solve_biasgen(netlist, &context); });
  };

  macro::MeasurementLayout layout;
  layout.add("ivdd", macro::MeasurementKind::kIVdd);
  const spice::ProcessSpread spread;
  const auto envelope = traced_envelope(
      layout, config, 0xb1a5, config.band_policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const auto sol =
            solve(spice::perturb(cell.netlist, spread, env, {}, rng));
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.ivdd};
      },
      run.envelope_kept);

  evaluate_classes(
      cell.netlist, config, model_options(config, "vdda"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault&) {
        const auto sol = solve(faulty);
        if (!sol.converged)
          return nonconverged_outcome(&CurrentSignature::ivdd);
        FaultOutcome outcome;
        const double dev = std::max(std::fabs(sol.vbn - nominal.vbn),
                                    std::fabs(sol.vbc - nominal.vbc));
        if (dev > 0.15)
          outcome.voltage = VoltageSignature::kOutputStuckAt;
        else if (dev > 0.03)
          outcome.voltage = VoltageSignature::kMixed;
        else
          outcome.voltage = VoltageSignature::kNoDeviation;
        outcome.current = envelope.classify({sol.ivdd});
        outcome.detection = make_outcome(outcome.voltage, outcome.current);
        return outcome;
      },
      run.result);
  return run;
}

MacroRun clockgen_campaign(const CampaignConfig& config) {
  const macro::MacroCell cell = traced(
      "flashadc.cell_build", [] { return flashadc::build_clockgen_macro(); });
  MacroRun run = start_macro(cell, config, 4);
  const auto golden = traced("flashadc.golden", [&] {
    flashadc::ClockgenContext context =
        flashadc::make_clockgen_context(cell.netlist, config.solver);
    const flashadc::ClockgenSolution nominal =
        flashadc::solve_clockgen(cell.netlist, &context);
    return std::make_pair(std::move(context), nominal);
  });
  const flashadc::ClockgenContext& context = golden.first;
  const flashadc::ClockgenSolution& nominal = golden.second;
  auto solve = [&](const Netlist& netlist) {
    return traced("spice.dc",
                  [&] { return flashadc::solve_clockgen(netlist, &context); });
  };

  macro::MeasurementLayout layout;
  layout.add("iddq_low", macro::MeasurementKind::kIddq);
  layout.add("iddq_high", macro::MeasurementKind::kIddq);
  layout.add("iclk_low", macro::MeasurementKind::kIinput);
  layout.add("iclk_high", macro::MeasurementKind::kIinput);
  const spice::ProcessSpread spread;
  const auto envelope = traced_envelope(
      layout, config, 0xc10c, config.band_policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const auto sol =
            solve(spice::perturb(cell.netlist, spread, env, {"VDDD"}, rng));
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iddq_low, sol.iddq_high, sol.iclk_low,
                                   sol.iclk_high};
      },
      run.envelope_kept);

  evaluate_classes(
      cell.netlist, config, model_options(config, "vddd"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault&) {
        const auto sol = solve(faulty);
        if (!sol.converged)
          return nonconverged_outcome(&CurrentSignature::iddq);
        FaultOutcome outcome;
        const double half = flashadc::kVddd / 2;
        double worst = 0.0;
        bool logic_broken = false;
        for (int i = 0; i < 3; ++i) {
          const double lo = sol.out_low[i], hi = sol.out_high[i];
          const double nlo = nominal.out_low[i], nhi = nominal.out_high[i];
          worst = std::max({worst, std::fabs(lo - nlo), std::fabs(hi - nhi)});
          logic_broken = logic_broken || (lo > half) != (nlo > half) ||
                         (hi > half) != (nhi > half);
        }
        if (logic_broken)
          outcome.voltage = VoltageSignature::kOutputStuckAt;
        else if (worst > 0.05)
          outcome.voltage = VoltageSignature::kClockValue;
        else
          outcome.voltage = VoltageSignature::kNoDeviation;
        outcome.current = envelope.classify(
            {sol.iddq_low, sol.iddq_high, sol.iclk_low, sol.iclk_high});
        outcome.detection = make_outcome(outcome.voltage, outcome.current);
        return outcome;
      },
      run.result);
  return run;
}

MacroRun decoder_campaign(const CampaignConfig& config) {
  const macro::MacroCell cell = traced(
      "flashadc.cell_build", [] { return flashadc::build_decoder_macro(); });
  MacroRun run = start_macro(cell, config, 5);
  const flashadc::DecoderContext context = traced("flashadc.golden", [&] {
    return flashadc::make_decoder_context(cell.netlist, config.solver);
  });
  auto solve = [&](const Netlist& netlist) {
    return traced("spice.dc",
                  [&] { return flashadc::solve_decoder(netlist, &context); });
  };

  macro::MeasurementLayout layout;
  for (int v = 0; v <= flashadc::kDecoderSliceInputs; ++v)
    layout.add("iddq_v" + std::to_string(v), macro::MeasurementKind::kIddq);
  const spice::ProcessSpread spread;
  const auto envelope = traced_envelope(
      layout, config, 0xdec0de, config.band_policy,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const auto sol =
            solve(spice::perturb(cell.netlist, spread, env, {"VDDD"}, rng));
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iddq.begin(), sol.iddq.end()};
      },
      run.envelope_kept);

  evaluate_classes(
      cell.netlist, config, model_options(config, "vddd"),
      [&](const Netlist& faulty, const dot::fault::CircuitFault&) {
        const auto sol = solve(faulty);
        if (!sol.converged)
          return nonconverged_outcome(&CurrentSignature::iddq);
        FaultOutcome outcome;
        bool wrong = false;
        for (int v = 0; v <= flashadc::kDecoderSliceInputs && !wrong; ++v)
          for (int r = 0; r < 4 && !wrong; ++r)
            wrong = (sol.rows[static_cast<std::size_t>(v)]
                             [static_cast<std::size_t>(r)] >
                     flashadc::kVddd / 2) !=
                    flashadc::decoder_row_expected(v, r);
        outcome.voltage = wrong ? VoltageSignature::kOutputStuckAt
                                : VoltageSignature::kNoDeviation;
        outcome.current = envelope.classify({sol.iddq.begin(), sol.iddq.end()});
        outcome.detection = make_outcome(outcome.voltage, outcome.current);
        return outcome;
      },
      run.result);
  return run;
}

struct MacroRunner {
  const char* span;
  MacroRun (*run)(const CampaignConfig&);
};

}  // namespace

TracedCampaign traced_campaign(const CampaignConfig& config) {
  // run_full_campaign's order: the five macros fan out across the pool.
  static constexpr MacroRunner kAll[] = {
      {"flashadc.comparator", comparator_campaign},
      {"flashadc.ladder", ladder_campaign},
      {"flashadc.biasgen", biasgen_campaign},
      {"flashadc.clockgen", clockgen_campaign},
      {"flashadc.decoder", decoder_campaign}};
  static constexpr MacroRunner kComparator[] = {
      {"flashadc.comparator", comparator_campaign}};
  static constexpr MacroRunner kBank[] = {{"flashadc.bank", bank_campaign}};
  std::vector<MacroRunner> runners;
  if (config.macro_selection == "all")
    runners.assign(std::begin(kAll), std::end(kAll));
  else if (config.macro_selection == "comparator")
    runners.assign(std::begin(kComparator), std::end(kComparator));
  else if (config.macro_selection == "bank")
    runners.assign(std::begin(kBank), std::end(kBank));
  else
    throw util::InvalidInputError("traced_campaign: unsupported macro " +
                                  config.macro_selection);

  TracedCampaign out;
  Span root("campaign");
  out.root_span = root.id();
  auto run_one = [&](std::size_t m) {
    Span span(runners[m].span);
    return runners[m].run(config);
  };
  std::vector<MacroRun> runs;
  if (runners.size() == 1) {
    runs.push_back(run_one(0));
  } else {
    runs = util::parallel_map(runners.size(), [&](std::size_t m) {
      ParentScope scope(out.root_span);
      return run_one(m);
    });
  }
  std::vector<MacroCampaignResult> macros;
  for (MacroRun& run : runs) {
    out.envelope_attempted +=
        static_cast<std::size_t>(std::max(0, config.envelope_samples));
    out.envelope_kept += run.envelope_kept;
    macros.push_back(std::move(run.result));
  }
  out.global = traced("macro.compile", [&] {
    return flashadc::compile_global(std::move(macros));
  });
  return out;
}

}  // namespace perfbench
