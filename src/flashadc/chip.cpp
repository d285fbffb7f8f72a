#include "flashadc/chip.hpp"

#include <algorithm>

#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "layout/synth.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::flashadc {

using spice::Netlist;
using spice::PulseParams;
using spice::SourceSpec;

namespace {

void check_options(const ChipOptions& options) {
  if (options.slices < kDecoderSliceInputs || options.slices > kLevels ||
      kLevels % options.slices != 0 ||
      options.slices % kDecoderSliceInputs != 0)
    throw util::InvalidInputError(
        "chip: slices must lie in " + std::to_string(kDecoderSliceInputs) +
        ".." + std::to_string(kLevels) + ", divide " +
        std::to_string(kLevels) + " and be a multiple of " +
        std::to_string(kDecoderSliceInputs) + ", got " +
        std::to_string(options.slices));
}

std::string dec_prefix(int j) { return "dec" + std::to_string(j) + "_"; }

}  // namespace

BankOptions chip_bank_options(const ChipOptions& options) {
  BankOptions bank;
  bank.size = options.slices;
  bank.dft = options.dft;
  return bank;
}

int chip_decoder_slices(const ChipOptions& options) {
  check_options(options);
  return options.slices / kDecoderSliceInputs;
}

Netlist build_chip_netlist(const ChipOptions& options) {
  check_options(options);
  // Backbone: the comparator column with its tap string and input
  // trunk, verbatim (same names, so every bank-proven fault model and
  // the slice mapper apply unchanged).
  Netlist n = build_bank_netlist(chip_bank_options(options));

  // Bias generator, actually driving the vbn/vbc trunks it was always
  // meant to drive (the bank bench replaces it with Thevenin sources).
  n.append_renamed(build_biasgen_netlist(), "BG_",
                   [](const std::string& net) -> std::string {
                     if (net == "vbn" || net == "vbc" || net == "vdda" ||
                         net == "0")
                       return net;
                     return "bg_" + net;
                   });

  // Clock generator on the chip clock. Its phase outputs land on
  // dedicated loaded nets ckg_clk1..3 (NOT the distribution trunks;
  // see the header comment): the load caps stand in for the column's
  // worth of switch gates, so the output buffers switch realistic
  // charge every cycle and the whole IDDQ-rich defect surface is live.
  n.append_renamed(build_clockgen_netlist(), "CKG_",
                   [](const std::string& net) -> std::string {
                     if (net == "clk" || net == "vddd" || net == "0")
                       return net;
                     return "ckg_" + net;
                   });
  for (int k = 1; k <= 3; ++k)
    n.add_capacitor("CCKG" + std::to_string(k),
                    "ckg_clk" + std::to_string(k), "0", 5e-12);

  // Thermometer decoder: one 4-input slice per four comparators, its
  // t inputs wired straight to the comparators' q outputs (the
  // cross-macro column lines the decomposition models as ideal pins).
  const Netlist decoder = build_decoder_netlist();
  for (int j = 0; j < chip_decoder_slices(options); ++j) {
    const std::string prefix = dec_prefix(j);
    auto map_net = [&](const std::string& net) -> std::string {
      for (int i = 1; i <= kDecoderSliceInputs; ++i)
        if (net == "t" + std::to_string(i))
          return bank_slice_net_prefix(kDecoderSliceInputs * j + i - 1) + "q";
      if (net == "vddd" || net == "0") return net;
      return prefix + net;  // r0..r3 -> dec<j>_r0..3, internals alike
    };
    n.append_renamed(decoder, "DEC" + std::to_string(j) + "_", map_net);
  }
  return n;
}

std::vector<std::string> chip_pins(const ChipOptions& options) {
  check_options(options);
  std::vector<std::string> pins = {"vin",  "vrefp", "vrefm", "clk",
                                   "clk1", "clk2",  "clk3",  "vbn",
                                   "vbc",  "vdda",  "vddd",  "0"};
  for (int j = 0; j < chip_decoder_slices(options); ++j)
    for (int r = 0; r < 4; ++r)
      pins.push_back(dec_prefix(j) + "r" + std::to_string(r));
  return pins;
}

layout::CellLayout build_chip_layout(const ChipOptions& options) {
  check_options(options);
  layout::SynthOptions opt;
  opt.vdd_net = "vdda";
  opt.pins = chip_pins(options);
  // Same trunk adjacency story as the bank (the DfT bias-separation
  // knob keeps working at chip scale); support-macro nets follow in
  // first-use order behind the column's tap/input interleave.
  if (options.dft.separated_bias_lines) {
    opt.track_order = {"vbn", "clk1", "clk2", "vbc", "clk3", "vin"};
  } else {
    opt.track_order = {"vbn", "vbc", "clk1", "clk2", "clk3", "vin"};
  }
  for (int k = 0; k < options.slices; ++k) {
    opt.track_order.push_back(bank_tap_net(k));
    opt.track_order.push_back(bank_input_net(k));
  }
  return layout::synthesize_layout(build_chip_netlist(options), "chip", opt);
}

macro::MacroCell build_chip_macro(const ChipOptions& options) {
  check_options(options);
  return macro::MacroCell("chip", build_chip_netlist(options),
                          build_chip_layout(options), chip_pins(options), 1);
}

// ---------------------------------------------------------------------
// Decomposition mapping.

macro::SliceMapper chip_slice_mapper(const ChipOptions& options) {
  // The bank mapper already returns nullopt for every name outside the
  // comparator column's namespace -- dec<j>_*, ckg_*, bg_*, vddd, clk,
  // DEC/CKG/BG devices all fail its s/ref/in/S/RREF/RIN parses -- so
  // it IS the chip mapper: column hardware projects, support-macro
  // hardware stays unmappable.
  return bank_slice_mapper(chip_bank_options(options));
}

int chip_observed_slice(const ChipOptions& options,
                        const fault::CircuitFault& fault) {
  const auto projected =
      macro::project_fault(fault, chip_slice_mapper(options));
  if (projected.slice >= 0) return projected.slice;
  return options.slices / 2;
}

// ---------------------------------------------------------------------
// Chip fault simulation.

Netlist instantiate_chip_bench(const Netlist& macro_netlist,
                               const ChipOptions& options, int slice,
                               double delta_v) {
  check_options(options);
  if (slice < 0 || slice >= options.slices)
    throw util::InvalidInputError("chip bench: slice out of range");
  const BankOptions bank = chip_bank_options(options);
  Netlist n = macro_netlist;
  add_column_sources(n, bank, slice, delta_v);

  // NO bias Thevenins: the on-chip generator owns vbn/vbc now.

  // Chip clock into the clock generator: one full-swing pulse per
  // cycle spanning the sample window, behind a short interconnect.
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = kVddd;
  p.delay = kSampleStart;
  p.rise = kClockEdge;
  p.fall = kClockEdge;
  p.width = (kSampleEnd - kSampleStart) - kClockEdge;
  p.period = kCyclePeriod;
  n.add_vsource("VCLK", "clkin", "0", SourceSpec::pulse(p));
  n.add_resistor("RCLKIN", "clkin", "clk", 100.0);

  // Phase trunk drivers, exactly the bank bench's (the generator's
  // ns-scale delay chain cannot make the 40/25/20 ns windows; its
  // outputs switch their own loads on ckg_clk1..3 instead).
  add_column_clock_buffers(n, bank);
  return n;
}

ComparatorRun run_chip_bench(const Netlist& full_bench,
                             const ChipOptions& options, int slice) {
  check_options(options);
  // Same two-cycle window and zero-state start as the bank (the chip DC
  // has the same floating-node problem).
  spice::TranOptions tran = bank_tran_options();
  tran.solver = options.solver;
  // The bias generator sits behind VDDA here, so the analog supply
  // alone is the whole-chip analog current (the bank bench adds its
  // external bias Thevenins in).
  return extract_column_run(spice::transient(full_bench, tran),
                            chip_bank_options(options), slice, {"VDDA"});
}

}  // namespace dot::flashadc
