// Property-based tests of the defect simulator: extracted faults must
// always be well-formed (existing nets/devices, sorted multi-net shorts,
// non-empty open partitions), campaigns must be deterministic per seed,
// and the fault model must apply cleanly to every extracted class.
#include <gtest/gtest.h>

#include <algorithm>

#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "layout/synth.hpp"
#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace dot::defect {
namespace {

spice::Netlist sample_circuit() {
  spice::Netlist n;
  spice::MosModel m;
  n.add_mosfet("MN1", spice::MosType::kNmos, "out", "in", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP1", spice::MosType::kPmos, "out", "in", "vdd", "vdd",
               8e-6, 1e-6, m);
  n.add_mosfet("MN2", spice::MosType::kNmos, "out2", "out", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP2", spice::MosType::kPmos, "out2", "out", "vdd", "vdd",
               8e-6, 1e-6, m);
  n.add_resistor("R1", "out2", "fb", 5e3);
  n.add_capacitor("C1", "fb", "0", 1e-12);
  return n;
}

class DefectPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DefectPropertyTest, ExtractedFaultsAreWellFormed) {
  const auto netlist = sample_circuit();
  layout::SynthOptions synth;
  synth.pins = {"in", "out2", "vdd", "0"};
  const auto cell = layout::synthesize_layout(netlist, "cell", synth);
  const DefectAnalyzer analyzer(cell, {.vdd_net = "vdd"});
  const DefectSampler sampler(DefectStatistics{}, cell.bounding_box());
  DefectAnalyzer::Scratch scratch;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846ull);
  const auto nets = cell.nets();

  for (int i = 0; i < 20000; ++i) {
    const Defect defect = sampler.draw(rng);
    const auto fault = analyzer.analyze(defect, scratch);
    if (!fault) continue;
    // Net references must exist in the layout; shorts are sorted and
    // duplicate free.
    for (const auto& net : fault->nets)
      EXPECT_NE(std::find(nets.begin(), nets.end(), net), nets.end())
          << net;
    EXPECT_TRUE(std::is_sorted(fault->nets.begin(), fault->nets.end()));
    EXPECT_EQ(std::adjacent_find(fault->nets.begin(), fault->nets.end()),
              fault->nets.end());
    switch (fault->kind) {
      case fault::FaultKind::kShort:
      case fault::FaultKind::kExtraContact:
      case fault::FaultKind::kThickOxidePinhole:
        EXPECT_GE(fault->nets.size(), 2u);
        break;
      case fault::FaultKind::kJunctionPinhole:
        EXPECT_EQ(fault->nets.size(), 1u);
        break;
      case fault::FaultKind::kOpen:
        EXPECT_EQ(fault->nets.size(), 1u);
        EXPECT_FALSE(fault->isolated_taps.empty());
        break;
      case fault::FaultKind::kGateOxidePinhole:
      case fault::FaultKind::kShortedDevice:
        EXPECT_NE(netlist.find_device(fault->device), nullptr);
        break;
      case fault::FaultKind::kNewDevice:
        EXPECT_EQ(fault->nets.size(), 2u);
        EXPECT_FALSE(fault->gate_net.empty());
        break;
    }
  }
}

TEST_P(DefectPropertyTest, EveryClassAppliesToTheNetlist) {
  const auto netlist = sample_circuit();
  layout::SynthOptions synth;
  synth.pins = {"in", "out2", "vdd", "0"};
  const auto cell = layout::synthesize_layout(netlist, "cell", synth);
  CampaignOptions opt;
  opt.defect_count = 30000;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  opt.vdd_net = "vdd";
  const auto result = run_campaign(cell, opt);

  fault::FaultModelOptions models;
  models.vdd_net = "vdd";
  for (const auto& cls : result.classes) {
    for (int v = 0; v < fault::model_variant_count(cls.representative);
         ++v) {
      // Must not throw, must not mutate the good netlist, and must
      // change SOMETHING (devices added or terminals moved).
      const std::size_t before = netlist.devices().size();
      const auto faulty =
          fault::apply_fault(netlist, cls.representative, models, v);
      EXPECT_EQ(netlist.devices().size(), before);
      const bool grew = faulty.devices().size() > before;
      const bool renoded = faulty.node_count() > netlist.node_count();
      bool moved = false;
      for (std::size_t d = 0; d < before && !moved; ++d)
        moved = spice::Netlist::terminal_nodes(faulty.devices()[d]) !=
                spice::Netlist::terminal_nodes(netlist.devices()[d]);
      EXPECT_TRUE(grew || renoded || moved);
    }
  }
}

TEST_P(DefectPropertyTest, CampaignDeterministicAndConsistent) {
  const auto netlist = sample_circuit();
  const auto cell =
      layout::synthesize_layout(netlist, "cell", layout::SynthOptions{});
  CampaignOptions opt;
  opt.defect_count = 25000;
  opt.seed = static_cast<std::uint64_t>(GetParam()) + 1000;
  const auto a = run_campaign(cell, opt);
  const auto b = run_campaign(cell, opt);
  EXPECT_EQ(a.faults_extracted, b.faults_extracted);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].count, b.classes[i].count);
    EXPECT_EQ(a.classes[i].representative.key(),
              b.classes[i].representative.key());
  }
  // Class counts sum to the fault count, and classes are sorted.
  EXPECT_EQ(fault::total_fault_count(a.classes), a.faults_extracted);
  for (std::size_t i = 1; i < a.classes.size(); ++i)
    EXPECT_GE(a.classes[i - 1].count, a.classes[i].count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefectPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace dot::defect
