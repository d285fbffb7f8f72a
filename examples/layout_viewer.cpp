// Renders the case-study macro layouts as SVG, with the first few
// fault-causing defects overlaid -- the visual-inspection view of the
// defect simulator.
//
// Usage: layout_viewer [output_dir]     (default: current directory)
#include <cstdio>
#include <string>

#include "defect/analyze.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/decoder.hpp"
#include "layout/export_svg.hpp"
#include "util/rng.hpp"

using namespace dot;

namespace {

void render(const layout::CellLayout& cell, const std::string& path,
            int defect_overlays) {
  layout::SvgOptions options;
  options.draw_net_labels = true;

  // Overlay the first few defects that actually cause faults.
  defect::DefectAnalyzer analyzer(cell, {});
  const defect::DefectSampler sampler(defect::DefectStatistics{},
                                      cell.bounding_box());
  defect::DefectAnalyzer::Scratch scratch;
  util::Rng rng(1995);
  int found = 0;
  for (int i = 0; i < 200000 && found < defect_overlays; ++i) {
    const auto defect = sampler.draw(rng);
    const auto fault = analyzer.analyze(defect, scratch);
    if (!fault) continue;
    ++found;
    layout::SvgMarker marker;
    marker.rect = layout::Rect::square(defect.center, defect.size);
    marker.color = "#e00000";
    marker.label = fault::fault_kind_name(fault->kind);
    options.markers.push_back(marker);
  }
  layout::write_svg(cell, path, options);
  std::printf("wrote %-28s (%zu shapes, %d defect overlays)\n", path.c_str(),
              cell.shapes().size(), found);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  render(flashadc::build_comparator_layout(), dir + "/comparator.svg", 8);
  flashadc::ComparatorDft dft;
  dft.separated_bias_lines = true;
  render(flashadc::build_comparator_layout(dft),
         dir + "/comparator_dft.svg", 0);
  render(flashadc::build_biasgen_layout(), dir + "/biasgen.svg", 4);
  render(flashadc::build_clockgen_layout(), dir + "/clockgen.svg", 6);
  render(flashadc::build_decoder_layout(), dir + "/decoder.svg", 6);
  std::printf("\nopen the SVGs in a browser; compare comparator.svg and\n"
              "comparator_dft.svg to see the separated bias-line routing.\n");
  return 0;
}
