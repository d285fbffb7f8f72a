#include "defect/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "layout/extract.hpp"
#include "util/error.hpp"

namespace dot::defect {

using fault::BridgeMaterial;
using fault::CircuitFault;
using fault::FaultKind;
using layout::CellLayout;
using layout::Layer;
using layout::Point;
using layout::Rect;
using layout::Shape;

namespace {

BridgeMaterial material_of(Layer layer) {
  switch (layer) {
    case Layer::kMetal1:
    case Layer::kMetal2:
      return BridgeMaterial::kMetal;
    case Layer::kPoly:
      return BridgeMaterial::kPoly;
    case Layer::kActive:
      return BridgeMaterial::kDiffusion;
    default:
      return BridgeMaterial::kNone;
  }
}

/// Axis-aligned subtraction: r minus cut, as up to four rectangles. The
/// top/bottom strips are widened by a hair so that an L-shaped remnant
/// stays connected under the open-interval intersection test.
std::vector<Rect> subtract(const Rect& r, const Rect& cut) {
  if (!r.intersects(cut)) return {r};
  std::vector<Rect> out;
  constexpr double kEps = 0.01;
  if (cut.x_lo > r.x_lo)
    out.push_back(Rect{r.x_lo, r.y_lo, cut.x_lo, r.y_hi});
  if (cut.x_hi < r.x_hi)
    out.push_back(Rect{cut.x_hi, r.y_lo, r.x_hi, r.y_hi});
  const double strip_lo = std::max(r.x_lo, cut.x_lo - kEps);
  const double strip_hi = std::min(r.x_hi, cut.x_hi + kEps);
  if (cut.y_lo > r.y_lo && strip_hi > strip_lo)
    out.push_back(Rect{strip_lo, r.y_lo, strip_hi, cut.y_lo});
  if (cut.y_hi < r.y_hi && strip_hi > strip_lo)
    out.push_back(Rect{strip_lo, cut.y_hi, strip_hi, r.y_hi});
  std::erase_if(out, [](const Rect& p) { return p.empty(); });
  return out;
}

void add_unique(std::vector<int>& ids, int id) {
  if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
}

bool cut_connects(Layer cut, Layer conductor) {
  if (cut == Layer::kContact)
    return conductor == Layer::kMetal1 || conductor == Layer::kPoly ||
           conductor == Layer::kActive;
  if (cut == Layer::kVia1)
    return conductor == Layer::kMetal1 || conductor == Layer::kMetal2;
  return false;
}

}  // namespace

DefectAnalyzer::DefectAnalyzer(const CellLayout& cell,
                               AnalyzerOptions options)
    : cell_(cell), options_(std::move(options)) {
  bbox_ = cell.bounding_box().expanded(1.0);
  bins_x_ = std::max(1, static_cast<int>(bbox_.width() / options_.bin_size));
  bins_y_ = std::max(1, static_cast<int>(bbox_.height() / options_.bin_size));
  grid_.assign(layout::kLayerCount, {});
  for (auto& layer : grid_)
    layer.begin.assign(static_cast<std::size_t>(bins_x_ * bins_y_) + 1, 0);

  // Two passes over the shapes: count each bin's entries, then place
  // them in shape order (the order shapes_hit reports hits in).
  const auto& shapes = cell.shapes();
  auto for_each_bin = [&](std::size_t i, auto&& visit) {
    const BinSpan span = bin_span(shapes[i].rect);
    const auto layer = static_cast<std::size_t>(shapes[i].layer);
    for (int by = span.y0; by <= span.y1; ++by)
      for (int bx = span.x0; bx <= span.x1; ++bx)
        visit(layer, static_cast<std::size_t>(by * bins_x_ + bx));
  };
  for (std::size_t i = 0; i < shapes.size(); ++i)
    for_each_bin(i, [&](std::size_t layer, std::size_t bin) {
      ++grid_[layer].begin[bin + 1];
    });
  std::vector<std::vector<std::size_t>> cursor;
  for (auto& layer : grid_) {
    std::partial_sum(layer.begin.begin(), layer.begin.end(),
                     layer.begin.begin());
    layer.entries.resize(layer.begin.back());
    cursor.push_back(layer.begin);
  }
  for (std::size_t i = 0; i < shapes.size(); ++i)
    for_each_bin(i, [&](std::size_t layer, std::size_t bin) {
      grid_[layer].entries[cursor[layer][bin]++] = {shapes[i].rect, i};
    });

  // Net ids; only named shapes take part in open analysis.
  std::map<std::string, int> net_of;
  auto net_slot = [&](const std::string& net) {
    auto [it, inserted] =
        net_of.emplace(net, static_cast<int>(net_names_.size()));
    if (inserted) {
      net_names_.push_back(net);
      net_shapes_.emplace_back();
      net_taps_.emplace_back();
    }
    return it->second;
  };
  shape_net_.reserve(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    shape_net_.push_back(net_slot(shapes[i].net));
    if (!shapes[i].net.empty())
      net_shapes_[static_cast<std::size_t>(shape_net_.back())].push_back(i);
  }
  for (std::size_t t = 0; t < cell.taps().size(); ++t)
    net_taps_[static_cast<std::size_t>(net_slot(cell.taps()[t].net))]
        .push_back(t);
}

DefectAnalyzer::BinSpan DefectAnalyzer::bin_span(const Rect& r) const {
  auto bin = [](double offset, double extent, int bins) {
    return std::clamp(static_cast<int>(offset / extent * bins), 0, bins - 1);
  };
  return {bin(r.x_lo - bbox_.x_lo, bbox_.width(), bins_x_),
          bin(r.x_hi - bbox_.x_lo, bbox_.width(), bins_x_),
          bin(r.y_lo - bbox_.y_lo, bbox_.height(), bins_y_),
          bin(r.y_hi - bbox_.y_lo, bbox_.height(), bins_y_)};
}

void DefectAnalyzer::shapes_hit(Layer layer, const Rect& probe,
                                std::vector<std::size_t>& out) const {
  out.clear();
  const BinSpan span = bin_span(probe);
  const LayerGrid& grid = grid_[static_cast<std::size_t>(layer)];
  for (int by = span.y0; by <= span.y1; ++by) {
    for (int bx = span.x0; bx <= span.x1; ++bx) {
      const auto bin = static_cast<std::size_t>(by * bins_x_ + bx);
      for (std::size_t e = grid.begin[bin]; e < grid.begin[bin + 1]; ++e) {
        const BinEntry& entry = grid.entries[e];
        if (entry.rect.intersects(probe) &&
            std::find(out.begin(), out.end(), entry.shape) == out.end())
          out.push_back(entry.shape);
      }
    }
  }
}

void DefectAnalyzer::add_nets(const std::vector<std::size_t>& shapes,
                              std::vector<int>& nets) const {
  for (std::size_t i : shapes) add_unique(nets, shape_net_[i]);
}

std::vector<std::string> DefectAnalyzer::sorted_net_names(
    const std::vector<int>& nets) const {
  std::vector<std::string> names;
  names.reserve(nets.size());
  for (int net : nets)
    names.push_back(net_names_[static_cast<std::size_t>(net)]);
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<CircuitFault> DefectAnalyzer::analyze(
    const Defect& defect) const {
  Scratch scratch;
  return analyze(defect, scratch);
}

std::optional<CircuitFault> DefectAnalyzer::analyze(const Defect& defect,
                                                    Scratch& scratch) const {
  switch (defect.type) {
    case DefectType::kExtraMetal1:
      return analyze_extra_material(defect, Layer::kMetal1, scratch);
    case DefectType::kExtraMetal2:
      return analyze_extra_material(defect, Layer::kMetal2, scratch);
    case DefectType::kExtraPoly:
      return analyze_extra_material(defect, Layer::kPoly, scratch);
    case DefectType::kExtraActive:
      return analyze_extra_material(defect, Layer::kActive, scratch);
    case DefectType::kMissingMetal1:
      return analyze_missing_material(defect, Layer::kMetal1, scratch);
    case DefectType::kMissingMetal2:
      return analyze_missing_material(defect, Layer::kMetal2, scratch);
    case DefectType::kMissingPoly:
      return analyze_missing_material(defect, Layer::kPoly, scratch);
    case DefectType::kMissingActive:
      return analyze_missing_material(defect, Layer::kActive, scratch);
    case DefectType::kExtraContact:
      return analyze_extra_cut(defect, Layer::kContact, scratch);
    case DefectType::kExtraVia:
      return analyze_extra_cut(defect, Layer::kVia1, scratch);
    case DefectType::kMissingContact:
      return analyze_missing_cut(defect, Layer::kContact, scratch);
    case DefectType::kMissingVia:
      return analyze_missing_cut(defect, Layer::kVia1, scratch);
    case DefectType::kGateOxidePinhole:
      return analyze_gate_oxide(defect);
    case DefectType::kThickOxidePinhole:
      return analyze_thick_oxide(defect, scratch);
    case DefectType::kJunctionPinhole:
      return analyze_junction(defect, scratch);
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_extra_material(
    const Defect& defect, Layer layer, Scratch& scratch) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  shapes_hit(layer, foot, scratch.hits[0]);
  scratch.nets.clear();
  add_nets(scratch.hits[0], scratch.nets);
  if (scratch.nets.size() < 2) return std::nullopt;
  std::vector<std::string> nets = sorted_net_names(scratch.nets);

  if (layer == Layer::kActive) {
    // Extra diffusion under existing poly makes a parasitic transistor
    // instead of a hard short (VLASIC "new device"); bridging the source
    // and drain of one transistor next to its own gate is a "shorted
    // device".
    auto& poly_hits = scratch.hits[1];
    shapes_hit(Layer::kPoly, foot, poly_hits);
    if (!poly_hits.empty()) {
      for (const auto& region : cell_.mos_regions()) {
        if (!region.channel.intersects(foot)) continue;
        const bool bridges_own_sd =
            std::find(nets.begin(), nets.end(), region.source_net) !=
                nets.end() &&
            std::find(nets.begin(), nets.end(), region.drain_net) !=
                nets.end();
        if (bridges_own_sd) {
          CircuitFault f;
          f.kind = FaultKind::kShortedDevice;
          f.device = region.device;
          return f;
        }
      }
      CircuitFault f;
      f.kind = FaultKind::kNewDevice;
      f.nets = {nets[0], nets[1]};
      f.gate_net = cell_.shapes()[poly_hits.front()].net;
      f.to_vdd = cell_.inside_nwell(defect.center);
      return f;
    }
  }

  CircuitFault f;
  f.kind = FaultKind::kShort;
  f.nets = std::move(nets);
  f.material = material_of(layer);
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::open_fault_for(
    int net, const std::vector<std::size_t>& removed,
    const Rect& footprint) const {
  const auto ni = static_cast<std::size_t>(net);
  const auto& shapes = cell_.shapes();

  // Build remnant geometry for this net: unaffected shapes stay whole,
  // affected conducting shapes shrink to their remnants, removed cuts
  // vanish entirely.
  struct Piece {
    Rect rect;
    Layer layer;
  };
  std::vector<Piece> pieces;
  for (std::size_t i : net_shapes_[ni]) {
    const Shape& s = shapes[i];
    const bool is_removed =
        std::find(removed.begin(), removed.end(), i) != removed.end();
    if (!is_removed) {
      pieces.push_back({s.rect, s.layer});
      continue;
    }
    if (layout::is_cut(s.layer)) continue;  // cut destroyed entirely
    for (const Rect& remnant : subtract(s.rect, footprint))
      pieces.push_back({remnant, s.layer});
  }

  // Union-find over pieces with the electrical connection rules.
  layout::UnionFind uf(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      if (!pieces[i].rect.intersects(pieces[j].rect)) continue;
      const bool same_layer = pieces[i].layer == pieces[j].layer &&
                              layout::is_conducting(pieces[i].layer);
      const bool via_pair =
          (layout::is_cut(pieces[i].layer) &&
           cut_connects(pieces[i].layer, pieces[j].layer)) ||
          (layout::is_cut(pieces[j].layer) &&
           cut_connects(pieces[j].layer, pieces[i].layer));
      if (same_layer || via_pair) uf.unite(i, j);
    }
  }

  // Group taps by the component of a piece containing them.
  const auto& taps = cell_.taps();
  std::map<long, std::vector<std::size_t>> groups;
  for (std::size_t t : net_taps_[ni]) {
    long key = -1 - static_cast<long>(t);
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      if (pieces[p].layer != taps[t].layer) continue;
      if (pieces[p].rect.contains(taps[t].at)) {
        key = static_cast<long>(uf.find(p));
        break;
      }
    }
    groups[key].push_back(t);
  }
  if (groups.size() < 2) return std::nullopt;

  // The side keeping the original node is the group holding the first
  // pin tap; without pins, the largest group.
  long keep_key = groups.begin()->first;
  bool keep_found = false;
  for (const auto& [key, tap_list] : groups) {
    for (std::size_t t : tap_list) {
      if (taps[t].device == "pin") {
        keep_key = key;
        keep_found = true;
        break;
      }
    }
    if (keep_found) break;
  }
  if (!keep_found) {
    std::size_t best = 0;
    for (const auto& [key, tap_list] : groups) {
      if (tap_list.size() > best) {
        best = tap_list.size();
        keep_key = key;
      }
    }
  }

  CircuitFault f;
  f.kind = FaultKind::kOpen;
  f.nets = {net_names_[ni]};
  for (const auto& [key, tap_list] : groups) {
    if (key == keep_key) continue;
    for (std::size_t t : tap_list)
      f.isolated_taps.push_back({taps[t].device, taps[t].terminal});
  }
  if (f.isolated_taps.empty()) return std::nullopt;
  // Canonical order for collapsing.
  std::sort(f.isolated_taps.begin(), f.isolated_taps.end(),
            [](const fault::TapRef& a, const fault::TapRef& b) {
              return std::tie(a.device, a.terminal) <
                     std::tie(b.device, b.terminal);
            });
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_missing_material(
    const Defect& defect, Layer layer, Scratch& scratch) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  auto& hits = scratch.hits[0];
  shapes_hit(layer, foot, hits);
  if (hits.empty()) return std::nullopt;

  // Collect affected nets; try each for a split, report the first.
  scratch.nets.clear();
  add_nets(hits, scratch.nets);
  auto& removed = scratch.hits[1];
  for (int net : scratch.nets) {
    removed.clear();
    for (std::size_t i : hits)
      if (shape_net_[i] == net) removed.push_back(i);
    if (auto f = open_fault_for(net, removed, foot)) return f;
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_missing_cut(
    const Defect& defect, Layer layer, Scratch& scratch) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  shapes_hit(layer, foot, scratch.hits[0]);
  // A cut is destroyed when the defect blankets its centre.
  auto& removed = scratch.hits[1];
  removed.clear();
  for (std::size_t i : scratch.hits[0])
    if (foot.contains(cell_.shapes()[i].rect.center())) removed.push_back(i);
  scratch.nets.clear();
  add_nets(removed, scratch.nets);
  auto& net_removed = scratch.hits[2];
  for (int net : scratch.nets) {
    net_removed.clear();
    for (std::size_t i : removed)
      if (shape_net_[i] == net) net_removed.push_back(i);
    if (auto f = open_fault_for(net, net_removed, foot)) return f;
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_extra_cut(
    const Defect& defect, Layer cut_layer, Scratch& scratch) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  auto& upper_hits = scratch.hits[0];
  shapes_hit(Layer::kMetal1, foot, upper_hits);
  if (upper_hits.empty()) return std::nullopt;

  // Shapes hit on each lower layer (poly and active under a contact,
  // metal2 under a via).
  std::size_t lower_count = 0;
  if (cut_layer == Layer::kContact) {
    shapes_hit(Layer::kPoly, foot, scratch.hits[1]);
    shapes_hit(Layer::kActive, foot, scratch.hits[2]);
    lower_count = 2;
  } else {
    shapes_hit(Layer::kMetal2, foot, scratch.hits[1]);
    lower_count = 1;
  }

  scratch.nets.clear();
  for (std::size_t ui : upper_hits) {
    const Shape& u = cell_.shapes()[ui];
    for (std::size_t lower = 1; lower <= lower_count; ++lower) {
      for (std::size_t li : scratch.hits[lower]) {
        if (shape_net_[li] == shape_net_[ui]) continue;
        // The spurious cut must land where the two layers overlap.
        const Rect overlap =
            u.rect.intersection(cell_.shapes()[li].rect).intersection(foot);
        if (overlap.empty()) continue;
        add_unique(scratch.nets, shape_net_[ui]);
        add_unique(scratch.nets, shape_net_[li]);
      }
    }
  }
  if (scratch.nets.size() < 2) return std::nullopt;
  CircuitFault f;
  f.kind = FaultKind::kExtraContact;
  f.nets = sorted_net_names(scratch.nets);
  f.material = BridgeMaterial::kContact;
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_gate_oxide(
    const Defect& defect) const {
  const auto* region = cell_.mos_region_at(defect.center);
  if (region == nullptr) return std::nullopt;
  CircuitFault f;
  f.kind = FaultKind::kGateOxidePinhole;
  f.device = region->device;
  f.material = BridgeMaterial::kOxide;
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_thick_oxide(
    const Defect& defect, Scratch& scratch) const {
  // A pinhole is a point-like vertical leak: metal1 over poly/active, or
  // metal2 over metal1, at the defect location.
  const Rect probe = Rect::square(defect.center, 0.05);
  struct Pair {
    Layer upper, lower;
  };
  static constexpr Pair kPairs[] = {
      {Layer::kMetal1, Layer::kPoly},
      {Layer::kMetal1, Layer::kActive},
      {Layer::kMetal2, Layer::kMetal1},
  };
  auto& uppers = scratch.hits[0];
  auto& lowers = scratch.hits[1];
  for (const auto& pair : kPairs) {
    shapes_hit(pair.upper, probe, uppers);
    if (uppers.empty()) continue;
    shapes_hit(pair.lower, probe, lowers);
    for (std::size_t ui : uppers) {
      for (std::size_t li : lowers) {
        const Shape& u = cell_.shapes()[ui];
        const Shape& l = cell_.shapes()[li];
        if (u.net == l.net) continue;
        CircuitFault f;
        f.kind = FaultKind::kThickOxidePinhole;
        f.nets = {std::min(u.net, l.net), std::max(u.net, l.net)};
        f.material = BridgeMaterial::kOxide;
        return f;
      }
    }
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_junction(
    const Defect& defect, Scratch& scratch) const {
  const Rect probe = Rect::square(defect.center, 0.05);
  auto& hits = scratch.hits[0];
  shapes_hit(Layer::kActive, probe, hits);
  if (hits.empty()) return std::nullopt;
  const std::string& net = cell_.shapes()[hits.front()].net;
  const bool to_vdd = cell_.inside_nwell(defect.center);
  // Leaking a rail into its own bulk is not a fault.
  if (!to_vdd && (net == "0" || net == "gnd")) return std::nullopt;
  if (to_vdd && net == options_.vdd_net) return std::nullopt;
  CircuitFault f;
  f.kind = FaultKind::kJunctionPinhole;
  f.nets = {net};
  f.to_vdd = to_vdd;
  f.material = BridgeMaterial::kOxide;
  return f;
}

}  // namespace dot::defect
