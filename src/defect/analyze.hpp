// Defect-to-fault analysis: decides whether one sprinkled spot defect
// causes a circuit-level fault, and extracts that fault. This is the
// core of the VLASIC-equivalent catastrophic defect simulator.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "defect/statistics.hpp"
#include "fault/fault.hpp"
#include "layout/cell.hpp"

namespace dot::defect {

struct AnalyzerOptions {
  std::string vdd_net = "vdd";
  /// Grid bin size for the spatial index (um).
  double bin_size = 5.0;
};

/// Precomputes spatial and per-net indexes over one cell layout, then
/// answers defect queries. The analyzer borrows the cell; keep the cell
/// alive while using it.
class DefectAnalyzer {
 public:
  /// Per-query buffers, owned by the caller and reused across queries
  /// so a harmless defect costs no heap allocation. One per thread.
  struct Scratch {
    std::array<std::vector<std::size_t>, 3> hits;
    std::vector<int> nets;
  };

  DefectAnalyzer(const layout::CellLayout& cell, AnalyzerOptions options);

  /// Returns the circuit-level fault the defect causes, or nullopt when
  /// the defect is harmless (lands on empty area, same-net material,
  /// redundant wiring, ...).
  std::optional<fault::CircuitFault> analyze(const Defect& defect,
                                             Scratch& scratch) const;
  /// Same, with throw-away buffers.
  std::optional<fault::CircuitFault> analyze(const Defect& defect) const;

  const layout::CellLayout& cell() const { return cell_; }

 private:
  /// Replaces `out` with the shapes on `layer` that intersect `probe`.
  void shapes_hit(layout::Layer layer, const layout::Rect& probe,
                  std::vector<std::size_t>& out) const;
  /// Appends the net ids of `shapes` to `nets`, each id once.
  void add_nets(const std::vector<std::size_t>& shapes,
                std::vector<int>& nets) const;
  std::vector<std::string> sorted_net_names(
      const std::vector<int>& nets) const;

  std::optional<fault::CircuitFault> analyze_extra_material(
      const Defect& defect, layout::Layer layer, Scratch& scratch) const;
  std::optional<fault::CircuitFault> analyze_missing_material(
      const Defect& defect, layout::Layer layer, Scratch& scratch) const;
  std::optional<fault::CircuitFault> analyze_missing_cut(
      const Defect& defect, layout::Layer layer, Scratch& scratch) const;
  std::optional<fault::CircuitFault> analyze_extra_cut(
      const Defect& defect, layout::Layer cut_layer, Scratch& scratch) const;
  std::optional<fault::CircuitFault> analyze_gate_oxide(
      const Defect& defect) const;
  std::optional<fault::CircuitFault> analyze_thick_oxide(
      const Defect& defect, Scratch& scratch) const;
  std::optional<fault::CircuitFault> analyze_junction(
      const Defect& defect, Scratch& scratch) const;

  /// Open extraction on one net after deleting/shrinking material.
  std::optional<fault::CircuitFault> open_fault_for(
      int net, const std::vector<std::size_t>& removed,
      const layout::Rect& footprint) const;

  const layout::CellLayout& cell_;
  AnalyzerOptions options_;

  // Spatial grid: per layer, bin -> shapes overlapping the bin, stored
  // flat (bin b holds entries[begin[b], begin[b + 1])). Each entry
  // carries its shape's rectangle so a query reads the bins
  // sequentially instead of chasing indices into the shape list.
  struct BinEntry {
    layout::Rect rect;
    std::size_t shape;
  };
  struct LayerGrid {
    std::vector<std::size_t> begin;
    std::vector<BinEntry> entries;
  };
  /// Inclusive bin index range covering a rectangle, clamped to the grid.
  struct BinSpan {
    int x0, x1, y0, y1;
  };
  BinSpan bin_span(const layout::Rect& r) const;

  layout::Rect bbox_;
  int bins_x_ = 1;
  int bins_y_ = 1;
  std::vector<LayerGrid> grid_;  // [layer]

  // Net id of every shape (the empty net has one too), and per net id
  // its name, its named shapes and its taps for open analysis.
  std::vector<int> shape_net_;
  std::vector<std::string> net_names_;
  std::vector<std::vector<std::size_t>> net_shapes_;
  std::vector<std::vector<std::size_t>> net_taps_;
};

}  // namespace dot::defect
