// Spot-defect statistics: relative occurrence rates per defect type and
// the defect size distribution.
//
// The defaults are calibrated so that, as in the paper's fab, "the
// majority of the spot defects in the fabrication process consist of
// extra material defects in the metallization steps" -- which is why
// more than 95% of the extracted faults are shorts.
#pragma once

#include <array>
#include <string>

#include "layout/geometry.hpp"
#include "util/rng.hpp"

namespace dot::defect {

enum class DefectType {
  kExtraMetal1,
  kExtraMetal2,
  kExtraPoly,
  kExtraActive,
  kMissingMetal1,
  kMissingMetal2,
  kMissingPoly,
  kMissingActive,
  kExtraContact,   ///< Spurious contact cut (metal1 to poly/active).
  kExtraVia,       ///< Spurious via cut (metal1 to metal2).
  kMissingContact,
  kMissingVia,
  kGateOxidePinhole,
  kThickOxidePinhole,
  kJunctionPinhole,
};
inline constexpr int kDefectTypeCount = 15;

const std::string& defect_type_name(DefectType type);

/// Spatial clustering of spot defects. Real fab defects do not arrive
/// as a homogeneous Poisson process: a scratch, splash or particle
/// shower deposits several spots close together, giving fault counts a
/// negative-binomial (over-dispersed) distribution across dies.
struct ClusterParams {
  /// Probability that a sampled defect seeds a cluster of extra spots.
  double cluster_fraction = 0.0;
  /// Mean number of EXTRA spots per cluster (geometric distribution).
  double mean_extra = 4.0;
  /// Gaussian spread of cluster members around the seed [um].
  double radius = 10.0;

  bool enabled() const { return cluster_fraction > 0.0; }
};

struct DefectStatistics {
  /// Relative density per defect type (weights, need not sum to 1).
  std::array<double, kDefectTypeCount> weights;

  /// Spot size distribution ~ 1/x^exponent on [size_min, size_max] (um).
  double size_min = 0.5;
  double size_max = 20.0;
  double size_exponent = 3.0;

  /// Spatial clustering (disabled by default: pure Poisson sprinkling).
  ClusterParams clustering;

  DefectStatistics();

  double weight(DefectType type) const {
    return weights[static_cast<std::size_t>(type)];
  }
  double& weight(DefectType type) {
    return weights[static_cast<std::size_t>(type)];
  }
};

/// One sprinkled spot defect.
struct Defect {
  DefectType type = DefectType::kExtraMetal1;
  layout::Point center;
  double size = 1.0;  ///< Spot diameter (modelled as a square).
};

/// Draws defects from one DefectStatistics over one sprinkle area: the
/// type by weight, the position uniform over the area, the size by the
/// power law. The weight total and the power-law constants are computed
/// once here instead of on every draw; each draw consumes the same four
/// uniforms with the same arithmetic as Rng::weighted followed by two
/// Rng::uniform and one Rng::power_law, so its defects are bit-identical
/// to those formulas.
class DefectSampler {
 public:
  /// Throws std::invalid_argument for a negative weight, no positive
  /// weight, or a size range without 0 < size_min <= size_max.
  DefectSampler(const DefectStatistics& stats, const layout::Rect& area);

  Defect draw(util::Rng& rng) const;

 private:
  std::array<double, kDefectTypeCount> weights_;
  double weight_total_ = 0.0;
  layout::Rect area_;
  double size_min_ = 0.0;
  /// exponent == 1: sizes are log-uniform, size_min * exp(u * log_span_).
  bool log_uniform_ = false;
  double log_span_ = 0.0;
  /// Otherwise pow(a + u * (b - a), inverse_) with a = size_min^(1-e),
  /// b = size_max^(1-e), inverse_ = 1 / (1-e).
  double pow_min_ = 0.0;
  double pow_max_ = 0.0;
  double inverse_ = 0.0;
};

}  // namespace dot::defect
