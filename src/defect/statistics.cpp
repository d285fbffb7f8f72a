#include "defect/statistics.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace dot::defect {

const std::string& defect_type_name(DefectType type) {
  static const std::array<std::string, kDefectTypeCount> names = {
      "extra metal1",    "extra metal2",     "extra poly",
      "extra active",    "missing metal1",   "missing metal2",
      "missing poly",    "missing active",   "extra contact",
      "extra via",       "missing contact",  "missing via",
      "gate oxide pinhole", "thick oxide pinhole", "junction pinhole"};
  return names[static_cast<std::size_t>(type)];
}

DefectStatistics::DefectStatistics() {
  // Metallization extra-material defects dominate (paper section 3.2:
  // "the majority of the spot defects in the fabrication process consist
  // of extra material defects in the metallization steps"); missing
  // material, spurious cuts and pinholes are orders of magnitude rarer,
  // which reproduces Table 1's shape (shorts > 95% of faults, opens a
  // tiny fault fraction yet a rich class population).
  weights = {};
  weight(DefectType::kExtraMetal1) = 40.0;
  weight(DefectType::kExtraMetal2) = 30.0;
  weight(DefectType::kExtraPoly) = 13.0;
  weight(DefectType::kExtraActive) = 7.0;
  weight(DefectType::kMissingMetal1) = 0.2;
  weight(DefectType::kMissingMetal2) = 0.16;
  weight(DefectType::kMissingPoly) = 0.1;
  weight(DefectType::kMissingActive) = 0.06;
  weight(DefectType::kExtraContact) = 0.7;
  weight(DefectType::kExtraVia) = 0.5;
  weight(DefectType::kMissingContact) = 0.08;
  weight(DefectType::kMissingVia) = 0.06;
  weight(DefectType::kGateOxidePinhole) = 1.2;
  weight(DefectType::kThickOxidePinhole) = 0.8;
  weight(DefectType::kJunctionPinhole) = 1.0;
}

DefectSampler::DefectSampler(const DefectStatistics& stats,
                             const layout::Rect& area)
    : weights_(stats.weights), area_(area), size_min_(stats.size_min) {
  for (double w : weights_) {
    if (w < 0.0)
      throw std::invalid_argument("DefectStatistics: negative weight");
    weight_total_ += w;
  }
  if (weight_total_ <= 0.0)
    throw std::invalid_argument("DefectStatistics: no positive weight");
  if (!(stats.size_min > 0.0) || !(stats.size_max >= stats.size_min))
    throw std::invalid_argument("DefectStatistics: bad size range");
  log_uniform_ = stats.size_exponent == 1.0;
  if (log_uniform_) {
    log_span_ = std::log(stats.size_max / stats.size_min);
  } else {
    const double one_minus = 1.0 - stats.size_exponent;
    pow_min_ = std::pow(stats.size_min, one_minus);
    pow_max_ = std::pow(stats.size_max, one_minus);
    inverse_ = 1.0 / one_minus;
  }
}

Defect DefectSampler::draw(util::Rng& rng) const {
  Defect d;
  double pick = rng.uniform() * weight_total_;
  std::size_t type = weights_.size() - 1;  // floating-point round-off
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    pick -= weights_[i];
    if (pick < 0.0) {
      type = i;
      break;
    }
  }
  d.type = static_cast<DefectType>(type);
  d.center.x = rng.uniform(area_.x_lo, area_.x_hi);
  d.center.y = rng.uniform(area_.y_lo, area_.y_hi);
  const double u = rng.uniform();
  d.size = log_uniform_ ? size_min_ * std::exp(u * log_span_)
                        : std::pow(pow_min_ + u * (pow_max_ - pow_min_),
                                   inverse_);
  return d;
}

}  // namespace dot::defect
