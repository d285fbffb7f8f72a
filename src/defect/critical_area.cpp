#include "defect/critical_area.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dot::defect {

double CriticalAreaCurve::area_at(double size) const {
  if (sizes.empty())
    throw util::InvalidInputError("CriticalAreaCurve: empty curve");
  if (size <= sizes.front()) return areas.front();
  if (size >= sizes.back()) return areas.back();
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    if (size <= sizes[i]) {
      const double frac = (size - sizes[i - 1]) / (sizes[i] - sizes[i - 1]);
      return areas[i - 1] + frac * (areas[i] - areas[i - 1]);
    }
  }
  return areas.back();
}

CriticalAreaCurve critical_area_curve(const DefectAnalyzer& analyzer,
                                      DefectType type,
                                      const std::vector<double>& sizes,
                                      double grid_pitch) {
  if (grid_pitch <= 0.0)
    throw util::InvalidInputError("critical_area_curve: bad grid pitch");
  CriticalAreaCurve curve;
  curve.type = type;
  curve.sizes = sizes;
  std::sort(curve.sizes.begin(), curve.sizes.end());

  const layout::Rect box = analyzer.cell().bounding_box();
  const auto nx =
      static_cast<std::size_t>(std::ceil(box.width() / grid_pitch));
  const auto ny =
      static_cast<std::size_t>(std::ceil(box.height() / grid_pitch));

  DefectAnalyzer::Scratch scratch;
  for (double size : curve.sizes) {
    std::size_t hits = 0;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        Defect defect;
        defect.type = type;
        defect.size = size;
        defect.center = {box.x_lo + (static_cast<double>(ix) + 0.5) *
                                        grid_pitch,
                         box.y_lo + (static_cast<double>(iy) + 0.5) *
                                        grid_pitch};
        if (analyzer.analyze(defect, scratch)) ++hits;
      }
    }
    curve.areas.push_back(static_cast<double>(hits) * grid_pitch *
                          grid_pitch);
  }
  return curve;
}

double fault_probability(const CriticalAreaCurve& curve,
                         const DefectStatistics& statistics,
                         double cell_area, int quadrature_points) {
  if (cell_area <= 0.0 || quadrature_points < 1)
    throw util::InvalidInputError("fault_probability: bad arguments");
  // Quantile quadrature: sizes at the midpoints of equal-probability
  // bins of the power-law distribution. For density ~ x^-k on
  // [a, b], the CDF is F(x) = (a^(1-k) - x^(1-k)) / (a^(1-k) - b^(1-k))
  // (k != 1), so the quantile is x(u) = (a^(1-k) - u*(a^(1-k)-b^(1-k)))
  // ^(1/(1-k)).
  const double a = statistics.size_min;
  const double b = statistics.size_max;
  const double k = statistics.size_exponent;
  auto quantile = [&](double u) {
    if (k == 1.0) return a * std::pow(b / a, u);
    const double one_minus = 1.0 - k;
    const double pa = std::pow(a, one_minus);
    const double pb = std::pow(b, one_minus);
    return std::pow(pa + u * (pb - pa), 1.0 / one_minus);
  };
  double total = 0.0;
  for (int i = 0; i < quadrature_points; ++i) {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(quadrature_points);
    total += curve.area_at(quantile(u)) / cell_area;
  }
  return total / static_cast<double>(quadrature_points);
}

}  // namespace dot::defect
