#include "spice/ac.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/complex_lu.hpp"
#include "util/error.hpp"

namespace dot::spice {

using numeric::Complex;
using numeric::ComplexMatrix;

std::vector<double> log_frequencies(double f_start, double f_stop,
                                    int points_per_decade) {
  if (!(f_start > 0.0) || !(f_stop > f_start) || points_per_decade < 1)
    throw util::InvalidInputError("log_frequencies: bad sweep definition");
  std::vector<double> out;
  const double decades = std::log10(f_stop / f_start);
  const int total = static_cast<int>(decades * points_per_decade) + 1;
  for (int i = 0; i <= total; ++i) {
    const double f =
        f_start * std::pow(10.0, static_cast<double>(i) / points_per_decade);
    if (f > f_stop * (1.0 + 1e-12)) break;
    out.push_back(f);
  }
  if (out.back() < f_stop * (1.0 - 1e-12)) out.push_back(f_stop);
  return out;
}

AcResult::AcResult(MnaMap map, std::vector<std::string> node_names,
                   std::vector<double> frequencies)
    : map_(std::move(map)),
      node_names_(std::move(node_names)),
      frequencies_(std::move(frequencies)) {}

void AcResult::append(std::vector<Complex> solution) {
  solutions_.push_back(std::move(solution));
}

std::complex<double> AcResult::voltage(std::size_t i,
                                       const std::string& node) const {
  if (node == "0" || node == "gnd") return {0.0, 0.0};
  for (std::size_t id = 0; id < node_names_.size(); ++id) {
    if (node_names_[id] == node) {
      const int idx = map_.node_index(static_cast<NodeId>(id));
      return idx < 0 ? Complex{0.0, 0.0}
                     : solutions_[i][static_cast<std::size_t>(idx)];
    }
  }
  throw util::InvalidInputError("AcResult: unknown node " + node);
}

double AcResult::magnitude_db(std::size_t i, const std::string& node) const {
  const double mag = std::abs(voltage(i, node));
  return 20.0 * std::log10(std::max(mag, 1e-30));
}

double AcResult::phase_deg(std::size_t i, const std::string& node) const {
  return std::arg(voltage(i, node)) * 180.0 / M_PI;
}

namespace {

/// Stamps small-signal admittances into the complex sparse assembler
/// (the AC counterpart of the real-valued stamper in mna.cpp).
class AcStamper {
 public:
  AcStamper(const MnaMap& map, numeric::ComplexSparseAssembler& a)
      : map_(map), a_(a) {}

  void admittance(NodeId na, NodeId nb, Complex y) {
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) a_.add(idx(i), idx(i), y);
    if (j >= 0) a_.add(idx(j), idx(j), y);
    if (i >= 0 && j >= 0) {
      a_.add(idx(i), idx(j), -y);
      a_.add(idx(j), idx(i), -y);
    }
  }

  void transconductance(NodeId nd, NodeId ns, NodeId ncp, NodeId ncn,
                        double g) {
    const int d = map_.node_index(nd);
    const int s = map_.node_index(ns);
    const int cp = map_.node_index(ncp);
    const int cn = map_.node_index(ncn);
    if (d >= 0 && cp >= 0) a_.add(idx(d), idx(cp), g);
    if (d >= 0 && cn >= 0) a_.add(idx(d), idx(cn), -g);
    if (s >= 0 && cp >= 0) a_.add(idx(s), idx(cp), -g);
    if (s >= 0 && cn >= 0) a_.add(idx(s), idx(cn), g);
  }

  void source_rows(const std::string& name, NodeId pos, NodeId neg) {
    const std::size_t k = map_.branch_index(name);
    const int p = map_.node_index(pos);
    const int n = map_.node_index(neg);
    if (p >= 0) {
      a_.add(idx(p), k, 1.0);
      a_.add(k, idx(p), 1.0);
    }
    if (n >= 0) {
      a_.add(idx(n), k, -1.0);
      a_.add(k, idx(n), -1.0);
    }
  }

  void inductor_rows(const std::string& name, NodeId na, NodeId nb,
                     Complex impedance) {
    const std::size_t k = map_.branch_index(name);
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) {
      a_.add(idx(i), k, 1.0);
      a_.add(k, idx(i), 1.0);
    }
    if (j >= 0) {
      a_.add(idx(j), k, -1.0);
      a_.add(k, idx(j), -1.0);
    }
    a_.add(k, k, -impedance);
  }

  void vcvs_rows(const Vcvs& e) {
    source_rows(e.name, e.p, e.n);
    const std::size_t k = map_.branch_index(e.name);
    const int cp = map_.node_index(e.cp);
    const int cn = map_.node_index(e.cn);
    if (cp >= 0) a_.add(k, idx(cp), -e.gain);
    if (cn >= 0) a_.add(k, idx(cn), e.gain);
  }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  const MnaMap& map_;
  numeric::ComplexSparseAssembler& a_;
};

/// Smooth switch conductance copied from the transient stamper's rules.
double switch_conductance_at(const Switch& sw, double vctrl) {
  const double g_on = 1.0 / sw.r_on;
  const double g_off = 1.0 / sw.r_off;
  double t = (vctrl - sw.v_off) / (sw.v_on - sw.v_off);
  t = std::clamp(t, 0.0, 1.0);
  const double smooth = t * t * (3.0 - 2.0 * t);
  return g_off * std::pow(g_on / g_off, smooth);
}

/// Stamps every device linearized around the DC point `dc_x` at angular
/// frequency `w` into the assembler.
void stamp_ac_system(const Netlist& netlist, const MnaMap& map,
                     const std::vector<double>& dc_x,
                     const std::string& ac_source, double w, double gshunt,
                     numeric::ComplexSparseAssembler& a,
                     std::vector<Complex>& b) {
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    a.add(i, i, Complex{gshunt, 0.0});
  AcStamper stamp(map, a);
  for (const auto& device : netlist.devices()) {
    std::visit(
        [&](const auto& d) {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Resistor>) {
            stamp.admittance(d.a, d.b, Complex{1.0 / d.ohms, 0.0});
          } else if constexpr (std::is_same_v<T, Capacitor>) {
            stamp.admittance(d.a, d.b, Complex{0.0, w * d.farads});
          } else if constexpr (std::is_same_v<T, VoltageSource>) {
            stamp.source_rows(d.name, d.pos, d.neg);
            if (d.name == ac_source)
              b[map.branch_index(d.name)] = Complex{1.0, 0.0};
          } else if constexpr (std::is_same_v<T, CurrentSource>) {
            // DC/large-signal current sources are AC-quiet.
          } else if constexpr (std::is_same_v<T, Vcvs>) {
            stamp.vcvs_rows(d);
          } else if constexpr (std::is_same_v<T, Vccs>) {
            stamp.transconductance(d.p, d.n, d.cp, d.cn, d.gm);
          } else if constexpr (std::is_same_v<T, Inductor>) {
            stamp.inductor_rows(d.name, d.a, d.b, Complex{0.0, w * d.henries});
          } else if constexpr (std::is_same_v<T, Diode>) {
            const double v =
                map.voltage(dc_x, d.anode) - map.voltage(dc_x, d.cathode);
            stamp.admittance(d.anode, d.cathode,
                             Complex{eval_diode(d, v).gd, 0.0});
          } else if constexpr (std::is_same_v<T, Switch>) {
            const double vctrl =
                map.voltage(dc_x, d.ctrl_p) - map.voltage(dc_x, d.ctrl_n);
            stamp.admittance(d.a, d.b,
                             Complex{switch_conductance_at(d, vctrl), 0.0});
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            const double sign = d.type == MosType::kNmos ? 1.0 : -1.0;
            const double vgs = sign * (map.voltage(dc_x, d.gate) -
                                       map.voltage(dc_x, d.source));
            const double vds = sign * (map.voltage(dc_x, d.drain) -
                                       map.voltage(dc_x, d.source));
            const double vbs = sign * (map.voltage(dc_x, d.bulk) -
                                       map.voltage(dc_x, d.source));
            const auto op = eval_mos(d.model, d.w / d.l, vgs, vds, vbs);
            stamp.transconductance(d.drain, d.source, d.gate, d.source, op.gm);
            stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                   op.gds);
            stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                   op.gmb);
          }
        },
        device);
  }
}

}  // namespace

AcResult ac_analysis(const Netlist& netlist, const AcOptions& options) {
  const auto* excitation = netlist.find_device(options.source);
  if (excitation == nullptr ||
      !std::holds_alternative<VoltageSource>(*excitation))
    throw util::InvalidInputError("ac_analysis: no voltage source named " +
                                  options.source);

  const MnaMap map(netlist);
  const DcResult dc = dc_operating_point(netlist, map, options.dc);

  std::vector<std::string> node_names;
  for (std::size_t i = 0; i < netlist.node_count(); ++i)
    node_names.push_back(netlist.node_name(static_cast<NodeId>(i)));
  AcResult result(map, std::move(node_names), options.frequencies);

  const std::size_t n = map.size();
  const double eps = options.solver.pivot_epsilon;

  // Workspaces shared across the whole sweep: the stamp sequence is
  // frequency-independent, so the sparse pattern freezes after the
  // first point and the symbolic analysis is reused until a pivot
  // drifts out of range (re-analyzed) or sparse LU rejects the matrix
  // (densified fallback, whose workspace likewise persists).
  numeric::ComplexSparseAssembler assembler;
  numeric::ComplexSparseFactors factors;
  std::shared_ptr<const numeric::SparseSymbolic> symbolic;
  numeric::ComplexDenseLu dense;
  std::vector<Complex> b, x;
  for (double f : options.frequencies) {
    const double w = 2.0 * M_PI * f;
    b.assign(n, Complex{0.0, 0.0});
    assembler.begin(n);
    stamp_ac_system(netlist, map, dc.x, options.source, w, options.dc.gshunt,
                    assembler, b);
    assembler.finish();
    bool solved_sparse = true;
    if (!symbolic || !factors.refactor(symbolic, assembler.values(), eps)) {
      symbolic = numeric::SparseSymbolic::analyze(assembler.pattern(),
                                                  assembler.values(), eps);
      solved_sparse =
          symbolic && factors.refactor(symbolic, assembler.values(), eps);
    }
    if (solved_sparse) {
      factors.solve_into(b, x);
    } else {
      // Densify and let full partial pivoting decide.
      ComplexMatrix& m = dense.matrix();
      if (m.rows() != n || m.cols() != n) m = ComplexMatrix(n, n);
      m.fill(Complex{0.0, 0.0});
      const auto& pattern = assembler.pattern();
      const auto& values = assembler.values();
      for (std::size_t r = 0; r < n; ++r)
        for (std::int32_t idx = pattern.row_ptr[r];
             idx < pattern.row_ptr[r + 1]; ++idx)
          m(r, static_cast<std::size_t>(pattern.cols[idx])) = values[idx];
      dense.factor(eps);
      dense.solve_into(b, x);  // throws ConvergenceError when singular
    }
    result.append(x);
  }
  return result;
}

}  // namespace dot::spice
