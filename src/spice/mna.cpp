#include "spice/mna.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "spice/solver.hpp"
#include "util/error.hpp"

namespace dot::spice {

MnaMap::MnaMap(const Netlist& netlist) {
  node_unknowns_ = netlist.node_count() - 1;  // Ground is not an unknown.
  std::size_t next = node_unknowns_;
  for (const auto& device : netlist.devices()) {
    if (std::holds_alternative<VoltageSource>(device) ||
        std::holds_alternative<Vcvs>(device) ||
        std::holds_alternative<Inductor>(device)) {
      branch_order_.push_back(next);
      branch_.emplace(device_name(device), next++);
    }
  }
  size_ = next;
}

int MnaMap::node_index(NodeId node) const {
  if (node == kGround) return -1;
  return node - 1;
}

std::size_t MnaMap::branch_index(const std::string& source_name) const {
  auto it = branch_.find(source_name);
  if (it == branch_.end())
    throw util::InvalidInputError("no branch current for source: " +
                                  source_name);
  return it->second;
}

bool MnaMap::has_branch(const std::string& source_name) const {
  return branch_.count(source_name) != 0;
}

double MnaMap::voltage(const std::vector<double>& x, NodeId node) const {
  const int i = node_index(node);
  return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)];
}

double MnaMap::branch_current(const std::vector<double>& x,
                              const std::string& source_name) const {
  return x[branch_index(source_name)];
}

namespace {

/// Smooth switch conductance between r_off and r_on as a function of the
/// control voltage, using a cubic smoothstep over [v_off, v_on] in
/// log-conductance so both extremes are well-conditioned.
double switch_conductance(const Switch& sw, double vctrl) {
  const double g_on = 1.0 / sw.r_on;
  const double g_off = 1.0 / sw.r_off;
  double t = (vctrl - sw.v_off) / (sw.v_on - sw.v_off);
  t = std::clamp(t, 0.0, 1.0);
  const double smooth = t * t * (3.0 - 2.0 * t);
  return g_off * std::pow(g_on / g_off, smooth);
}

/// Stamps device contributions into the sparse assembler (matrix) and
/// the right-hand side, or -- with a stamp program -- records where
/// each add's value comes from (see StampProgram).
///
/// Every add carries a source: kLinear, or the table index of a
/// MOSFET's +v entry (its -v entry follows at src + 1). kDirect stamps
/// only; kCapture stamps and records the program; kRefresh rewrites
/// the program's linear entries and stamps nothing (the replay does).
class Stamper {
 public:
  static constexpr std::int32_t kLinear = -1;
  enum class Mode { kDirect, kCapture, kRefresh };

  Stamper(const MnaMap& map, numeric::SparseAssembler& a,
          std::vector<double>& b, Mode mode, StampProgram* program)
      : map_(map), a_(a), b_(b), mode_(mode), program_(program) {}

  Mode mode() const { return mode_; }

  void conductance(NodeId na, NodeId nb, double g) {
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) add(idx(i), idx(i), g);
    if (j >= 0) add(idx(j), idx(j), g);
    if (i >= 0 && j >= 0) {
      add(idx(i), idx(j), -g);
      add(idx(j), idx(i), -g);
    }
  }

  /// Current `amps` flowing out of node `from` into node `to` through
  /// the device (i.e. a source pushing current into `to`).
  void current(NodeId from, NodeId to, double amps,
               std::int32_t src = kLinear) {
    const int i = map_.node_index(from);
    const int j = map_.node_index(to);
    if (i >= 0) rhs_add(idx(i), -amps, negated(src));
    if (j >= 0) rhs_add(idx(j), amps, src);
  }

  /// Transconductance: current injected into (nd -> ns) controlled by
  /// v(ncp) - v(ncn) with gain g: i = g * (v_cp - v_cn), flowing nd->ns
  /// through the device.
  void transconductance(NodeId nd, NodeId ns, NodeId ncp, NodeId ncn,
                        double g, std::int32_t src = kLinear) {
    const int d = map_.node_index(nd);
    const int s = map_.node_index(ns);
    const int cp = map_.node_index(ncp);
    const int cn = map_.node_index(ncn);
    if (d >= 0 && cp >= 0) add(idx(d), idx(cp), g, src);
    if (d >= 0 && cn >= 0) add(idx(d), idx(cn), -g, negated(src));
    if (s >= 0 && cp >= 0) add(idx(s), idx(cp), -g, negated(src));
    if (s >= 0 && cn >= 0) add(idx(s), idx(cn), g, src);
  }

  void voltage_source_rows(std::size_t k, NodeId pos, NodeId neg,
                           double volts) {
    const int p = map_.node_index(pos);
    const int n = map_.node_index(neg);
    if (p >= 0) {
      add(idx(p), k, 1.0);
      add(k, idx(p), 1.0);
    }
    if (n >= 0) {
      add(idx(n), k, -1.0);
      add(k, idx(n), -1.0);
    }
    rhs_add(k, volts);
  }

  /// Inductor branch: KCL couplings plus the row
  ///   v(a) - v(b) - l_over_dt * i = rhs
  /// (l_over_dt = 0 and rhs = 0 makes it a DC short).
  void inductor_rows(std::size_t k, NodeId na, NodeId nb,
                     double l_over_dt, double rhs) {
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) {
      add(idx(i), k, 1.0);
      add(k, idx(i), 1.0);
    }
    if (j >= 0) {
      add(idx(j), k, -1.0);
      add(k, idx(j), -1.0);
    }
    add(k, k, -l_over_dt);
    rhs_add(k, rhs);
  }

  void vcvs_rows(std::size_t k, const Vcvs& e) {
    const int p = map_.node_index(e.p);
    const int n = map_.node_index(e.n);
    const int cp = map_.node_index(e.cp);
    const int cn = map_.node_index(e.cn);
    if (p >= 0) {
      add(idx(p), k, 1.0);
      add(k, idx(p), 1.0);
    }
    if (n >= 0) {
      add(idx(n), k, -1.0);
      add(k, idx(n), -1.0);
    }
    if (cp >= 0) add(k, idx(cp), -e.gain);
    if (cn >= 0) add(k, idx(cn), e.gain);
  }

  void add(std::size_t r, std::size_t c, double v,
           std::int32_t src = kLinear) {
    if (mode_ == Mode::kRefresh) {
      if (src == kLinear) refresh(v);
      return;
    }
    a_.add(r, c, v);
    if (mode_ == Mode::kCapture)
      program_->mat_src.push_back(src == kLinear ? capture(v) : src);
  }

  void rhs_add(std::size_t i, double delta, std::int32_t src = kLinear) {
    if (mode_ == Mode::kRefresh) {
      if (src == kLinear) refresh(delta);
      return;
    }
    b_[i] += delta;
    if (mode_ == Mode::kCapture) {
      program_->rhs_row.push_back(static_cast<std::int32_t>(i));
      program_->rhs_src.push_back(src == kLinear ? capture(delta) : src);
    }
  }

  /// Refresh rounds must rewrite exactly the captured linear entries.
  void check_refreshed() const {
    if (next_linear_ != program_->table.size())
      throw std::logic_error("assemble_mna: stamp program refresh mismatch");
  }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  static std::int32_t negated(std::int32_t src) {
    return src == kLinear ? kLinear : src + 1;
  }

  std::int32_t capture(double v) {
    program_->table.push_back(v);
    return static_cast<std::int32_t>(program_->table.size() - 1);
  }
  void refresh(double v) {
    if (next_linear_ == program_->table.size())
      throw std::logic_error("assemble_mna: stamp program refresh overrun");
    program_->table[next_linear_++] = v;
  }

  const MnaMap& map_;
  numeric::SparseAssembler& a_;
  std::vector<double>& b_;
  const Mode mode_;
  StampProgram* const program_;
  std::size_t next_linear_ = program_ ? program_->mos_entries : 0;
};

/// The Stamper walk over every device (gshunt first, then device
/// order). Returns whether the stream holds a device whose stamp
/// depends on x beyond the MOSFETs (a diode or a switch).
bool stamp_devices(const Netlist& netlist, const MnaMap& map,
                   const std::vector<double>& x,
                   const std::vector<double>& x_prev_step,
                   const StampOptions& options, Stamper& stamp) {
  // Node-to-ground shunts keep otherwise-floating nodes solvable and
  // implement gmin stepping.
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    stamp.add(i, i, options.gshunt);

  const StampProgram* const program = options.program;
  std::int32_t mos_src = 0;    // table index of the next MOSFET's entries
  std::size_t branch_seq = 0;  // branch_at occurrence counter
  bool x_dependent = false;

  for (const auto& device : netlist.devices()) {
    std::visit(
        [&](const auto& d) {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Resistor>) {
            stamp.conductance(d.a, d.b, 1.0 / d.ohms);
          } else if constexpr (std::is_same_v<T, Capacitor>) {
            if (options.mode == AnalysisMode::kTransient) {
              // Backward Euler companion: geq = C/dt, ieq carries the
              // previous-step voltage.
              const double v_prev =
                  map.voltage(x_prev_step, d.a) - map.voltage(x_prev_step, d.b);
              const double geq = d.farads / options.dt;
              stamp.conductance(d.a, d.b, geq);
              stamp.current(d.b, d.a, geq * v_prev);
            }
          } else if constexpr (std::is_same_v<T, VoltageSource>) {
            stamp.voltage_source_rows(
                map.branch_at(branch_seq++), d.pos, d.neg,
                options.source_scale * d.spec.eval(options.time));
          } else if constexpr (std::is_same_v<T, CurrentSource>) {
            stamp.current(d.pos, d.neg,
                          options.source_scale * d.spec.eval(options.time));
          } else if constexpr (std::is_same_v<T, Vcvs>) {
            stamp.vcvs_rows(map.branch_at(branch_seq++), d);
          } else if constexpr (std::is_same_v<T, Vccs>) {
            stamp.transconductance(d.p, d.n, d.cp, d.cn, d.gm);
          } else if constexpr (std::is_same_v<T, Inductor>) {
            const std::size_t k = map.branch_at(branch_seq++);
            if (options.mode == AnalysisMode::kDc) {
              stamp.inductor_rows(k, d.a, d.b, 0.0, 0.0);
            } else {
              // Backward Euler: v = (L/dt) (i - i_prev)
              const double l1 = d.henries / options.dt;
              stamp.inductor_rows(k, d.a, d.b, l1, -l1 * x_prev_step[k]);
            }
          } else if constexpr (std::is_same_v<T, Diode>) {
            x_dependent = true;
            const double v =
                map.voltage(x, d.anode) - map.voltage(x, d.cathode);
            const auto op = eval_diode(d, v);
            stamp.conductance(d.anode, d.cathode, op.gd);
            stamp.current(d.anode, d.cathode, op.id - op.gd * v);
          } else if constexpr (std::is_same_v<T, Switch>) {
            x_dependent = true;
            const double vctrl =
                map.voltage(x, d.ctrl_p) - map.voltage(x, d.ctrl_n);
            stamp.conductance(d.a, d.b, switch_conductance(d, vctrl));
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            if (program != nullptr) {
              // MosKernel path: the SoA kernel already evaluated this
              // occurrence for the current iterate (prepare_assembly)
              // into the program's table; a refresh has nothing to do.
              const std::int32_t src = mos_src;
              mos_src += 8;
              if (stamp.mode() == Stamper::Mode::kRefresh) return;
              // Copied out first: a capture appends to the table.
              const double gm = program->table[src];
              const double gds = program->table[src + 2];
              const double gmb = program->table[src + 4];
              const double ieq = program->table[src + 6];
              stamp.transconductance(d.drain, d.source, d.gate, d.source,
                                     gm, src);
              stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                     gds, src + 2);
              stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                     gmb, src + 4);
              stamp.current(d.drain, d.source, ieq, src + 6);
              return;
            }
            // NMOS-normalized terminal voltages around the candidate.
            const double sign = d.type == MosType::kNmos ? 1.0 : -1.0;
            const double vd = map.voltage(x, d.drain);
            const double vg = map.voltage(x, d.gate);
            const double vs = map.voltage(x, d.source);
            const double vb = map.voltage(x, d.bulk);
            const double vgs = sign * (vg - vs);
            const double vds = sign * (vd - vs);
            const double vbs = sign * (vb - vs);
            const auto op = eval_mos(d.model, d.w / d.l, vgs, vds, vbs);
            // Newton companion: ids_lin = ieq + gm*vgs + gds*vds + gmb*vbs
            // with voltages of the *new* iterate.
            const double ieq =
                op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs;
            // Map back to real node polarities: for PMOS the normalized
            // current Ids flows source->drain in real terms.
            // A transconductance g from normalized (va - vb) injecting
            // normalized current d->s equals, in real nodes, g from
            // sign*(va - vb) injecting sign*current: the sign appears
            // twice and cancels for conductance stamps, once for ieq.
            stamp.transconductance(d.drain, d.source, d.gate, d.source, op.gm);
            stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                   op.gds);
            stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                   op.gmb);
            stamp.current(d.drain, d.source, sign * ieq);
          }
        },
        device);
  }
  return x_dependent;
}

/// The linear entries' inputs as StampProgram::linear_inputs holds
/// them, compared and stored bit for bit (so -0.0 is not 0.0).
constexpr std::size_t kLinearHead = 5;

void linear_head(const StampOptions& o, double (&head)[kLinearHead]) {
  head[0] = o.gshunt;
  head[1] = o.source_scale;
  head[2] = o.time;
  head[3] = o.dt;
  head[4] = static_cast<double>(o.mode);
}

bool linear_inputs_match(const StampProgram& program,
                         const StampOptions& options,
                         const std::vector<double>& x_prev_step) {
  double head[kLinearHead];
  linear_head(options, head);
  const std::vector<double>& kept = program.linear_inputs;
  return kept.size() == kLinearHead + x_prev_step.size() &&
         std::memcmp(kept.data(), head, sizeof head) == 0 &&
         (x_prev_step.empty() ||
          std::memcmp(kept.data() + kLinearHead, x_prev_step.data(),
                      x_prev_step.size() * sizeof(double)) == 0);
}

void keep_linear_inputs(StampProgram& program, const StampOptions& options,
                        const std::vector<double>& x_prev_step) {
  double head[kLinearHead];
  linear_head(options, head);
  program.linear_inputs.assign(head, head + kLinearHead);
  program.linear_inputs.insert(program.linear_inputs.end(),
                               x_prev_step.begin(), x_prev_step.end());
}

}  // namespace

MosKernel::MosKernel(const Netlist& netlist, const MnaMap& map) {
  // One lane per MOSFET occurrence, in device order (the order assembly
  // consumes companions in).
  for (const auto& device : netlist.devices()) {
    const auto* mos = std::get_if<Mosfet>(&device);
    if (mos == nullptr) continue;
    drain_.push_back(map.node_index(mos->drain));
    gate_.push_back(map.node_index(mos->gate));
    source_.push_back(map.node_index(mos->source));
    bulk_.push_back(map.node_index(mos->bulk));
    sign_.push_back(mos->type == MosType::kNmos ? 1.0 : -1.0);
    lanes_.push_device(mos->model, mos->w / mos->l);
  }
  program_.mos_entries = 8 * sign_.size();
  program_.table.assign(program_.mos_entries, 0.0);
  prepare_hook_ = [this](const std::vector<double>& x) { prepare(x); };
}

void MosKernel::install(StampOptions& stamp, std::uint32_t tag) {
  stamp.prepare_assembly = &prepare_hook_;
  stamp.stream_tag = tag;
  stamp.program = &program_;
}

void MosKernel::prepare(const std::vector<double>& x) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (phase_times_ != nullptr) t0 = Clock::now();
  // The same arithmetic, in the same order, as the scalar MOSFET
  // stamping branch of stamp_devices.
  auto v = [&](int i) { return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)]; };
  const std::size_t count = sign_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const double vs = v(source_[i]);
    lanes_.vgs[i] = sign_[i] * (v(gate_[i]) - vs);
    lanes_.vds[i] = sign_[i] * (v(drain_[i]) - vs);
    lanes_.vbs[i] = sign_[i] * (v(bulk_[i]) - vs);
  }
  eval_mos_batch(lanes_);
  double* entry = program_.table.data();
  for (std::size_t i = 0; i < count; ++i, entry += 8) {
    const double gm = lanes_.gm[i];
    const double gds = lanes_.gds[i];
    const double gmb = lanes_.gmb[i];
    const double ieq = sign_[i] * (lanes_.ids[i] - gm * lanes_.vgs[i] -
                                   gds * lanes_.vds[i] - gmb * lanes_.vbs[i]);
    entry[0] = gm;
    entry[1] = -gm;
    entry[2] = gds;
    entry[3] = -gds;
    entry[4] = gmb;
    entry[5] = -gmb;
    entry[6] = ieq;
    entry[7] = -ieq;
  }
  if (phase_times_ != nullptr)
    phase_times_->device_eval_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
}

void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b) {
  const std::size_t n = map.size();
  a.begin(n, options.stream_tag);
  b.assign(n, 0.0);
  if (options.prepare_assembly != nullptr) (*options.prepare_assembly)(x);

  StampProgram* const program = options.program;
  if (program != nullptr && program->tag != 0 &&
      program->tag == options.stream_tag && a.fast_active()) {
    // Compiled round: refresh the linear entries when their inputs
    // moved (or a diode/switch moves them with x), then replay.
    if (program->walk_every_iteration ||
        !linear_inputs_match(*program, options, x_prev_step)) {
      Stamper refresh(map, a, b, Stamper::Mode::kRefresh, program);
      stamp_devices(netlist, map, x, x_prev_step, options, refresh);
      refresh.check_refreshed();
      keep_linear_inputs(*program, options, x_prev_step);
    }
    a.replay(program->mat_src, program->table);
    const std::size_t m = program->rhs_row.size();
    for (std::size_t q = 0; q < m; ++q)
      b[static_cast<std::size_t>(program->rhs_row[q])] +=
          program->table[static_cast<std::size_t>(program->rhs_src[q])];
  } else if (program != nullptr) {
    // First round under this tag: stamp directly and capture.
    program->tag = 0;
    program->table.resize(program->mos_entries);
    program->mat_src.clear();
    program->rhs_row.clear();
    program->rhs_src.clear();
    Stamper capture(map, a, b, Stamper::Mode::kCapture, program);
    program->walk_every_iteration =
        stamp_devices(netlist, map, x, x_prev_step, options, capture);
    keep_linear_inputs(*program, options, x_prev_step);
    program->tag = options.stream_tag;
  } else {
    Stamper direct(map, a, b, Stamper::Mode::kDirect, nullptr);
    stamp_devices(netlist, map, x, x_prev_step, options, direct);
  }
  a.finish();
}

}  // namespace dot::spice
