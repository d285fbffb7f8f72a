// Modified nodal analysis: maps a netlist onto the linear(ized) system
// A*x = b, where x holds node voltages plus branch currents of voltage
// sources and VCVS elements.
//
// Nonlinear devices (MOSFETs, switches) are stamped as Newton companion
// models linearized around a candidate solution; the DC and transient
// engines iterate assemble/solve to convergence.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "numeric/sparse.hpp"
#include "spice/netlist.hpp"

namespace dot::spice {

/// What the assembly treats capacitors as.
enum class AnalysisMode {
  kDc,         ///< Capacitors open (their nodes still get gshunt).
  kTransient,  ///< Capacitors become integration companions.
};

/// Compiled stamp stream of one netlist in one analysis mode: a whole
/// Newton-iteration assembly as one flat replay.
///
/// Once the assembler's trusted stream is frozen, every add() lands in
/// a fixed CSR slot, so an assembly reduces to "stream position p adds
/// table[mat_src[p]]" (numeric::SparseAssemblerT::replay) plus the RHS
/// adds "b[rhs_row[q]] += table[rhs_src[q]]". The table holds
///   - 8 entries per MOSFET, rewritten by MosKernel every iteration:
///     +gm, -gm, +gds, -gds, +gmb, -gmb, +ieq, -ieq (ieq carries the
///     polarity sign);
///   - then one entry per linear add in stream order: resistors,
///     gshunt, capacitor and inductor companions, sources, VCVS/VCCS.
/// Linear values depend only on the stamp options' gshunt, source
/// scale, time, dt and mode and on the previous step, all fixed within
/// one newton_solve call. An assembly whose inputs match, bit for bit,
/// those of the last walk only replays; any other walks the netlist to
/// refresh them (the first iteration of each call). A stream holding a
/// diode or a switch walks every iteration. Each slot and each RHS
/// entry sums the same values in the same order as the Stamper walk
/// (negation is exact), so the assembled systems are bit-identical.
///
/// Owned by a MosKernel. Captured from the Stamper walk on the first
/// assembly under a stream tag, recaptured when the tag changes;
/// replay and refresh throw std::logic_error if the stream no longer
/// matches, so a stale program cannot ship values.
struct StampProgram {
  std::uint32_t tag = 0;  ///< Stream tag captured under; 0: none yet.
  bool walk_every_iteration = false;  ///< A diode or switch is stamped.
  std::size_t mos_entries = 0;  ///< 8 per MOSFET; linear entries follow.
  std::vector<double> table;
  std::vector<std::int32_t> mat_src;  ///< Matrix stream position -> table.
  std::vector<std::int32_t> rhs_row;  ///< RHS adds in stream order.
  std::vector<std::int32_t> rhs_src;
  /// Inputs of the last walk: gshunt, source scale, time, dt, mode,
  /// then the previous step.
  std::vector<double> linear_inputs;
};

/// Options shared by assembly-based solvers.
struct StampOptions {
  double gshunt = 1e-12;      ///< Conductance from every node to ground.
  double source_scale = 1.0;  ///< Homotopy scale for independent sources.
  double time = 0.0;          ///< Evaluation time for source waveforms.
  AnalysisMode mode = AnalysisMode::kDc;
  /// Transient step size (mode == kTransient); capacitors and
  /// inductors stamp their backward-Euler companions.
  double dt = 0.0;

  // --- Fast-assembly hooks, installed by MosKernel::install (the
  // defaults run the plain Stamper walk; both assemble bit-identical
  // systems). ---
  /// Invoked with the candidate iterate at the top of every assembly,
  /// before any stamping: MosKernel gathers terminal voltages and runs
  /// the SoA device kernel here, writing the program's MOSFET entries.
  const std::function<void(const std::vector<double>& x)>* prepare_assembly =
      nullptr;
  /// Trusted-stream tag forwarded to SparseAssembler::begin (nonzero
  /// only when the caller guarantees the stamp stream is frozen for
  /// this netlist + analysis mode; see numeric::SparseAssemblerT).
  std::uint32_t stream_tag = 0;
  /// Stamp program whose MOSFET entries prepare_assembly refreshes
  /// (see StampProgram). When set, MOSFETs stamp those entries instead
  /// of evaluating the level-1 model inline.
  StampProgram* program = nullptr;
};

/// Trusted-stream tags of the two stamp streams one netlist produces:
/// capacitors and inductors stamp differently in DC and transient mode,
/// so each analysis mode gets its own tag and a mode switch refreezes
/// the assembler once.
inline constexpr std::uint32_t kDcStreamTag = 1;
inline constexpr std::uint32_t kTransientStreamTag = 2;

/// Index map from netlist entities to unknown-vector slots. The map is
/// value-semantic so results can outlive the netlist they came from.
class MnaMap {
 public:
  MnaMap() = default;
  explicit MnaMap(const Netlist& netlist);

  std::size_t size() const { return size_; }
  std::size_t node_unknowns() const { return node_unknowns_; }

  /// Unknown index of a node voltage; -1 for ground.
  int node_index(NodeId node) const;

  /// Unknown index of the branch current of a voltage source / VCVS;
  /// throws for unknown names.
  std::size_t branch_index(const std::string& source_name) const;
  bool has_branch(const std::string& source_name) const;

  /// Branch-current index of the k-th branch device (voltage source,
  /// VCVS or inductor) in device-list order. Assembly walks devices in
  /// that same order, so this replaces a per-stamp string hash lookup
  /// with an array read on the Newton-loop hot path.
  std::size_t branch_at(std::size_t occurrence) const {
    return branch_order_[occurrence];
  }

  /// Node voltage from a solution vector (0 for ground).
  double voltage(const std::vector<double>& x, NodeId node) const;

  /// Branch current (positive = current flowing pos -> neg inside the
  /// source, i.e. the current delivered into the external circuit at the
  /// negative terminal).
  double branch_current(const std::vector<double>& x,
                        const std::string& source_name) const;

 private:
  std::size_t size_ = 0;
  std::size_t node_unknowns_ = 0;
  std::unordered_map<std::string, std::size_t> branch_;
  std::vector<std::size_t> branch_order_;  ///< Branch slots in device order.
};

struct PhaseTimes;

/// Fast assembly for one netlist: the SoA level-1 kernel over every
/// MOSFET occurrence (gather terminal voltages, eval_mos_batch,
/// companion refresh) behind StampOptions::prepare_assembly, plus the
/// stamp program it feeds. The assembled systems are bit-identical to
/// the plain Stamper walk: the kernel lanes match eval_mos, the
/// companions are formed with the scalar branch's arithmetic in the
/// same order, and the program replays the exact stream.
///
/// Holds a hook that points back at the kernel, so it is neither
/// copyable nor movable; the netlist and map need not outlive it.
class MosKernel {
 public:
  MosKernel(const Netlist& netlist, const MnaMap& map);
  MosKernel(const MosKernel&) = delete;
  MosKernel& operator=(const MosKernel&) = delete;

  /// Number of MOSFET occurrences (0: nothing to accelerate).
  std::size_t size() const { return sign_.size(); }

  /// Routes the assembly of `stamp` through this kernel and its stamp
  /// program on the trusted stream `tag` (kDcStreamTag /
  /// kTransientStreamTag). The stamp stream must then be fixed for that
  /// tag: same netlist, same analysis mode.
  void install(StampOptions& stamp, std::uint32_t tag);

  /// The program install() routes assembly through (read by tests).
  const StampProgram& program() const { return program_; }

  /// Attaches a phase-time sink: kernel time is added to its
  /// device_eval_seconds (newton_solve subtracts it from assembly).
  void set_phase_times(PhaseTimes* sink) { phase_times_ = sink; }

 private:
  void prepare(const std::vector<double>& x);

  std::vector<int> drain_, gate_, source_, bulk_;
  std::vector<double> sign_;
  DeviceBatch lanes_;
  StampProgram program_;
  std::function<void(const std::vector<double>&)> prepare_hook_;
  PhaseTimes* phase_times_ = nullptr;
};

/// Assembles the Newton-linearized MNA system around candidate solution
/// x (same layout as the unknown vector) as CSR triplets. For transient
/// mode, `x_prev_step` is the converged solution of the previous time
/// point. There is no dense n*n clear: for a fixed netlist the
/// assembler recognizes the repeated stamp sequence and scatters values
/// straight into the frozen pattern (see numeric::SparseAssembler).
void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b);

}  // namespace dot::spice
