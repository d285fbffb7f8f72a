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

/// Precomputed Newton companion model for one MOSFET occurrence, in the
/// device's NMOS-normalized convention; `ieq` already carries the
/// polarity sign, so it stamps as-is (see the MOSFET branch in
/// assemble_into). Produced by the SoA device kernel (MosKernel).
struct MosCompanion {
  double gm = 0.0;
  double gds = 0.0;
  double gmb = 0.0;
  double ieq = 0.0;  ///< sign * (ids - gm*vgs - gds*vds - gmb*vbs).
};

/// Precompiled MOSFET stamp segments for the transient Newton loop.
///
/// Stamping a MOSFET companion walks four Stamper calls per device:
/// node-index lookups, grounded-terminal guards and sign branches that
/// are identical every Newton iteration -- only the four companion
/// values change. Once the assembler's trusted stream is frozen, the
/// slot each add() lands in is fixed, so the whole per-device stamp
/// collapses to a table of (CSR slot, +/-1 sign, companion field):
///
///   values[slot[i]] += sign[i] * companions_flat[src[i]]
///
/// applied in the exact stream positions the Stamper calls occupied.
/// Per CSR slot the contributions land in the same order with the same
/// values (+/-1.0 multiplies are exact), so the assembled system is
/// bit-identical to full stamping.
///
/// Owned by a MosKernel, one per transient run; callers without a
/// kernel leave StampOptions::mos_plan null and are untouched. The plan
/// is captured on the first trusted-stream round after the pattern
/// freezes, keyed by the stream tag: a tag change (DC -> transient
/// stream) discards and recaptures. assemble_mna validates the
/// predicted add count against the assembler cursor at capture and
/// throws on mismatch, so a desynchronized plan cannot ship values.
struct MosStampPlan {
  bool ready = false;
  std::uint32_t tag = 0;  ///< Stream tag the plan was captured under.
  /// Matrix entries, all MOSFETs concatenated in device order;
  /// mat_ptr[m] .. mat_ptr[m+1] is the m-th MOSFET's slice.
  std::vector<std::int32_t> slot;  ///< CSR value slot.
  std::vector<double> sign;        ///< +/-1.0.
  std::vector<std::int32_t> src;   ///< 4*mos + field (gm,gds,gmb,ieq).
  std::vector<std::int32_t> mat_ptr;
  /// RHS entries (the ieq injection), sliced by b_ptr like mat_ptr.
  std::vector<std::int32_t> b_node;  ///< Unknown index in b.
  std::vector<double> b_sign;
  std::vector<std::int32_t> b_src;
  std::vector<std::int32_t> b_ptr;
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
  /// Precomputed MOSFET companions, one entry per Mosfet in device
  /// order. When set, assembly consumes them instead of evaluating the
  /// level-1 model inline; `prepare_assembly` is expected to refresh
  /// them for the candidate iterate.
  const std::vector<MosCompanion>* mos_companions = nullptr;
  /// Invoked with the candidate iterate at the top of every assembly,
  /// before any stamping: MosKernel gathers terminal voltages and runs
  /// the SoA device kernel here.
  const std::function<void(const std::vector<double>& x)>* prepare_assembly =
      nullptr;
  /// Trusted-stream tag forwarded to SparseAssembler::begin (nonzero
  /// only when the caller guarantees the stamp stream is frozen for
  /// this netlist + analysis mode; see numeric::SparseAssemblerT).
  std::uint32_t stream_tag = 0;
  /// Precompiled MOSFET stamp segments (sparse trusted streams with
  /// mos_companions only; see MosStampPlan). Null disables the plan.
  MosStampPlan* mos_plan = nullptr;
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

/// Fast MOSFET assembly for one netlist: the SoA level-1 kernel over
/// every MOSFET occurrence (gather terminal voltages, eval_mos_batch,
/// companion refresh) behind StampOptions::prepare_assembly, plus the
/// precompiled stamp plan. The assembled systems are bit-identical to
/// the plain Stamper walk: the kernel lanes match eval_mos, the
/// companions are formed with the scalar branch's arithmetic in the
/// same order, and the plan replays the exact stream slots.
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

  /// Routes the MOSFET stamping of `stamp` through this kernel on the
  /// trusted stream `tag` (kDcStreamTag / kTransientStreamTag). The
  /// stamp stream must then be fixed for that tag: same netlist, same
  /// analysis mode.
  void install(StampOptions& stamp, std::uint32_t tag);

  /// Attaches a phase-time sink: kernel time is added to its
  /// device_eval_seconds (newton_solve subtracts it from assembly).
  void set_phase_times(PhaseTimes* sink) { phase_times_ = sink; }

 private:
  void prepare(const std::vector<double>& x);

  std::vector<int> drain_, gate_, source_, bulk_;
  std::vector<double> sign_;
  DeviceBatch lanes_;
  std::vector<MosCompanion> companions_;
  MosStampPlan plan_;
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
