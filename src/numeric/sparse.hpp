// Sparse linear-solver subsystem for the MNA engine.
//
// MNA matrices have a handful of entries per device stamp, so past a
// few dozen unknowns the dense O(n^3) LU in the Newton loop dominates
// every fault-simulation campaign. This module provides:
//
//  - SparseAssemblerT: triplet accumulation into CSR with *pattern
//    freezing* -- the stamp sequence of a fixed netlist is identical
//    every Newton iteration, so after the first assembly the (row,col)
//    stream is recognized and values are scattered straight into the
//    cached CSR slots (no sort, no dense n*n clear).
//  - minimum_degree_order: greedy fill-reducing ordering on the
//    symmetrized pattern.
//  - SparseSymbolic: one-time "analyze" pass (Gilbert-Peierls LU with
//    threshold partial pivoting on a representative numeric matrix)
//    that records the column ordering, the pivot sequence and the fill
//    pattern of L and U, and compiles them into a flat refactor
//    schedule. Immutable and shareable across threads: the
//    per-macro campaign contexts cache it for the golden netlist.
//  - SparseFactorsT: fast numeric *refactorization* over a cached
//    SparseSymbolic -- fixed pattern, fixed pivots, pure flops replayed
//    from the flat schedule in one in-place workspace. This is the
//    per-Newton-iteration hot path. A pivot that collapses below
//    epsilon (values drifted too far from the analyzed matrix) makes
//    refactor() fail so the caller can re-analyze or fall back to the
//    dense partial-pivoting solver.
//
// Everything is templated over the scalar so the AC engine reuses the
// same machinery over std::complex<double> (the symbolic analysis is
// structure-plus-pivots and is shared between field types).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dot::numeric {

/// Compressed-sparse-row structure (no values): row_ptr has n+1
/// entries; cols holds the column indices of each row in ascending
/// order with no duplicates.
struct CsrPattern {
  std::size_t n = 0;
  std::vector<std::int32_t> row_ptr;
  std::vector<std::int32_t> cols;

  std::size_t nnz() const { return cols.size(); }
  bool operator==(const CsrPattern&) const = default;
};

/// Pattern-freezing triplet assembler (see file comment). Usage:
///   begin(n); add(r, c, v)...; finish();
/// then pattern() / values() expose the CSR system. A second assembly
/// with the identical (r, c) stream reuses the frozen pattern and only
/// rewrites values (pattern_reused() reports which path ran).
///
/// Trusted streams: begin(n, tag) with a nonzero tag declares that the
/// upcoming add() stream is identical to the last one frozen under the
/// same tag (a fixed netlist stamped in a fixed analysis mode). The
/// assembler then skips the code push and comparison entirely and
/// scatters each add() straight into its cached CSR slot -- the
/// transient engine's hot path (spice::MosKernel, spice::StampProgram).
/// Accumulation order is unchanged (stream order into slots), so the
/// values are bit-identical to the checked path. A tag or size change refreezes
/// from scratch; tag 0 always runs the checked path.
template <typename Scalar>
class SparseAssemblerT {
 public:
  void begin(std::size_t n, std::uint32_t stream_tag = 0);
  void add(std::size_t r, std::size_t c, Scalar v) {
    if (fast_) {
      values_[static_cast<std::size_t>(slot_[fast_index_++])] += v;
      return;
    }
    codes_.push_back(static_cast<std::uint64_t>(r) * n_ + c);
    vals_.push_back(v);
  }
  /// A whole trusted round in one call, in place of every add(): stream
  /// position p adds table[src[p]] into its frozen CSR slot, in stream
  /// order, so each slot sums the same values in the same order as the
  /// add() calls it replaces (spice::StampProgram). Only valid right
  /// after a trusted begin(); throws std::logic_error when `src` does
  /// not cover the frozen stream exactly.
  void replay(const std::vector<std::int32_t>& src,
              const std::vector<Scalar>& table);
  void finish();

  /// Whether this round runs the trusted (slot-scatter) path.
  bool fast_active() const { return fast_; }

  std::size_t size() const { return n_; }
  const CsrPattern& pattern() const { return pattern_; }
  const std::vector<Scalar>& values() const { return values_; }
  bool pattern_reused() const { return pattern_reused_; }
  /// Whether the last finish() ran the trusted (slot-scatter) path.
  bool fast_path_used() const { return fast_used_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> codes_;         ///< r*n+c per add() this round.
  std::vector<Scalar> vals_;                 ///< parallel to codes_.
  std::vector<std::uint64_t> frozen_codes_;  ///< add() stream of the pattern.
  std::vector<std::int32_t> slot_;           ///< add() index -> CSR slot.
  CsrPattern pattern_;
  std::vector<Scalar> values_;
  bool frozen_ = false;
  bool pattern_reused_ = false;
  std::uint32_t frozen_tag_ = 0;  ///< Tag the pattern was frozen under.
  bool fast_ = false;             ///< Trusted scatter active this round.
  bool fast_used_ = false;
  std::size_t fast_index_ = 0;    ///< add() counter on the trusted path.
};

using SparseAssembler = SparseAssemblerT<double>;
using ComplexSparseAssembler = SparseAssemblerT<std::complex<double>>;

/// Greedy minimum-degree ordering of the symmetrized pattern (graph of
/// A + A^T). Returns the elimination order: position j is filled by
/// original row/column order[j]. Deterministic (ties break on index).
std::vector<std::int32_t> minimum_degree_order(const CsrPattern& pattern);

/// Result of the one-time analyze pass: column ordering (minimum
/// degree), row pivot sequence (threshold partial pivoting on the
/// representative matrix), fill pattern of L and U, and the flat
/// refactor schedule compiled from them. Immutable after analyze();
/// share it across threads freely.
///
/// The raw index arrays are public for SparseFactorsT and the tests;
/// treat them as read-only.
class SparseSymbolic {
 public:
  /// Runs Gilbert-Peierls LU with threshold partial pivoting (diagonal
  /// preferred within `diag_preference` of the column maximum) on the
  /// given matrix and records the structural outcome. Returns nullptr
  /// when the matrix is numerically singular at `pivot_epsilon`.
  template <typename Scalar>
  static std::shared_ptr<const SparseSymbolic> analyze(
      const CsrPattern& pattern, const std::vector<Scalar>& values,
      double pivot_epsilon = 1e-13, double diag_preference = 0.1);

  std::size_t size() const { return pattern.n; }
  std::size_t l_nnz() const { return l_rows.size(); }
  std::size_t u_nnz() const { return u_rows.size() + pattern.n; }
  /// Total factor entries (L + U including the diagonal); compare with
  /// pattern.nnz() to see the fill the ordering admitted. Also the
  /// size of the refactor workspace.
  std::size_t factor_nnz() const { return l_nnz() + u_nnz(); }

  CsrPattern pattern;                ///< The analyzed matrix structure.
  std::vector<std::int32_t> qperm;   ///< factor column j = A column qperm[j].
  std::vector<std::int32_t> pinv;    ///< original row -> pivot position.
  std::vector<std::int32_t> pivrow;  ///< pivot position -> original row.
  /// CSC view of `pattern` plus the map back into CSR value slots.
  std::vector<std::int32_t> csc_ptr, csc_rows, csc_csr;
  /// Per factor column j: the reach (nonzero set) in topological order,
  /// original row indices.
  std::vector<std::int32_t> topo_ptr, topo_rows;
  /// L columns: rows strictly below the pivot (original indices), unit
  /// diagonal implicit.
  std::vector<std::int32_t> l_ptr, l_rows;
  /// U columns excluding the diagonal: original row and pivot position.
  std::vector<std::int32_t> u_ptr, u_rows, u_pos;

  /// Flat refactor schedule: the left-looking elimination above, run on
  /// the representative matrix once and recorded as slot operations
  /// over one workspace of factor_nnz() slots. Factor column j owns
  /// slots [col_slot[j], col_slot[j+1]): its U entries in u_ptr order,
  /// the pivot at piv_slot[j], then its L entries in l_ptr order.
  std::vector<std::int32_t> col_slot, piv_slot;
  /// Scatter of A: CSR value index -> slot. fill_slots are the slots no
  /// entry of A lands in; they start every refactor at zero.
  std::vector<std::int32_t> a_slot, fill_slots;
  /// Column j runs updates [upd_ptr[j], upd_ptr[j+1]) in the order the
  /// left-looking loop meets them. Update u reads its multiplier from
  /// slot upd_src[u] (skipped when it is zero) and, for each op o in
  /// [op_ptr[u], op_ptr[u+1]), subtracts L slot upd_l[u] + (o -
  /// op_ptr[u]) times the multiplier from slot op_dst[o].
  std::vector<std::int32_t> upd_ptr, upd_src, upd_l, op_ptr, op_dst;
  /// Pivot position of each L row (l_rows through pinv), for the
  /// solve's pivot-space substitution.
  std::vector<std::int32_t> l_pos;

 private:
  /// Records the schedule from the structure analyze() found.
  void compile_schedule();
};

/// Numeric LU factors over a cached SparseSymbolic. refactor() is the
/// hot path: no reach, no pivot search, just the symbolic's recorded
/// schedule of sparse flops.
template <typename Scalar>
class SparseFactorsT {
 public:
  /// Factors the CSR values (matching symbolic->pattern) with the
  /// recorded pivot sequence. Returns false -- and invalidates the
  /// factors -- when a pivot magnitude drops to `pivot_epsilon`.
  bool refactor(const std::shared_ptr<const SparseSymbolic>& symbolic,
                const std::vector<Scalar>& csr_values,
                double pivot_epsilon = 1e-13);

  bool valid() const { return symbolic_ != nullptr; }
  double min_abs_pivot() const { return min_abs_pivot_; }
  const std::shared_ptr<const SparseSymbolic>& symbolic() const {
    return symbolic_;
  }

  /// Solves A x = b (original row/column space). Throws
  /// util::ConvergenceError when no valid factorization is held.
  void solve_into(const std::vector<Scalar>& b, std::vector<Scalar>& x);

 private:
  std::shared_ptr<const SparseSymbolic> symbolic_;
  std::vector<Scalar> ws_;  ///< L, U and pivots in schedule slots.
  std::vector<Scalar> z_;   ///< pivot-space scratch (solve).
  double min_abs_pivot_ = 0.0;
};

using SparseFactors = SparseFactorsT<double>;
using ComplexSparseFactors = SparseFactorsT<std::complex<double>>;

}  // namespace dot::numeric
