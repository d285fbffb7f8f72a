// Sparse MNA solver: CSR assembly, fill-reducing ordering, the
// symbolic/numeric factorization split, and the SolverContext cache
// that shares one symbolic analysis across Newton iterations, envelope
// samples, and layout-preserving fault classes.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "numeric/complex_lu.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"
#include "util/rng.hpp"
#include "dense_reference.hpp"
#include "sparse_reference.hpp"

namespace dot {
namespace {

using numeric::CsrPattern;
using numeric::SparseAssembler;
using numeric::SparseFactors;
using numeric::SparseSymbolic;

// ------------------------------------------------------- CSR assembly

TEST(SparseAssembler, DeduplicatesAndOrdersEntries) {
  SparseAssembler a;
  a.begin(3);
  a.add(0, 0, 1.0);
  a.add(2, 1, 5.0);
  a.add(0, 2, 3.0);
  a.add(0, 0, 2.0);  // duplicate coordinate: summed, single slot
  a.add(1, 1, 4.0);
  a.finish();

  const CsrPattern& p = a.pattern();
  ASSERT_EQ(p.n, 3u);
  EXPECT_EQ(p.nnz(), 4u);
  const std::vector<std::int32_t> want_ptr = {0, 2, 3, 4};
  const std::vector<std::int32_t> want_cols = {0, 2, 1, 1};
  EXPECT_EQ(p.row_ptr, want_ptr);
  EXPECT_EQ(p.cols, want_cols);
  const std::vector<double> want_vals = {3.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(a.values(), want_vals);
}

TEST(SparseAssembler, ReusesFrozenPatternOnIdenticalStampStream) {
  SparseAssembler a;
  for (int pass = 0; pass < 3; ++pass) {
    a.begin(2);
    a.add(0, 0, 1.0 + pass);
    a.add(1, 1, 2.0);
    a.add(0, 1, -1.0);
    a.finish();
    EXPECT_EQ(a.pattern_reused(), pass > 0) << "pass " << pass;
    EXPECT_DOUBLE_EQ(a.values()[0], 1.0 + pass);
  }
  // A different stamp stream (extra entry) rebuilds the pattern.
  a.begin(2);
  a.add(0, 0, 1.0);
  a.add(1, 1, 2.0);
  a.add(0, 1, -1.0);
  a.add(1, 0, -1.0);
  a.finish();
  EXPECT_FALSE(a.pattern_reused());
  EXPECT_EQ(a.pattern().nnz(), 4u);
}

// ------------------------------------------------- fill-reducing order

TEST(MinimumDegree, ProducesAValidPermutation) {
  SparseAssembler a;
  util::Rng rng(11);
  const std::size_t n = 40;
  a.begin(n);
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, 1.0);
  for (int e = 0; e < 120; ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    a.add(r, c, 0.5);
  }
  a.finish();
  const auto order = numeric::minimum_degree_order(a.pattern());
  ASSERT_EQ(order.size(), n);
  std::vector<bool> seen(n, false);
  for (const auto q : order) {
    ASSERT_GE(q, 0);
    ASSERT_LT(static_cast<std::size_t>(q), n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(q)]);
    seen[static_cast<std::size_t>(q)] = true;
  }
}

TEST(MinimumDegree, TridiagonalFactorsWithoutFill) {
  SparseAssembler a;
  const std::size_t n = 50;
  a.begin(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  a.finish();
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  // A tridiagonal matrix under minimum-degree ordering (eliminate the
  // chain ends first) picks up no fill: L and U keep one off-diagonal
  // entry per eliminated column (u_nnz additionally counts the n
  // diagonal pivots).
  EXPECT_LE(sym->l_nnz(), n - 1);
  EXPECT_LE(sym->u_nnz() - n, n - 1);
}

// ---------------------------------------- factorization vs dense LU

/// Builds a random diagonally-dominant sparse system in both CSR and
/// dense form.
void random_system(util::Rng& rng, std::size_t n, SparseAssembler& a,
                   numeric::Matrix& dense) {
  dense = numeric::Matrix(n, n);
  a.begin(n);
  std::vector<double> diag(n, 1e-3);
  for (int e = 0; e < static_cast<int>(4 * n); ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    if (r == c) continue;
    const double v = rng.uniform(-1.0, 1.0);
    a.add(r, c, v);
    dense(r, c) += v;
    diag[r] += std::fabs(v) + 0.1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, diag[i]);
    dense(i, i) += diag[i];
  }
  a.finish();
}

TEST(SparseFactorization, MatchesDenseLuOnRandomSystems) {
  util::Rng rng(2024);
  for (const std::size_t n : {5u, 17u, 40u, 93u}) {
    SparseAssembler a;
    numeric::Matrix dense;
    random_system(rng, n, a, dense);

    const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
    ASSERT_NE(sym, nullptr) << "n = " << n;
    SparseFactors factors;
    ASSERT_TRUE(factors.refactor(sym, a.values())) << "n = " << n;

    std::vector<double> b(n), x_sparse, x_dense;
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2.0, 2.0);
    factors.solve_into(b, x_sparse);
    numeric::DenseLu lu(dense);
    lu.solve_into(b, x_dense);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-10) << "n = " << n;
  }
}

TEST(SparseFactorization, RefactorTracksChangedValues) {
  util::Rng rng(7);
  const std::size_t n = 30;
  SparseAssembler a;
  numeric::Matrix dense;
  random_system(rng, n, a, dense);
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  SparseFactors factors;
  ASSERT_TRUE(factors.refactor(sym, a.values()));

  // Same pattern, new values (a faulted conductance): the fixed-pivot
  // numeric pass must track them exactly.
  std::vector<double> values = a.values();
  numeric::Matrix dense2 = dense;
  const std::size_t slot = 0;
  const std::size_t row = 0;
  const auto col = static_cast<std::size_t>(a.pattern().cols[slot]);
  values[slot] += 0.75;
  dense2(row, col) += 0.75;
  ASSERT_TRUE(factors.refactor(sym, values));

  std::vector<double> b(n, 1.0), x_sparse, x_dense;
  factors.solve_into(b, x_sparse);
  numeric::DenseLu lu(dense2);
  lu.solve_into(b, x_dense);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-10);
}

TEST(SparseFactorization, ComplexMatchesDenseLu) {
  using Complex = std::complex<double>;
  util::Rng rng(55);
  const std::size_t n = 24;
  numeric::ComplexSparseAssembler a;
  numeric::ComplexMatrix dense(n, n);
  std::vector<double> diag(n, 1e-3);
  a.begin(n);
  for (int e = 0; e < static_cast<int>(4 * n); ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    if (r == c) continue;
    const Complex v(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    a.add(r, c, v);
    dense(r, c) += v;
    diag[r] += std::abs(v) + 0.1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Complex v(diag[i], 0.2);
    a.add(i, i, v);
    dense(i, i) += v;
  }
  a.finish();

  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  numeric::ComplexSparseFactors factors;
  ASSERT_TRUE(factors.refactor(sym, a.values()));

  std::vector<Complex> b(n), x_sparse, x_dense;
  for (std::size_t i = 0; i < n; ++i)
    b[i] = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  factors.solve_into(b, x_sparse);
  numeric::ComplexDenseLu lu(dense);
  lu.solve_into(b, x_dense);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x_sparse[i] - x_dense[i]), 0.0, 1e-10);
}

TEST(SparseFactorization, SingularMatrixRejectedAtAnalysis) {
  SparseAssembler a;
  a.begin(3);
  a.add(0, 0, 1.0);
  a.add(1, 1, 1.0);
  // Column/row 2 is structurally present but numerically zero.
  a.add(2, 2, 0.0);
  a.finish();
  EXPECT_EQ(SparseSymbolic::analyze(a.pattern(), a.values()), nullptr);
}

TEST(SparseFactorization, ZeroDiagonalHandledByPivoting) {
  // MNA voltage-source rows: [[0, 1], [1, g]] has a structurally zero
  // diagonal and needs row pivoting in the analysis phase.
  SparseAssembler a;
  a.begin(2);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1e-3);
  a.finish();
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  SparseFactors factors;
  ASSERT_TRUE(factors.refactor(sym, a.values()));
  std::vector<double> b = {5.0, 2.0}, x;
  factors.solve_into(b, x);
  // x1 = 5 (from row 0); x0 = 2 - 1e-3 * 5.
  EXPECT_NEAR(x[1], 5.0, 1e-12);
  EXPECT_NEAR(x[0], 2.0 - 5e-3, 1e-12);
}

// ------------------------ flat refactor schedule vs left-looking loop

/// Random off-diagonal value; about one in six is exactly zero, so the
/// zero-multiplier skips of the refactor and the solve both fire.
template <typename Scalar>
Scalar random_entry(util::Rng& rng) {
  if (rng.below(6) == 0) return Scalar(0);
  if constexpr (std::is_same_v<Scalar, double>) {
    return rng.uniform(-1.0, 1.0);
  } else {
    return Scalar(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
}

/// Refactors `rounds` value sets of one random pattern (analyzed on the
/// first) with SparseFactorsT and the reference loop, and requires the
/// same outcome, the same smallest pivot and bit-identical solutions.
template <typename Scalar>
void expect_schedule_matches_reference(util::Rng& rng, std::size_t n,
                                       int rounds) {
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  for (int e = 0; e < static_cast<int>(3 * n); ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    if (r != c) entries.emplace_back(r, c);
  }
  numeric::SparseAssemblerT<Scalar> a;
  numeric::SparseFactorsT<Scalar> factors;
  testing_support::ReferenceLu<Scalar> reference;
  std::shared_ptr<const SparseSymbolic> sym;
  for (int round = 0; round < rounds; ++round) {
    a.begin(n);
    std::vector<double> diag(n, 0.5);
    for (const auto& [r, c] : entries) {
      const Scalar v = random_entry<Scalar>(rng);
      a.add(r, c, v);
      diag[r] += std::abs(v);
    }
    for (std::size_t i = 0; i < n; ++i) a.add(i, i, Scalar(diag[i]));
    a.finish();
    if (!sym) {
      sym = SparseSymbolic::analyze(a.pattern(), a.values());
      ASSERT_NE(sym, nullptr) << "n = " << n;
      EXPECT_GT(sym->factor_nnz(), a.pattern().nnz()) << "no fill, n = " << n;
      EXPECT_EQ(static_cast<std::size_t>(sym->col_slot.back()),
                sym->factor_nnz());
    }
    const bool ok = factors.refactor(sym, a.values());
    ASSERT_EQ(ok, reference.refactor(*sym, a.values(), 1e-13))
        << "n = " << n << " round " << round;
    EXPECT_EQ(factors.min_abs_pivot(), reference.min_abs_pivot);
    ASSERT_TRUE(ok);
    std::vector<Scalar> b(n), x;
    for (std::size_t i = 0; i < n; ++i) b[i] = random_entry<Scalar>(rng);
    factors.solve_into(b, x);
    EXPECT_EQ(x, reference.solve(*sym, b)) << "n = " << n << " round "
                                           << round;
  }
}

TEST(SparseSchedule, RealRefactorAndSolveBitIdenticalToReference) {
  util::Rng rng(4711);
  for (const std::size_t n : {6u, 19u, 39u, 140u})
    expect_schedule_matches_reference<double>(rng, n, 5);
}

TEST(SparseSchedule, ComplexRefactorAndSolveBitIdenticalToReference) {
  util::Rng rng(815);
  for (const std::size_t n : {6u, 24u, 77u})
    expect_schedule_matches_reference<std::complex<double>>(rng, n, 4);
}

// Rows 2 and 3 couple through [[1, 1], [1, c]], every other row is a
// lone diagonal. Minimum degree eliminates 0, 1, 4, 5, then 2, then 3,
// so factor column 5 carries the Schur complement c - 1: analyzed at
// c = 2 it is 1; refactored at c = 1 it collapses to exactly 0 there.
TEST(SparseSchedule, PivotCollapseAtTheSameColumnAsReference) {
  auto assemble = [](SparseAssembler& a, double c) {
    a.begin(6);
    for (std::size_t i : {0u, 1u, 4u, 5u}) a.add(i, i, 1.0 + i);
    a.add(2, 2, 1.0);
    a.add(2, 3, 1.0);
    a.add(3, 2, 1.0);
    a.add(3, 3, c);
    a.finish();
  };
  SparseAssembler a;
  assemble(a, 2.0);
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  const std::vector<std::int32_t> order = {0, 1, 4, 5, 2, 3};
  ASSERT_EQ(sym->qperm, order);
  assemble(a, 1.0);

  testing_support::ReferenceLu<double> reference;
  EXPECT_FALSE(reference.refactor(*sym, a.values(), 1e-13));
  EXPECT_EQ(reference.failed_column, 5);
  SparseFactors factors;
  EXPECT_FALSE(factors.refactor(sym, a.values()));
  EXPECT_FALSE(factors.valid());
  EXPECT_EQ(factors.min_abs_pivot(), 0.0);
  EXPECT_EQ(factors.min_abs_pivot(), reference.min_abs_pivot);

  // Collapse anywhere earlier would report that column's pivot: move
  // the singular block's first pivot to zero and column 4 fails.
  a.begin(6);
  for (std::size_t i : {0u, 1u, 4u, 5u}) a.add(i, i, 1.0 + i);
  a.add(2, 2, 0.0);
  a.add(2, 3, 0.0);
  a.add(3, 2, 0.0);
  a.add(3, 3, 1.0);
  a.finish();
  EXPECT_FALSE(reference.refactor(*sym, a.values(), 1e-13));
  EXPECT_EQ(reference.failed_column, 4);
  EXPECT_FALSE(factors.refactor(sym, a.values()));
  EXPECT_EQ(factors.min_abs_pivot(), reference.min_abs_pivot);
}

// ---------------------------------------------- SolverContext caching

spice::Netlist mos_array_netlist(int cells) {
  spice::Netlist n;
  const spice::MosModel model;
  n.add_vsource("VDD", "vdd", "0", spice::SourceSpec::dc(3.3));
  n.add_vsource("VREF", "tap0", "0", spice::SourceSpec::dc(1.6));
  for (int i = 0; i < cells; ++i) {
    const std::string tap = "tap" + std::to_string(i);
    const std::string out = "out" + std::to_string(i);
    n.add_resistor("RT" + std::to_string(i), tap,
                   "tap" + std::to_string(i + 1), 200.0);
    n.add_resistor("RL" + std::to_string(i), "vdd", out, 8000.0);
    n.add_mosfet("M" + std::to_string(i), spice::MosType::kNmos, out, tap,
                 "0", "0", 4e-6, 1e-6, model);
  }
  n.add_resistor("RTEND", "tap" + std::to_string(cells), "0", 100000.0);
  return n;
}

TEST(SolverContext, SymbolicAnalysisSharedAcrossSolves) {
  const spice::Netlist n = mos_array_netlist(20);
  const spice::MnaMap map(n);
  spice::SolverContext ctx;

  const auto golden = spice::dc_operating_point(n, map, {}, nullptr, &ctx);
  ASSERT_TRUE(golden.converged);
  EXPECT_TRUE(ctx.sparse_active());
  const std::size_t analyses_after_golden = ctx.symbolic_analyses();
  EXPECT_GE(analyses_after_golden, 1u);

  // Further solves of the same layout -- warm-started faulty variants
  // with value-only changes -- reuse the cached symbolic factorization.
  for (int trial = 0; trial < 4; ++trial) {
    spice::Netlist faulty = n;
    for (auto& device : faulty.devices())
      if (auto* r = std::get_if<spice::Resistor>(&device))
        if (r->name == "RL" + std::to_string(trial)) r->ohms = 50.0;
    const auto result =
        spice::dc_operating_point(faulty, map, {}, &golden.x, &ctx);
    ASSERT_TRUE(result.converged);
  }
  EXPECT_EQ(ctx.symbolic_analyses(), analyses_after_golden);

  // A bridge fault adds matrix entries (new pattern): one new analysis.
  spice::Netlist bridged = n;
  bridged.add_resistor("RBRIDGE", "out3", "out17", 10.0);
  const auto result =
      spice::dc_operating_point(bridged, map, {}, &golden.x, &ctx);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(ctx.symbolic_analyses(), analyses_after_golden);
}

TEST(SolverContext, SeededContextSkipsAnalysis) {
  const spice::Netlist n = mos_array_netlist(12);
  const spice::MnaMap map(n);
  const spice::SolverOptions opts;
  spice::SolverContext golden_ctx(opts);
  const auto golden =
      spice::dc_operating_point(n, map, {}, nullptr, &golden_ctx);
  ASSERT_TRUE(golden.converged);
  ASSERT_NE(golden_ctx.shared_symbolic(), nullptr);

  // A worker seeded with the golden symbolic factorization (the
  // campaign's per-macro context) never re-analyzes this layout.
  spice::SolverSeed seed;
  seed.options = opts;
  seed.symbolic = golden_ctx.shared_symbolic();
  spice::SolverContext worker(seed);
  const auto result = spice::dc_operating_point(n, map, {}, &golden.x, &worker);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(worker.symbolic_analyses(), 0u);
}

TEST(SolverContext, SparseMatchesDenseOnMosNetlist) {
  const spice::Netlist n = mos_array_netlist(25);
  const spice::MnaMap map(n);
  spice::SolverContext ctx;
  const auto sparse = spice::dc_operating_point(n, map, {}, nullptr, &ctx);
  ASSERT_TRUE(sparse.converged);
  EXPECT_TRUE(ctx.sparse_active());
  // Dense-LU Newton started at the sparse operating point stays on it.
  const std::vector<double> dense =
      testing_support::dense_dc_newton(n, map, sparse.x);
  ASSERT_EQ(dense.size(), sparse.x.size());
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_NEAR(dense[i], sparse.x[i], 1e-8);
}

TEST(SolverContext, LargeNetlistConvergesSparse) {
  // >= 100 unknowns: 60 cells -> ~120 nodes plus two branch currents.
  const spice::Netlist n = mos_array_netlist(60);
  const spice::MnaMap map(n);
  ASSERT_GE(map.size(), 100u);
  spice::SolverContext ctx;
  const auto result = spice::dc_operating_point(n, map, {}, nullptr, &ctx);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(ctx.sparse_active());
  // Sanity: the supply rail solves to its source value.
  EXPECT_NEAR(map.voltage(result.x, *n.find_node("vdd")), 3.3, 1e-6);
}

}  // namespace
}  // namespace dot
