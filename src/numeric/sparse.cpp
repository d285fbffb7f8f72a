#include "numeric/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/error.hpp"

namespace dot::numeric {

// ---------------------------------------------------------------------------
// SparseAssemblerT
// ---------------------------------------------------------------------------

template <typename Scalar>
void SparseAssemblerT<Scalar>::begin(std::size_t n, std::uint32_t stream_tag) {
  if (n != n_) {
    frozen_ = false;
    n_ = n;
  }
  codes_.clear();
  vals_.clear();
  pattern_reused_ = false;
  // Trusted path: the caller vouches (via a matching nonzero tag) that
  // this round's add() stream repeats the frozen one, so values scatter
  // straight into their CSR slots.
  fast_ = stream_tag != 0 && frozen_ && stream_tag == frozen_tag_;
  fast_used_ = false;
  fast_index_ = 0;
  frozen_tag_ = stream_tag;
  if (fast_) values_.assign(pattern_.cols.size(), Scalar(0));
}

template <typename Scalar>
void SparseAssemblerT<Scalar>::replay(const std::vector<std::int32_t>& src,
                                      const std::vector<Scalar>& table) {
  if (!fast_ || fast_index_ != 0 || src.size() != slot_.size())
    throw std::logic_error(
        "SparseAssemblerT: replay does not match the trusted stream");
  const std::size_t m = src.size();
  for (std::size_t p = 0; p < m; ++p)
    values_[static_cast<std::size_t>(slot_[p])] +=
        table[static_cast<std::size_t>(src[p])];
  fast_index_ = m;
}

template <typename Scalar>
void SparseAssemblerT<Scalar>::finish() {
  if (fast_) {
    if (fast_index_ != frozen_codes_.size())
      throw std::logic_error(
          "SparseAssemblerT: trusted stream length mismatch");
    fast_ = false;
    fast_used_ = true;
    pattern_reused_ = true;
    return;
  }
  const std::size_t m = codes_.size();
  if (frozen_ && codes_ == frozen_codes_) {
    pattern_reused_ = true;
  } else {
    // Sort the add() stream by code (= r*n + c, so row-major order) to
    // build the CSR pattern and the add-index -> slot map.
    std::vector<std::int32_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::int32_t a, std::int32_t b) {
                return codes_[a] < codes_[b];
              });
    pattern_.n = n_;
    pattern_.row_ptr.assign(n_ + 1, 0);
    pattern_.cols.clear();
    slot_.assign(m, -1);
    std::uint64_t prev_code = 0;
    std::int32_t slot = -1;
    for (std::int32_t i : order) {
      const std::uint64_t code = codes_[i];
      if (slot < 0 || code != prev_code) {
        prev_code = code;
        ++slot;
        pattern_.cols.push_back(static_cast<std::int32_t>(code % n_));
        ++pattern_.row_ptr[code / n_ + 1];
      }
      slot_[i] = slot;
    }
    for (std::size_t r = 0; r < n_; ++r)
      pattern_.row_ptr[r + 1] += pattern_.row_ptr[r];
    frozen_codes_ = codes_;
    frozen_ = true;
  }
  values_.assign(pattern_.cols.size(), Scalar(0));
  for (std::size_t i = 0; i < m; ++i) values_[slot_[i]] += vals_[i];
}

// ---------------------------------------------------------------------------
// Minimum-degree ordering
// ---------------------------------------------------------------------------

std::vector<std::int32_t> minimum_degree_order(const CsrPattern& pattern) {
  const std::int32_t n = static_cast<std::int32_t>(pattern.n);
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1];
         ++idx) {
      const std::int32_t c = pattern.cols[idx];
      if (c == r) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<char> alive(n, 1);
  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<std::int32_t> merged;
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t best = -1;
    std::size_t best_degree = std::numeric_limits<std::size_t>::max();
    for (std::int32_t v = 0; v < n; ++v) {
      if (alive[v] && adj[v].size() < best_degree) {
        best = v;
        best_degree = adj[v].size();
      }
    }
    order.push_back(best);
    alive[best] = 0;
    const std::vector<std::int32_t> clique = std::move(adj[best]);
    adj[best] = {};
    // Eliminating `best` joins its neighbors into a clique:
    // adj[u] := (adj[u] | clique) \ {u, best} for each neighbor u.
    for (std::int32_t u : clique) {
      merged.clear();
      const auto& a = adj[u];
      std::size_t ia = 0, ic = 0;
      while (ia < a.size() || ic < clique.size()) {
        std::int32_t v;
        if (ic == clique.size() || (ia < a.size() && a[ia] <= clique[ic])) {
          v = a[ia];
          if (ic < clique.size() && clique[ic] == v) ++ic;
          ++ia;
        } else {
          v = clique[ic++];
        }
        if (v != u && v != best) merged.push_back(v);
      }
      adj[u] = merged;
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// SparseSymbolic::analyze -- Gilbert-Peierls left-looking LU with
// threshold partial pivoting, recording structure and pivots.
// ---------------------------------------------------------------------------

template <typename Scalar>
std::shared_ptr<const SparseSymbolic> SparseSymbolic::analyze(
    const CsrPattern& pattern, const std::vector<Scalar>& values,
    double pivot_epsilon, double diag_preference) {
  const std::int32_t n = static_cast<std::int32_t>(pattern.n);
  if (values.size() != pattern.nnz())
    throw std::invalid_argument("SparseSymbolic::analyze: values/pattern size");

  auto sym = std::make_shared<SparseSymbolic>();
  sym->pattern = pattern;
  sym->qperm = minimum_degree_order(pattern);
  sym->pinv.assign(n, -1);
  sym->pivrow.assign(n, -1);

  // CSC view of the pattern with the map back into CSR value slots.
  // Scanning CSR rows in order leaves every CSC column sorted by row.
  sym->csc_ptr.assign(n + 1, 0);
  for (std::int32_t c : pattern.cols) ++sym->csc_ptr[c + 1];
  for (std::int32_t c = 0; c < n; ++c) sym->csc_ptr[c + 1] += sym->csc_ptr[c];
  sym->csc_rows.resize(pattern.nnz());
  sym->csc_csr.resize(pattern.nnz());
  {
    std::vector<std::int32_t> next(sym->csc_ptr.begin(),
                                   sym->csc_ptr.end() - 1);
    for (std::int32_t r = 0; r < n; ++r) {
      for (std::int32_t idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1];
           ++idx) {
        const std::int32_t c = pattern.cols[idx];
        sym->csc_rows[next[c]] = r;
        sym->csc_csr[next[c]] = idx;
        ++next[c];
      }
    }
  }

  sym->topo_ptr.assign(1, 0);
  sym->l_ptr.assign(1, 0);
  sym->u_ptr.assign(1, 0);

  std::vector<Scalar> x(n, Scalar(0));
  std::vector<Scalar> l_vals;  // numeric L, aligned with sym->l_rows
  std::vector<std::int32_t> mark(n, -1);
  std::vector<std::int32_t> post, stack, child;

  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t col = sym->qperm[j];
    post.clear();

    // Reach of A(:,col) through the computed L columns; post-order DFS,
    // reversed below, gives the topological elimination order.
    for (std::int32_t idx = sym->csc_ptr[col]; idx < sym->csc_ptr[col + 1];
         ++idx) {
      const std::int32_t r0 = sym->csc_rows[idx];
      if (mark[r0] == j) continue;
      mark[r0] = j;
      stack.assign(1, r0);
      child.assign(1, sym->pinv[r0] >= 0 ? sym->l_ptr[sym->pinv[r0]] : 0);
      while (!stack.empty()) {
        const std::int32_t node = stack.back();
        const std::int32_t k = sym->pinv[node];
        bool descended = false;
        if (k >= 0) {
          std::int32_t ci = child.back();
          const std::int32_t end = sym->l_ptr[k + 1];
          while (ci < end) {
            const std::int32_t rr = sym->l_rows[ci++];
            if (mark[rr] != j) {
              mark[rr] = j;
              child.back() = ci;
              stack.push_back(rr);
              child.push_back(sym->pinv[rr] >= 0 ? sym->l_ptr[sym->pinv[rr]]
                                                 : 0);
              descended = true;
              break;
            }
          }
          if (!descended) child.back() = ci;
        }
        if (!descended) {
          post.push_back(node);
          stack.pop_back();
          child.pop_back();
        }
      }
    }

    // Numeric column: scatter A(:,col), eliminate in topological order.
    for (std::int32_t r : post) x[r] = Scalar(0);
    for (std::int32_t idx = sym->csc_ptr[col]; idx < sym->csc_ptr[col + 1];
         ++idx)
      x[sym->csc_rows[idx]] = values[sym->csc_csr[idx]];
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      const std::int32_t k = sym->pinv[r];
      if (k < 0) continue;
      const Scalar xr = x[r];
      if (xr == Scalar(0)) continue;
      for (std::int32_t li = sym->l_ptr[k]; li < sym->l_ptr[k + 1]; ++li)
        x[sym->l_rows[li]] -= l_vals[li] * xr;
    }

    // Threshold partial pivoting: largest candidate wins, but the
    // diagonal is kept when it is within diag_preference of the max
    // (stability without gratuitous permutation churn). Candidate scan
    // runs in topological order so ties break deterministically.
    double max_mag = 0.0;
    std::int32_t piv = -1;
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      if (sym->pinv[r] >= 0) continue;
      const double mag = std::abs(x[r]);
      if (mag > max_mag) {
        max_mag = mag;
        piv = r;
      }
    }
    if (piv < 0 || max_mag <= pivot_epsilon) return nullptr;
    if (mark[col] == j && sym->pinv[col] < 0 &&
        std::abs(x[col]) >= diag_preference * max_mag)
      piv = col;
    sym->pinv[piv] = j;
    sym->pivrow[j] = piv;
    const Scalar inv_piv = Scalar(1) / x[piv];

    // Record the column structure (topological order for determinism).
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      sym->topo_rows.push_back(r);
      if (r == piv) continue;
      const std::int32_t k = sym->pinv[r];
      if (k >= 0 && k < j) {
        sym->u_rows.push_back(r);
        sym->u_pos.push_back(k);
      } else {
        sym->l_rows.push_back(r);
        l_vals.push_back(x[r] * inv_piv);
      }
    }
    sym->topo_ptr.push_back(static_cast<std::int32_t>(sym->topo_rows.size()));
    sym->l_ptr.push_back(static_cast<std::int32_t>(sym->l_rows.size()));
    sym->u_ptr.push_back(static_cast<std::int32_t>(sym->u_rows.size()));
  }
  sym->compile_schedule();
  return sym;
}

void SparseSymbolic::compile_schedule() {
  const std::int32_t n = static_cast<std::int32_t>(pattern.n);
  col_slot.assign(1, 0);
  piv_slot.clear();
  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t base = col_slot.back();
    piv_slot.push_back(base + u_ptr[j + 1] - u_ptr[j]);
    col_slot.push_back(piv_slot.back() + 1 + l_ptr[j + 1] - l_ptr[j]);
  }
  l_pos.resize(l_rows.size());
  for (std::size_t li = 0; li < l_rows.size(); ++li)
    l_pos[li] = pinv[l_rows[li]];
  a_slot.assign(pattern.nnz(), -1);
  fill_slots.clear();
  upd_ptr.assign(1, 0);
  upd_src.clear();
  upd_l.clear();
  op_ptr.assign(1, 0);
  op_dst.clear();

  // slot[r]: the slot row r occupies in the column being compiled (every
  // row of a column's reach is exactly one of its U, pivot or L entries).
  std::vector<std::int32_t> slot(n, -1);
  std::vector<char> from_a(n, 0);
  for (std::int32_t j = 0; j < n; ++j) {
    for (std::int32_t ui = u_ptr[j]; ui < u_ptr[j + 1]; ++ui)
      slot[u_rows[ui]] = col_slot[j] + ui - u_ptr[j];
    slot[pivrow[j]] = piv_slot[j];
    for (std::int32_t li = l_ptr[j]; li < l_ptr[j + 1]; ++li)
      slot[l_rows[li]] = piv_slot[j] + 1 + li - l_ptr[j];

    const std::int32_t col = qperm[j];
    for (std::int32_t idx = csc_ptr[col]; idx < csc_ptr[col + 1]; ++idx) {
      a_slot[csc_csr[idx]] = slot[csc_rows[idx]];
      from_a[csc_rows[idx]] = 1;
    }
    for (std::int32_t t = topo_ptr[j]; t < topo_ptr[j + 1]; ++t) {
      const std::int32_t r = topo_rows[t];
      if (!from_a[r]) fill_slots.push_back(slot[r]);
    }
    for (std::int32_t idx = csc_ptr[col]; idx < csc_ptr[col + 1]; ++idx)
      from_a[csc_rows[idx]] = 0;

    // The left-looking updates in topological order: every row already
    // pivoted at an earlier column k carries U(k, j) and subtracts L's
    // column k, scaled by it, from the rest of the reach.
    for (std::int32_t t = topo_ptr[j]; t < topo_ptr[j + 1]; ++t) {
      const std::int32_t r = topo_rows[t];
      const std::int32_t k = pinv[r];
      if (k >= j) continue;
      upd_src.push_back(slot[r]);
      upd_l.push_back(piv_slot[k] + 1);
      for (std::int32_t li = l_ptr[k]; li < l_ptr[k + 1]; ++li)
        op_dst.push_back(slot[l_rows[li]]);
      op_ptr.push_back(static_cast<std::int32_t>(op_dst.size()));
    }
    upd_ptr.push_back(static_cast<std::int32_t>(upd_src.size()));
  }
}

// ---------------------------------------------------------------------------
// SparseFactorsT
// ---------------------------------------------------------------------------

template <typename Scalar>
bool SparseFactorsT<Scalar>::refactor(
    const std::shared_ptr<const SparseSymbolic>& symbolic,
    const std::vector<Scalar>& csr_values, double pivot_epsilon) {
  const SparseSymbolic& s = *symbolic;
  const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
  if (csr_values.size() != s.pattern.nnz())
    throw std::invalid_argument("SparseFactorsT::refactor: values size");

  ws_.resize(s.factor_nnz());
  z_.resize(static_cast<std::size_t>(n));
  Scalar* const ws = ws_.data();
  min_abs_pivot_ = n > 0 ? std::numeric_limits<double>::infinity() : 0.0;

  for (const std::int32_t slot : s.fill_slots) ws[slot] = Scalar(0);
  const std::size_t nnz = csr_values.size();
  for (std::size_t idx = 0; idx < nnz; ++idx)
    ws[s.a_slot[idx]] = csr_values[idx];

  const std::int32_t* const op_dst = s.op_dst.data();
  for (std::int32_t j = 0; j < n; ++j) {
    for (std::int32_t u = s.upd_ptr[j]; u < s.upd_ptr[j + 1]; ++u) {
      const Scalar xr = ws[s.upd_src[u]];
      if (xr == Scalar(0)) continue;
      const std::int32_t to_l = s.upd_l[u] - s.op_ptr[u];
      for (std::int32_t o = s.op_ptr[u]; o < s.op_ptr[u + 1]; ++o)
        ws[op_dst[o]] -= ws[o + to_l] * xr;
    }
    const std::int32_t pslot = s.piv_slot[j];
    const Scalar piv = ws[pslot];
    const double mag = std::abs(piv);
    if (mag <= pivot_epsilon) {
      symbolic_.reset();
      min_abs_pivot_ = mag;
      return false;
    }
    min_abs_pivot_ = std::min(min_abs_pivot_, mag);
    const Scalar inv_piv = Scalar(1) / piv;
    for (std::int32_t slot = pslot + 1; slot < s.col_slot[j + 1]; ++slot)
      ws[slot] = ws[slot] * inv_piv;
  }
  if (symbolic_ != symbolic) symbolic_ = symbolic;
  return true;
}

template <typename Scalar>
void SparseFactorsT<Scalar>::solve_into(const std::vector<Scalar>& b,
                                        std::vector<Scalar>& x) {
  if (!symbolic_)
    throw util::ConvergenceError(
        "SparseFactorsT::solve_into: no valid factorization");
  const SparseSymbolic& s = *symbolic_;
  const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
  if (b.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("SparseFactorsT::solve_into: rhs size");

  // Substitution in pivot space (y[k] is row pivrow[k]): the same
  // operations as in original-row space, with one indirection less.
  const Scalar* const ws = ws_.data();
  Scalar* const y = z_.data();
  for (std::int32_t j = 0; j < n; ++j) y[j] = b[s.pivrow[j]];
  // Forward substitution L z = P b.
  for (std::int32_t j = 0; j < n; ++j) {
    const Scalar yj = y[j];
    if (yj == Scalar(0)) continue;
    const Scalar* const l = ws + s.piv_slot[j] + 1 - s.l_ptr[j];
    for (std::int32_t li = s.l_ptr[j]; li < s.l_ptr[j + 1]; ++li)
      y[s.l_pos[li]] -= l[li] * yj;
  }
  // Back substitution U y = z; U's off-diagonals are stored
  // column-wise with their pivot positions. y[j] becomes the solution
  // of factor column j.
  for (std::int32_t j = n - 1; j >= 0; --j) {
    const Scalar zj = y[j] / ws[s.piv_slot[j]];
    y[j] = zj;
    if (zj == Scalar(0)) continue;
    const Scalar* const u = ws + s.col_slot[j] - s.u_ptr[j];
    for (std::int32_t ui = s.u_ptr[j]; ui < s.u_ptr[j + 1]; ++ui)
      y[s.u_pos[ui]] -= u[ui] * zj;
  }
  // Undo the column permutation: factor column j is A column qperm[j].
  x.resize(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) x[s.qperm[j]] = y[j];
}

// Explicit instantiations: the real (DC/transient) and complex (AC)
// engines are the only scalar fields in the codebase.
template class SparseAssemblerT<double>;
template class SparseAssemblerT<std::complex<double>>;
template class SparseFactorsT<double>;
template class SparseFactorsT<std::complex<double>>;
template std::shared_ptr<const SparseSymbolic> SparseSymbolic::analyze<double>(
    const CsrPattern&, const std::vector<double>&, double, double);
template std::shared_ptr<const SparseSymbolic>
SparseSymbolic::analyze<std::complex<double>>(
    const CsrPattern&, const std::vector<std::complex<double>>&, double,
    double);

}  // namespace dot::numeric
