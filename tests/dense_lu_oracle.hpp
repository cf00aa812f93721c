// Dense test oracle for the basis factorization kernel and the simplex.
//
// DenseLuOracle factorizes a basis matrix with textbook Gaussian
// elimination and partial pivoting (PB = LU, O(m³)) and solves B·x = v and
// Bᵀ·x = v from scratch. It shares no code with solver::BasisLu — no
// sparsity, no Markowitz ordering, no product-form updates — so agreement
// between the two is independent evidence that the fast path is right.
//
// basis_certificate() uses the oracle to certify an LP optimum from its
// basis alone: it re-derives x_B and the duals y from the statuses in
// LpResult::basis and measures how far the solver's reported `x`,
// `row_duals` and reduced-cost signs are from a dual-feasible vertex.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "solver/lp_model.hpp"
#include "solver/simplex.hpp"
#include "solver/sparse.hpp"

namespace ovnes::solver::oracle {

class DenseLuOracle {
 public:
  /// Factorize B from dense columns (cols[j] is column j, size cols.size()).
  /// Returns false when a pivot column is exactly zero.
  [[nodiscard]] bool factorize(const std::vector<std::vector<double>>& cols) {
    m_ = cols.size();
    lu_.assign(m_ * m_, 0.0);
    for (std::size_t c = 0; c < m_; ++c) {
      for (std::size_t r = 0; r < m_; ++r) at(r, c) = cols[c][r];
    }
    return eliminate();
  }

  /// Factorize B from CSC columns.
  [[nodiscard]] bool factorize(const SparseMatrix& basis) {
    m_ = static_cast<std::size_t>(basis.outer());
    lu_.assign(m_ * m_, 0.0);
    for (int c = 0; c < basis.outer(); ++c) {
      for (int p = basis.begin(c); p < basis.end(c); ++p) {
        const auto pp = static_cast<std::size_t>(p);
        at(static_cast<std::size_t>(basis.ind[pp]),
           static_cast<std::size_t>(c)) = basis.val[pp];
      }
    }
    return eliminate();
  }

  /// x with B·x = v.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& v) const {
    std::vector<double> x(m_);
    for (std::size_t i = 0; i < m_; ++i) x[i] = v[perm_[i]];
    for (std::size_t i = 0; i < m_; ++i) {  // L (unit diagonal)
      for (std::size_t k = 0; k < i; ++k) x[i] -= at(i, k) * x[k];
    }
    for (std::size_t i = m_; i-- > 0;) {  // U
      for (std::size_t k = i + 1; k < m_; ++k) x[i] -= at(i, k) * x[k];
      x[i] /= at(i, i);
    }
    return x;
  }

  /// x with Bᵀ·x = v.
  [[nodiscard]] std::vector<double> solve_transpose(
      const std::vector<double>& v) const {
    // Bᵀ = Uᵀ·Lᵀ·P: solve Uᵀz = v, then Lᵀw = z, then x = Pᵀw.
    std::vector<double> w = v;
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t k = 0; k < i; ++k) w[i] -= at(k, i) * w[k];
      w[i] /= at(i, i);
    }
    for (std::size_t i = m_; i-- > 0;) {
      for (std::size_t k = i + 1; k < m_; ++k) w[i] -= at(k, i) * w[k];
    }
    std::vector<double> x(m_);
    for (std::size_t i = 0; i < m_; ++i) x[perm_[i]] = w[i];
    return x;
  }

 private:
  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return lu_[r * m_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return lu_[r * m_ + c];
  }

  /// In-place PB = LU; row i of the factors holds original row perm_[i].
  [[nodiscard]] bool eliminate() {
    perm_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < m_; ++k) {
      std::size_t p = k;
      for (std::size_t r = k + 1; r < m_; ++r) {
        if (std::abs(at(r, k)) > std::abs(at(p, k))) p = r;
      }
      if (at(p, k) == 0.0) return false;
      if (p != k) {
        for (std::size_t c = 0; c < m_; ++c) std::swap(at(p, c), at(k, c));
        std::swap(perm_[p], perm_[k]);
      }
      for (std::size_t r = k + 1; r < m_; ++r) {
        const double f = at(r, k) / at(k, k);
        at(r, k) = f;
        if (f == 0.0) continue;
        for (std::size_t c = k + 1; c < m_; ++c) at(r, c) -= f * at(k, c);
      }
    }
    return true;
  }

  std::size_t m_ = 0;
  std::vector<double> lu_;  ///< m×m row-major: L strictly below, U on/above
  std::vector<std::size_t> perm_;
};

/// Worst deviations of an Optimal LpResult from the vertex its basis
/// describes. All three are zero up to round-off for a correct optimum.
struct CertificateErrors {
  bool factorized = false;       ///< the basis matrix was nonsingular
  double primal = 0.0;           ///< max |x − x re-derived from the basis|
  double dual = 0.0;             ///< max |row_duals − B⁻ᵀc_B|
  double dual_infeasible = 0.0;  ///< worst reduced cost on the wrong side
};

/// Certify `res` against `model` from res.basis alone (see file comment).
/// Slack i is the column e_i of A·x + s = b; its bounds encode the row
/// sense (≤: s ≥ 0, ≥: s ≤ 0, =: s = 0), matching the simplex.
[[nodiscard]] inline CertificateErrors basis_certificate(const LpModel& model,
                                                         const LpResult& res) {
  using std::size_t;
  CertificateErrors err;
  const Basis& basis = res.basis;
  if (basis.num_vars != model.num_vars() ||
      basis.num_rows != model.num_rows()) {
    return err;
  }
  const auto n = static_cast<size_t>(model.num_vars());
  const auto m = static_cast<size_t>(model.num_rows());

  // Dense columns of [A | I] and each column's bounds.
  std::vector<std::vector<double>> col(n + m, std::vector<double>(m, 0.0));
  std::vector<double> lo(n + m), hi(n + m), cost(n + m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const RowView row = model.row(static_cast<int>(i));
    for (const Coef& c : row.coefs) {
      col[static_cast<size_t>(c.var)][i] += c.value;
    }
    col[n + i][i] = 1.0;
    lo[n + i] = row.sense == RowSense::GreaterEq ? -kInf : 0.0;
    hi[n + i] = row.sense == RowSense::LessEq ? kInf : 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(static_cast<int>(j));
    lo[j] = v.lower;
    hi[j] = v.upper;
    cost[j] = v.cost;
  }

  // B from the basic columns; rhs = b − N·x_N with each nonbasic column
  // at the bound its status names.
  std::vector<size_t> basic;
  std::vector<std::vector<double>> bcols;
  std::vector<double> x(n + m, 0.0);
  std::vector<double> rhs(m);
  for (size_t i = 0; i < m; ++i) rhs[i] = model.row(static_cast<int>(i)).rhs;
  for (size_t j = 0; j < n + m; ++j) {
    const Basis::Status st = basis.status[j];
    if (st == Basis::Status::Basic) {
      basic.push_back(j);
      bcols.push_back(col[j]);
      continue;
    }
    x[j] = st == Basis::Status::AtUpper ? hi[j] : lo[j];
    for (size_t i = 0; i < m; ++i) rhs[i] -= col[j][i] * x[j];
  }
  if (basic.size() != m) return err;
  DenseLuOracle oracle;
  if (!oracle.factorize(bcols)) return err;
  err.factorized = true;

  // Primal: x_B = B⁻¹·rhs.
  const std::vector<double> xb = oracle.solve(rhs);
  for (size_t k = 0; k < m; ++k) x[basic[k]] = xb[k];
  for (size_t j = 0; j < n; ++j) {
    err.primal = std::max(err.primal, std::abs(x[j] - res.x[j]));
  }

  // Dual: Bᵀy = c_B.
  std::vector<double> cb(m);
  for (size_t k = 0; k < m; ++k) cb[k] = cost[basic[k]];
  const std::vector<double> y = oracle.solve_transpose(cb);
  for (size_t i = 0; i < m; ++i) {
    err.dual = std::max(err.dual, std::abs(y[i] - res.row_duals[i]));
  }

  // Reduced costs d_j = c_j − yᵀa_j must not price any nonbasic column
  // into the basis: d ≥ 0 at a lower bound, d ≤ 0 at an upper bound.
  for (size_t j = 0; j < n + m; ++j) {
    const Basis::Status st = basis.status[j];
    if (st == Basis::Status::Basic || lo[j] == hi[j]) continue;
    double d = cost[j];
    for (size_t i = 0; i < m; ++i) d -= y[i] * col[j][i];
    const double wrong = st == Basis::Status::AtUpper ? d : -d;
    err.dual_infeasible = std::max(err.dual_infeasible, wrong);
  }
  return err;
}

}  // namespace ovnes::solver::oracle
