#include "solver/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "solver/basis_lu.hpp"
#include "solver/sparse.hpp"

namespace ovnes::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterationLimit: return "iteration_limit";
    case LpStatus::InvalidBasis: return "invalid_basis";
  }
  return "unknown";
}

namespace {

enum class VarStatus : unsigned char { Basic, AtLower, AtUpper };

/// Internal solver state over the equality system  A x + I s = b  where the
/// column space is [structural | slacks | artificials].
class Simplex {
 public:
  Simplex(const LpModel& model, const SimplexOptions& opts,
          const Basis* warm = nullptr, BasisFactors* kept = nullptr)
      : model_(model), opts_(opts), warm_(warm), kept_(kept),
        m_(model.num_rows()), n_(model.num_vars()) {
    build_core();
  }

  LpResult run() {
    LpResult res = run_impl();
    res.used_kept_factors = adopted_kept_;
    if (kept_ != nullptr) {
      // Hand the kernel back on every exit. The slot order is trustworthy
      // only after an Optimal solve that produced a basis snapshot (no
      // artificial basic): anything else — Infeasible, a limit hit, a stale
      // warm basis — leaves factors the next solve must not adopt, so only
      // the allocation is recycled.
      kept_->basis_order.clear();
      // Lean handback: past half the update budget, fold the eta/border
      // file into fresh LU factors now rather than dragging it through
      // every FTRAN/BTRAN of the next solve's pivots. Amortized this is
      // one factorization per ~budget/2 updates — the same rate the
      // in-loop eta limit would force, but the next re-solve starts lean.
      // A singular refactorization of a basis that just solved to
      // optimality means the factors have drifted badly; hand back only
      // the allocation then too.
      if (res.status == LpStatus::Optimal && !res.basis.empty() && m_ > 0 &&
          (2 * kernel_.updates_since_factorize() < kernel_max_updates_ ||
           factorize_current_basis())) {
        kept_->basis_order = basis_;
        kept_->num_vars = n_;
        kept_->num_rows = m_;
      }
    }
    res.refactorizations = refactorizations_;
    // Per-solve kernel counters: diff against the entry snapshot (a kept
    // kernel accumulates across session solves).
    const KernelStats ks = kernel_.stats();
    res.factor_nnz = ks.factor_nnz;
    res.fill_ratio = ks.fill_ratio;
    res.kernel_solves = ks.solves - kstats0_.solves;
    res.hypersparse_hits = ks.hypersparse_hits - kstats0_.hypersparse_hits;
    res.reorderings = static_cast<int>(ks.reorderings - kstats0_.reorderings);
    if (kept_ != nullptr) kept_->kernel = std::move(kernel_);
    return res;
  }

 private:
  LpResult run_impl() {
    LpResult res;
    // A warm basis snapshot referencing rows or variables beyond the
    // model's current dimensions is a stale handle (the model was
    // truncated since the snapshot): report it instead of silently
    // repairing from garbage statuses.
    if (warm_ != nullptr && !warm_->empty() &&
        (warm_->num_rows > m_ || warm_->num_vars > n_)) {
      res.status = LpStatus::InvalidBasis;
      return res;
    }
    if (m_ == 0) return solve_unconstrained();

    // ---- Warm start: adopt the supplied basis when it factorizes and any
    // primal infeasibility (appended cut rows, branched bounds) is small
    // enough to repair. With allow_dual the dual simplex restores
    // feasibility first (the cut case: dual-feasible, primal-infeasible);
    // otherwise — or when the dual path declines — targeted artificials
    // plus a short Phase 1 do.
    int warm_swaps = -1;
    bool dual_done = false;
    bool kernel_broken = false;
    if (warm_ != nullptr && !warm_->empty() && try_warm_basis(*warm_)) {
      if (opts_.allow_dual) {
        const int before = res.iterations;
        switch (dual_restore(res.iterations)) {
          case DualOutcome::Restored:
            dual_done = true;
            warm_swaps = 0;
            res.used_dual_simplex = res.iterations > before;
            break;
          case DualOutcome::NotDualFeasible:
            // Untouched basis (only duals were priced); hand it to the
            // artificial-repair path with the artificials' bounds restored.
            unfreeze_artificials();
            break;
          case DualOutcome::Abandoned:
            // The dual loop stopped on a failed refactorization (kernel
            // unusable), on a pivot still tiny after a fresh one, on an
            // empty ratio test or at the pivot budget. Re-factorize from
            // the (still valid, possibly dual-advanced) basis before the
            // repair path touches it, and cold-start when even that fails.
            unfreeze_artificials();
            if (factorize_current_basis()) {
              refresh_basics();
            } else {
              kernel_broken = true;
            }
            break;
        }
      }
      if (!dual_done && !kernel_broken) {
        warm_swaps = repair_infeasible_basics();
      }
    }
    const bool warm_ok = warm_swaps >= 0;
    if (!warm_ok) install_artificial_basis();
    res.used_warm_start = warm_ok;

    if (!warm_ok || warm_swaps > 0) {
      // ---- Phase 1: minimize sum of artificials. From a repaired warm
      // basis only the swapped-in artificials are positive, so this is a
      // handful of pivots instead of ~m of them.
      if (warm_ok) freeze_nonbasic_artificials();
      set_phase1_costs();
      const LpStatus p1 = iterate(res.iterations);
      if (p1 == LpStatus::IterationLimit) {
        res.status = p1;
        return res;
      }
      // Phase-1 objective = sum of artificial values, each normalized by its
      // own row's magnitude. (A single huge-capacity row — e.g. the 1e7 Mb/s
      // virtual WAN link — must not inflate the tolerance for other rows.)
      double infeas = 0.0;
      for (int i = 0; i < m_; ++i) {
        const int v = basis_[static_cast<size_t>(i)];
        if (is_artificial(v)) {
          const double scale = 1.0 + std::abs(b_[static_cast<size_t>(v - n_ - m_)]);
          infeas += std::abs(xb_[static_cast<size_t>(i)]) / scale;
        }
      }
      if (infeas > opts_.feas_tol) {
        res.status = LpStatus::Infeasible;
        compute_duals();
        res.farkas_ray.assign(static_cast<size_t>(m_), 0.0);
        for (int i = 0; i < m_; ++i) {
          res.farkas_ray[static_cast<size_t>(i)] = -y_[static_cast<size_t>(i)];
        }
        return res;
      }
      if (!drive_out_artificials()) {
        res.status = LpStatus::IterationLimit;
        return res;
      }
    } else {
      // Warm basis already primal feasible: Phase 1 skipped entirely.
      freeze_nonbasic_artificials();
    }

    // ---- Phase 2: original costs; artificials frozen at zero.
    set_phase2_costs();
    const LpStatus p2 = iterate(res.iterations);
    if (p2 != LpStatus::Optimal) {
      res.status = p2;
      return res;
    }

    res.status = LpStatus::Optimal;
    extract_solution(res);
    return res;
  }

  [[nodiscard]] bool is_artificial(int j) const { return j >= n_ + m_; }

  [[nodiscard]] double lower(int j) const { return lb_[static_cast<size_t>(j)]; }
  [[nodiscard]] double upper(int j) const { return ub_[static_cast<size_t>(j)]; }

  /// Dense column j of the equality system.
  void load_column(int j, std::vector<double>& col) const {
    std::fill(col.begin(), col.end(), 0.0);
    if (j < n_) {
      for (int p = acsc_.begin(j); p < acsc_.end(j); ++p) {
        col[static_cast<size_t>(acsc_.ind[static_cast<size_t>(p)])] =
            acsc_.val[static_cast<size_t>(p)];
      }
    } else if (j < n_ + m_) {
      col[static_cast<size_t>(j - n_)] = 1.0;
    } else {
      col[static_cast<size_t>(j - n_ - m_)] = art_sign_[static_cast<size_t>(j - n_ - m_)];
    }
  }

  [[nodiscard]] double dot_column(int j, const std::vector<double>& y) const {
    if (j < n_) {
      double s = 0.0;
      for (int p = acsc_.begin(j); p < acsc_.end(j); ++p) {
        s += y[static_cast<size_t>(acsc_.ind[static_cast<size_t>(p)])] *
             acsc_.val[static_cast<size_t>(p)];
      }
      return s;
    }
    if (j < n_ + m_) return y[static_cast<size_t>(j - n_)];
    return y[static_cast<size_t>(j - n_ - m_)] * art_sign_[static_cast<size_t>(j - n_ - m_)];
  }

  /// galpha_ := A_structᵀ·vec gathered through the model's CSR rows,
  /// iterating only vec's nonzero rows. Row order (ascending i) matches
  /// the CSC column dot product term-for-term, so the sums round
  /// identically — this is the sparse replacement for pricing every
  /// structural column with dot_column.
  void gather_structural(const std::vector<double>& vec) {
    std::fill(galpha_.begin(), galpha_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double vi = vec[static_cast<size_t>(i)];
      if (vi == 0.0) continue;
      for (const Coef& c : model_.row(i).coefs) {
        galpha_[static_cast<size_t>(c.var)] += vi * c.value;
      }
    }
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    return status_[static_cast<size_t>(j)] == VarStatus::AtUpper ? upper(j)
                                                                 : lower(j);
  }

  /// Bounds, columns, rhs and buffers — everything except the choice of
  /// starting basis (install_artificial_basis or try_warm_basis).
  void build_core() {
    const int total = n_ + 2 * m_;
    lb_.resize(static_cast<size_t>(total));
    ub_.resize(static_cast<size_t>(total));
    cost_.assign(static_cast<size_t>(total), 0.0);
    status_.assign(static_cast<size_t>(total), VarStatus::AtLower);

    // Structural columns: one CSC view of the model's CSR rows, built with
    // a counting sort (entries within each column come out row-ascending).
    acsc_.n_inner = m_;
    acsc_.ptr.assign(static_cast<size_t>(n_) + 1, 0);
    for (int i = 0; i < m_; ++i) {
      for (const Coef& c : model_.row(i).coefs) {
        ++acsc_.ptr[static_cast<size_t>(c.var) + 1];
      }
    }
    for (int j = 0; j < n_; ++j) {
      acsc_.ptr[static_cast<size_t>(j) + 1] += acsc_.ptr[static_cast<size_t>(j)];
    }
    acsc_.ind.resize(static_cast<size_t>(acsc_.ptr[static_cast<size_t>(n_)]));
    acsc_.val.resize(acsc_.ind.size());
    {
      std::vector<int> next(acsc_.ptr.begin(), acsc_.ptr.end() - 1);
      for (int i = 0; i < m_; ++i) {
        for (const Coef& c : model_.row(i).coefs) {
          const auto pos = static_cast<size_t>(next[static_cast<size_t>(c.var)]++);
          acsc_.ind[pos] = i;
          acsc_.val[pos] = c.value;
        }
      }
    }
    for (int j = 0; j < n_; ++j) {
      const Variable& v = model_.variable(j);
      lb_[static_cast<size_t>(j)] = v.lower;
      ub_[static_cast<size_t>(j)] = v.upper;
      status_[static_cast<size_t>(j)] =
          std::isfinite(v.lower) ? VarStatus::AtLower : VarStatus::AtUpper;
    }
    // Slack bounds encode row sense.
    b_.resize(static_cast<size_t>(m_));
    bnorm_ = 0.0;
    for (int i = 0; i < m_; ++i) {
      const RowView r = model_.row(i);
      b_[static_cast<size_t>(i)] = r.rhs;
      bnorm_ = std::max(bnorm_, std::abs(r.rhs));
      const int sj = n_ + i;
      switch (r.sense) {
        case RowSense::LessEq:
          lb_[static_cast<size_t>(sj)] = 0.0;
          ub_[static_cast<size_t>(sj)] = kInf;
          status_[static_cast<size_t>(sj)] = VarStatus::AtLower;
          break;
        case RowSense::GreaterEq:
          lb_[static_cast<size_t>(sj)] = -kInf;
          ub_[static_cast<size_t>(sj)] = 0.0;
          status_[static_cast<size_t>(sj)] = VarStatus::AtUpper;
          break;
        case RowSense::Equal:
          lb_[static_cast<size_t>(sj)] = 0.0;
          ub_[static_cast<size_t>(sj)] = 0.0;
          status_[static_cast<size_t>(sj)] = VarStatus::AtLower;
          break;
      }
    }

    art_sign_.assign(static_cast<size_t>(m_), 1.0);
    basis_.resize(static_cast<size_t>(m_));
    xb_.resize(static_cast<size_t>(m_));
    BasisKernelOptions kopts;
    kopts.pivot_tol = opts_.pivot_tol;
    kopts.markowitz_tol = opts_.markowitz_tol;
    kopts.max_fill_ratio = opts_.max_fill_ratio;
    // Eta budget: refactorizing costs O(m^3)/k amortized while each eta adds
    // O(m) to every ftran/btran, so the break-even file length grows with m
    // (~m/2). Capping by refactor_interval bounds drift on large bases;
    // scaling down for small ones keeps tiny LPs (B&B nodes) cheap.
    kopts.max_etas =
        std::min(std::max(1, opts_.refactor_interval), std::max(8, m_ / 2));
    if (kept_ != nullptr) {
      // Kept-kernel sessions amortize refactorizations across solves, so
      // the update file gets the full break-even budget (~m/2, where the
      // per-pivot drag of one more eta equals the amortized O(m³/3)
      // refactorization) instead of the per-solve refactor_interval cap —
      // short cut-round re-solves then run refactorization-free.
      kopts.max_etas = std::max(kopts.max_etas, std::max(8, m_ / 2));
    }
    kernel_max_updates_ = kopts.max_etas;
    if (kept_ != nullptr && kept_->kernel.has_value()) {
      // Recycle the session's live kernel: its state is adopted verbatim
      // when the warm basis matches (adopt_kept_factors), and otherwise
      // the first factorize resizes it — either way the allocation and,
      // when possible, the factors survive across solves.
      kernel_ = std::move(*kept_->kernel);
      kept_->kernel.reset();
      kernel_.set_options(kopts);
    } else {
      kernel_ = BasisLu(m_, kopts);
    }
    // Snapshot the kernel's cumulative counters so this solve can report
    // its own share (a kept kernel accumulates across session solves).
    kstats0_ = kernel_.stats();
    for (int i = 0; i < m_; ++i) {
      const int aj = n_ + m_ + i;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = kInf;
    }

    y_.resize(static_cast<size_t>(m_));
    w_.resize(static_cast<size_t>(m_));
    rho_.resize(static_cast<size_t>(m_));
    galpha_.assign(static_cast<size_t>(n_), 0.0);
    alpha_.assign(static_cast<size_t>(n_), 0.0);
    amark_.assign(static_cast<size_t>(n_), 0);
  }

  /// Cold start: all-artificial basis. Also the fallback after a rejected
  /// warm basis, so any Basic marks left on non-artificials are reset to a
  /// finite bound first.
  void install_artificial_basis() {
    for (int j = 0; j < n_ + m_; ++j) {
      if (status_[static_cast<size_t>(j)] != VarStatus::Basic) continue;
      status_[static_cast<size_t>(j)] =
          std::isfinite(lower(j)) ? VarStatus::AtLower : VarStatus::AtUpper;
    }

    // Residual r = b - (A,I)·x_N with every non-artificial at its bound.
    std::vector<double> resid = b_;
    for (int j = 0; j < n_; ++j) {
      const double xv = nonbasic_value(j);
      if (xv != 0.0) {
        for (int p = acsc_.begin(j); p < acsc_.end(j); ++p) {
          resid[static_cast<size_t>(acsc_.ind[static_cast<size_t>(p)])] -=
              acsc_.val[static_cast<size_t>(p)] * xv;
        }
      }
    }
    for (int i = 0; i < m_; ++i) {
      resid[static_cast<size_t>(i)] -= nonbasic_value(n_ + i);
    }

    // Artificial basis: column i is sign(resid_i)·e_i so x_art = |resid| >= 0.
    for (int i = 0; i < m_; ++i) {
      const double s = resid[static_cast<size_t>(i)] >= 0.0 ? 1.0 : -1.0;
      art_sign_[static_cast<size_t>(i)] = s;
      const int aj = n_ + m_ + i;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = kInf;
      basis_[static_cast<size_t>(i)] = aj;
      status_[static_cast<size_t>(aj)] = VarStatus::Basic;
      xb_[static_cast<size_t>(i)] = std::abs(resid[static_cast<size_t>(i)]);
    }
    // A ±1 diagonal always factorizes.
    const bool ok = factorize_current_basis();
    assert(ok);
    (void)ok;
  }

  /// Adopt `warm`: apply its statuses (appended rows get a basic slack),
  /// factorize the implied basis, and compute x_B. Returns false — leaving
  /// statuses for install_artificial_basis to normalize — when the snapshot
  /// is incompatible or the basis matrix is singular.
  bool try_warm_basis(const Basis& warm) {
    if (warm.num_vars != n_ || warm.num_rows > m_) return false;
    if (static_cast<int>(warm.status.size()) != warm.num_vars + warm.num_rows) {
      return false;
    }
    int basics = 0;
    for (const Basis::Status s : warm.status) {
      if (s == Basis::Status::Basic) ++basics;
    }
    if (basics != warm.num_rows) return false;

    std::vector<int> cand;
    cand.reserve(static_cast<size_t>(m_));
    for (int j = 0; j < n_ + m_; ++j) {
      Basis::Status st;
      if (j < n_) {
        st = warm.status[static_cast<size_t>(j)];
      } else {
        const int i = j - n_;
        // Rows appended since the snapshot (Benders cuts) start with their
        // slack basic; the repair pass absorbs any violation.
        st = i < warm.num_rows
                 ? warm.status[static_cast<size_t>(warm.num_vars + i)]
                 : Basis::Status::Basic;
      }
      if (st == Basis::Status::Basic) {
        cand.push_back(j);
        status_[static_cast<size_t>(j)] = VarStatus::Basic;
      } else if (st == Basis::Status::AtUpper) {
        // Bounds may have moved since the snapshot; stay on a finite side.
        status_[static_cast<size_t>(j)] = std::isfinite(upper(j))
                                              ? VarStatus::AtUpper
                                              : VarStatus::AtLower;
      } else {
        status_[static_cast<size_t>(j)] = std::isfinite(lower(j))
                                              ? VarStatus::AtLower
                                              : VarStatus::AtUpper;
      }
    }
    if (static_cast<int>(cand.size()) != m_) return false;
    for (int i = 0; i < m_; ++i) {
      art_sign_[static_cast<size_t>(i)] = 1.0;
      const int aj = n_ + m_ + i;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = kInf;
      status_[static_cast<size_t>(aj)] = VarStatus::AtLower;
    }
    if (!adopt_kept_factors(warm)) {
      if (!factorize_columns(cand)) return false;
      for (int i = 0; i < m_; ++i) {
        basis_[static_cast<size_t>(i)] = cand[static_cast<size_t>(i)];
      }
    }
    refresh_basics();
    return true;
  }

  /// Adopt the session's kept factorization instead of refactorizing from
  /// the warm statuses. Valid only when the kept slot order describes
  /// exactly the warm snapshot's basic set (same vintage: equal row
  /// counts, every slot variable marked Basic, none of them a slack of a
  /// row appended since). Rows the model gained since the snapshot are
  /// absorbed as bordered updates — their slacks enter basic at the new
  /// slots, matching the statuses try_warm_basis already applied. Falls
  /// back to a full-dimension refactorization of the kept order when the
  /// kernel declines a border (update budget); returns false — leaving
  /// the caller to factorize from the candidate list — when the factors
  /// cannot be trusted at all.
  [[nodiscard]] bool adopt_kept_factors(const Basis& warm) {
    if (kept_ == nullptr || kept_->basis_order.empty()) return false;
    if (kept_->num_vars != n_ || kept_->num_rows > m_) return false;
    if (warm.num_rows != kept_->num_rows) return false;
    if (kernel_.dim() != kept_->num_rows) return false;
    const int k = kept_->num_rows;
    for (int i = 0; i < k; ++i) {
      const int v = kept_->basis_order[static_cast<size_t>(i)];
      // Appended-row slacks (j >= n_ + k) can never appear in a snapshot
      // taken at k rows; together with the Basic check and the caller's
      // total-basics count this proves the slot order and the warm basic
      // set coincide exactly.
      if (v < 0 || v >= n_ + k) return false;
      if (status_[static_cast<size_t>(v)] != VarStatus::Basic) return false;
    }
    for (int i = 0; i < k; ++i) {
      basis_[static_cast<size_t>(i)] = kept_->basis_order[static_cast<size_t>(i)];
    }
    for (int i = k; i < m_; ++i) basis_[static_cast<size_t>(i)] = n_ + i;

    if (m_ > k) {
      // Slot lookup for the border vectors: cut rows only reference
      // structural variables, and those sit in the first k slots (slots
      // k..m_-1 hold the appended rows' own slacks).
      std::vector<int> slot_of(static_cast<size_t>(n_), -1);
      for (int i = 0; i < k; ++i) {
        const int v = kept_->basis_order[static_cast<size_t>(i)];
        if (v < n_) slot_of[static_cast<size_t>(v)] = i;
      }
      std::vector<std::pair<int, double>> border;
      for (int row = k; row < m_; ++row) {
        border.clear();
        for (const Coef& c : model_.row(row).coefs) {
          const int s = slot_of[static_cast<size_t>(c.var)];
          if (s >= 0) border.emplace_back(s, c.value);
        }
        if (!kernel_.append_row(border)) {
          // Update budget exhausted: refactorize once at the full
          // dimension, keeping the kept slot order so the adoption still
          // succeeds.
          return factorize_columns(basis_);
        }
      }
    }
    adopted_kept_ = true;
    return true;
  }

  /// (Re)factorize the kernel from the given column set, staged in CSC
  /// form (O(nnz(B)) — no dense m×m buffer on the refactorization path).
  /// The staging matrix is reused across calls: cold starts and
  /// refactorizations happen once per ~refactor_interval pivots and must
  /// not churn the allocator.
  [[nodiscard]] bool factorize_columns(const std::vector<int>& cand) {
    bbuf_.clear(m_);
    for (int i = 0; i < m_; ++i) {
      const int j = cand[static_cast<size_t>(i)];
      if (j < n_) {
        for (int p = acsc_.begin(j); p < acsc_.end(j); ++p) {
          bbuf_.push(acsc_.ind[static_cast<size_t>(p)],
                     acsc_.val[static_cast<size_t>(p)]);
        }
      } else if (j < n_ + m_) {
        bbuf_.push(j - n_, 1.0);
      } else {
        bbuf_.push(j - n_ - m_, art_sign_[static_cast<size_t>(j - n_ - m_)]);
      }
      bbuf_.close_outer();
    }
    ++refactorizations_;
    return kernel_.factorize(bbuf_);
  }

  /// Refactorize from the current basis_ (after an eta-file overflow, a
  /// pivot the kernel declined, or detected drift).
  [[nodiscard]] bool factorize_current_basis() {
    return factorize_columns(basis_);
  }

  /// Restore primal feasibility of a warm basis by pivoting an artificial
  /// into every position whose basic value violates its bounds (the leaving
  /// variable parks at the violated bound). Returns the number of
  /// artificials now basic — 0 means the warm basis was already feasible —
  /// or -1 when repair failed and a cold start is required.
  int repair_infeasible_basics() {
    int swaps = 0;
    for (int guard = 0; guard < 2 * m_ + 4; ++guard) {
      int worst = -1;
      double worst_v = opts_.feas_tol;
      bool below = false;
      for (int i = 0; i < m_; ++i) {
        const int bv = basis_[static_cast<size_t>(i)];
        const double lo_v = lower(bv) - xb_[static_cast<size_t>(i)];
        const double hi_v = xb_[static_cast<size_t>(i)] - upper(bv);
        if (lo_v > worst_v) { worst_v = lo_v; worst = i; below = true; }
        if (hi_v > worst_v) { worst_v = hi_v; worst = i; below = false; }
      }
      if (worst < 0) return swaps;

      const int bv = basis_[static_cast<size_t>(worst)];
      if (is_artificial(bv)) {
        // A previously swapped-in artificial went negative: flip its column
        // sign, which negates x_B[worst] and the basis column.
        if (!flip_artificial_sign(worst, bv - n_ - m_)) return -1;
        continue;
      }

      // Entering artificial: unused row r with the best pivot magnitude
      // |(B^{-1} e_r)_worst| = row `worst` of B^{-1} at entry r, obtained
      // from one BTRAN of the unit vector e_worst.
      std::fill(w_.begin(), w_.end(), 0.0);
      w_[static_cast<size_t>(worst)] = 1.0;
      kernel_.btran(w_);
      int r = -1;
      double mag = opts_.pivot_tol;
      for (int rr = 0; rr < m_; ++rr) {
        if (status_[static_cast<size_t>(n_ + m_ + rr)] == VarStatus::Basic) continue;
        const double v = std::abs(w_[static_cast<size_t>(rr)]);
        if (v > mag) { mag = v; r = rr; }
      }
      if (r < 0) return -1;

      // w = B^{-1}·(art_sign_r·e_r), then a regular basis change.
      std::fill(w_.begin(), w_.end(), 0.0);
      w_[static_cast<size_t>(r)] = art_sign_[static_cast<size_t>(r)];
      kernel_.ftran(w_);
      status_[static_cast<size_t>(bv)] = below ? VarStatus::AtLower : VarStatus::AtUpper;
      const int aj = n_ + m_ + r;
      basis_[static_cast<size_t>(worst)] = aj;
      status_[static_cast<size_t>(aj)] = VarStatus::Basic;
      if (!kernel_.update(w_, worst) && !factorize_current_basis()) return -1;
      ++swaps;
      refresh_basics();
      if (xb_[static_cast<size_t>(worst)] < 0.0 &&
          !flip_artificial_sign(worst, r)) {
        return -1;
      }
    }
    return -1;  // did not settle; give up and cold-start
  }

  /// Negate artificial row `r`'s column sign while basic at position `pos`:
  /// B gains a -1 on that column, so x_B[pos] flips. For the kernel this is
  /// a product-form update replacing column `pos` with its own negation
  /// (w = B^{-1}·(-old col) = -e_pos). Returns false when the kernel had to
  /// refactorize and even that failed.
  [[nodiscard]] bool flip_artificial_sign(int pos, int r) {
    art_sign_[static_cast<size_t>(r)] = -art_sign_[static_cast<size_t>(r)];
    std::fill(w_.begin(), w_.end(), 0.0);
    w_[static_cast<size_t>(pos)] = -1.0;
    if (!kernel_.update(w_, pos) && !factorize_current_basis()) return false;
    xb_[static_cast<size_t>(pos)] = -xb_[static_cast<size_t>(pos)];
    return true;
  }

  /// Fix every nonbasic artificial at zero so warm-start Phase 1 prices
  /// only the artificials the repair pass actually introduced.
  void freeze_nonbasic_artificials() {
    for (int i = 0; i < m_; ++i) {
      const int aj = n_ + m_ + i;
      if (status_[static_cast<size_t>(aj)] == VarStatus::Basic) continue;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = 0.0;
    }
  }

  /// Undo freeze_nonbasic_artificials() before falling back from the dual
  /// path to artificial repair, which expects nonbasic artificials to keep
  /// their full [0, inf) range so they can be pivoted back in.
  void unfreeze_artificials() {
    for (int i = 0; i < m_; ++i) {
      const int aj = n_ + m_ + i;
      if (status_[static_cast<size_t>(aj)] == VarStatus::Basic) continue;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = kInf;
    }
  }

  enum class DualOutcome { Restored, NotDualFeasible, Abandoned };

  /// Restore primal feasibility of the adopted warm basis with dual
  /// simplex pivots: pick the leaving basic by dual steepest-edge pricing
  /// (violation²/β with Forrest–Goldfarb reference weights), price
  /// pivot row r of B^{-1}N (one BTRAN of e_r plus sparse dots), and
  /// enter the column whose reduced cost reaches zero first
  /// (bounded-variable dual ratio test) so every reduced cost stays on
  /// its feasible side. Applicable only when the basis is
  /// dual-feasible under the phase-2 costs — exactly the state a Benders
  /// cut append or a branched bound leaves behind; each pivot then makes
  /// progress on the true objective instead of an artificial surrogate.
  ///
  /// Returns Restored once every basic value is inside its bounds (the
  /// subsequent primal Phase 2 certifies optimality, normally in zero
  /// pivots), NotDualFeasible when the precondition fails, or Abandoned on
  /// numerical trouble / iteration exhaustion / a primal-infeasibility
  /// signature — callers fall back to the artificial-repair path, which
  /// also produces the Farkas certificate on genuine infeasibility.
  ///
  /// noinline: keeps this body out of run()'s inlining budget — absorbing
  /// it there measurably deoptimizes the warm-resolve glue that IS inlined
  /// into run() (~35% on BM_RefactorizeResolveLu at m = 300).
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  DualOutcome dual_restore(int& iter_count) {
    set_phase2_costs();
    freeze_nonbasic_artificials();

    // Dual-feasibility precondition over the nonbasic columns. The same
    // pass seeds the cached reduced costs, which are then maintained
    // *incrementally* per pivot (y' = y + γρ_r with γ = d_q/α_r
    // ⇒ d_j' = d_j − γα_j, using the pivot-row alphas the ratio test just
    // computed) instead of re-BTRANing the duals every iteration — the
    // classic production-solver dual loop.
    compute_duals();
    dvals_.assign(static_cast<size_t>(n_ + m_), 0.0);
    gather_structural(y_);  // galpha_[j] = y·A_j, summed like dot_column
    for (int j = 0; j < n_ + m_; ++j) {
      if (status_[static_cast<size_t>(j)] == VarStatus::Basic) continue;
      if (lower(j) == upper(j)) continue;  // fixed: any sign is dual-ok
      const double d =
          cost_[static_cast<size_t>(j)] -
          (j < n_ ? galpha_[static_cast<size_t>(j)]
                  : y_[static_cast<size_t>(j - n_)]);
      dvals_[static_cast<size_t>(j)] = d;
      if (status_[static_cast<size_t>(j)] == VarStatus::AtLower
              ? d < -opts_.opt_tol
              : d > opts_.opt_tol) {
        return DualOutcome::NotDualFeasible;
      }
    }

    // Dual steepest-edge reference weights β_i ≈ ‖e_iᵀB⁻¹‖²: initialized
    // to the reference framework (all ones) every solve and updated per
    // pivot (Forrest–Goldfarb). Inexact weights can only degrade the row
    // choice, never correctness.
    dse_.assign(static_cast<size_t>(m_), 1.0);

    // Re-seed y_ and the cached reduced costs after a refactorization or
    // refresh: the incremental updates restart from certified values.
    const auto reprice = [&] {
      compute_duals();
      gather_structural(y_);
      for (int j = 0; j < n_ + m_; ++j) {
        if (status_[static_cast<size_t>(j)] == VarStatus::Basic) continue;
        dvals_[static_cast<size_t>(j)] =
            cost_[static_cast<size_t>(j)] -
            (j < n_ ? galpha_[static_cast<size_t>(j)]
                    : y_[static_cast<size_t>(j - n_)]);
      }
    };

    int degenerate_streak = 0;
    bool bland = false;
    // A tiny FTRAN pivot gets ONE refactorize-and-retry; fresh_lu marks the
    // kernel as refactorized for that retry and clears on the next accepted
    // pivot. `iter` counts accepted pivots only, so the loop makes at most
    // one retry pass per pivot: ≤ 2·max_iterations passes in all.
    bool fresh_lu = false;
    for (int iter = 0; iter < opts_.max_iterations;) {
      // --- Leaving row: the basic whose bound violation is steepest in the
      // dual norm (violation² / β).
      int r = -1;
      double best_score = 0.0;
      bool below = false;
      for (int i = 0; i < m_; ++i) {
        const int bv = basis_[static_cast<size_t>(i)];
        const double lo_v = lower(bv) - xb_[static_cast<size_t>(i)];
        const double hi_v = xb_[static_cast<size_t>(i)] - upper(bv);
        const double viol = std::max(lo_v, hi_v);
        if (viol <= opts_.feas_tol) continue;
        const double score = viol * viol / dse_[static_cast<size_t>(i)];
        if (score > best_score) {
          best_score = score;
          r = i;
          below = lo_v > hi_v;
        }
      }
      if (r < 0) return DualOutcome::Restored;  // primal feasible

      const int leaving = basis_[static_cast<size_t>(r)];
      const double target = below ? lower(leaving) : upper(leaving);

      // --- Pivot row r of B^{-1}N (one BTRAN of e_r plus sparse dots).
      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[static_cast<size_t>(r)] = 1.0;
      kernel_.btran(rho_);

      // --- Dual ratio test. Eligible columns move x_B[r] toward the
      // violated bound when stepped in their own feasible direction;
      // among them the minimal |d_j|/|alpha_j| keeps dual feasibility.
      // Ties break toward the largest pivot magnitude (stability);
      // under Bland (degeneracy) the smallest index wins instead.
      int q = -1;
      double best_ratio = kInf;
      double best_mag = 0.0;
      // Sparse row pricing: alpha_j = ρᵀ·a_j for every column at once,
      // gathered through the model's CSR rows over ρ's nonzeros —
      // O(nnz of the rows ρ touches), not a dot product per nonbasic
      // column. Slack alphas are ρ's own entries. Gather order
      // (ascending row) matches dot_column term-for-term, and the
      // candidate scan below runs in ascending column order (structural
      // ascending, then slacks), so pivot choice — including Bland's
      // smallest-index rule — is the one a per-column dot-product scan in
      // ascending index order would make.
      scan_.clear();
      touched_.clear();
      for (int i = 0; i < m_; ++i) {
        const double ri = rho_[static_cast<size_t>(i)];
        if (ri == 0.0) continue;
        for (const Coef& c : model_.row(i).coefs) {
          if (!amark_[static_cast<size_t>(c.var)]) {
            amark_[static_cast<size_t>(c.var)] = 1;
            touched_.push_back(c.var);
          }
          alpha_[static_cast<size_t>(c.var)] += ri * c.value;
        }
      }
      // Put the touched columns in ascending order. A dense pivot row
      // (a Benders cut in the basis touches most columns) is re-listed by
      // one branch-free walk over the marks, O(n); a sparse one is
      // sorted, O(k log k). Both give the same list.
      if (touched_.size() * 16 > static_cast<size_t>(n_)) {
        touched_.resize(static_cast<size_t>(n_));
        size_t k = 0;
        for (int j = 0; j < n_; ++j) {
          touched_[k] = j;
          k += static_cast<size_t>(amark_[static_cast<size_t>(j)]);
        }
        touched_.resize(k);
      } else {
        std::sort(touched_.begin(), touched_.end());
      }
      const auto consider = [&](int j, double alpha) {
        if (status_[static_cast<size_t>(j)] == VarStatus::Basic) return;
        if (lower(j) == upper(j)) return;
        if (std::abs(alpha) <= opts_.pivot_tol) return;
        // Every nonbasic with a live pivot-row entry joins the d-update
        // set, eligible for entering or not: its reduced cost moves
        // either way when y steps along rho_.
        scan_.emplace_back(j, alpha);
        const double dir =
            status_[static_cast<size_t>(j)] == VarStatus::AtLower ? 1.0
                                                                  : -1.0;
        // x_B[r] changes by -alpha*dir*t with t >= 0: require an
        // increase when below the lower bound, a decrease when above
        // the upper.
        const double eff = alpha * dir;
        if (below ? eff >= -opts_.pivot_tol : eff <= opts_.pivot_tol) {
          return;
        }
        if (bland) {  // first (smallest) eligible index
          if (q < 0) q = j;
          return;  // keep scanning to complete the update set
        }
        const double d = dvals_[static_cast<size_t>(j)];
        const double ratio =
            std::max(0.0, dir > 0.0 ? d : -d) / std::abs(alpha);
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && std::abs(alpha) > best_mag)) {
          best_ratio = ratio;
          best_mag = std::abs(alpha);
          q = j;
        }
      };
      for (const int j : touched_) {
        consider(j, alpha_[static_cast<size_t>(j)]);
      }
      for (int i = 0; i < m_; ++i) {
        if (rho_[static_cast<size_t>(i)] == 0.0) continue;
        consider(n_ + i, rho_[static_cast<size_t>(i)]);
      }
      for (const int j : touched_) {
        alpha_[static_cast<size_t>(j)] = 0.0;
        amark_[static_cast<size_t>(j)] = 0;
      }
      if (q < 0) return DualOutcome::Abandoned;  // primal infeasible or
                                                 // numerically stuck

      // --- FTRAN the entering column and pivot at row r.
      load_column(q, w_);
      kernel_.ftran(w_);
      const double piv = w_[static_cast<size_t>(r)];
      if (std::abs(piv) <= opts_.pivot_tol) {
        // The rho-based pricing and the FTRAN disagree on the pivot. On
        // aged factors that is drift: refactorize and retry the row once.
        // On fresh factors it is not — the same row would be picked again
        // forever — so hand the basis to the artificial-repair path.
        if (fresh_lu || !factorize_current_basis()) {
          return DualOutcome::Abandoned;
        }
        fresh_lu = true;
        refresh_basics();
        reprice();
        continue;
      }
      fresh_lu = false;
      ++iter;
      ++iter_count;
      const double dirq =
          status_[static_cast<size_t>(q)] == VarStatus::AtLower ? 1.0 : -1.0;
      double t = (xb_[static_cast<size_t>(r)] - target) / (piv * dirq);
      if (!(t > 0.0)) t = 0.0;  // degenerate step (roundoff guard)

      if (t <= opts_.feas_tol) {
        if (++degenerate_streak > 2 * (m_ + 1)) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }

      // Reference-weight (Devex) update of the steepest-edge weights
      // (Forrest–Goldfarb): with α = w_ = B⁻¹a_q and pivot α_r,
      //   β_r' = max(β_r/α_r², 1),
      //   β_i' = max(β_i, (α_i/α_r)²·β_r)   for α_i ≠ 0,
      // approximating ‖e_iᵀB⁻¹‖² against the reference framework the
      // weights were last reset in — no extra FTRAN per pivot (the
      // exact update needs τ = B⁻¹ρ, a second dense solve that costs
      // more than the sharper row choice buys back; the profile shows
      // FTRANs dominating the dual loop). When the row weight outgrows
      // the framework by 1e6 the weights reset to 1 (fresh framework).
      const double beta_r = dse_[static_cast<size_t>(r)];
      const double beta_r_new = std::max(beta_r / (piv * piv), 1.0);
      if (beta_r_new > 1e6) {
        std::fill(dse_.begin(), dse_.end(), 1.0);
      } else {
        for (int i = 0; i < m_; ++i) {
          if (i == r) continue;
          const double ai = w_[static_cast<size_t>(i)];
          if (ai == 0.0) continue;
          const double ratio = ai / piv;
          const double cand_w = ratio * ratio * beta_r;
          if (cand_w > dse_[static_cast<size_t>(i)]) {
            dse_[static_cast<size_t>(i)] = cand_w;
          }
        }
        dse_[static_cast<size_t>(r)] = beta_r_new;
      }

      // Incremental dual step: y' = y + γρ_r zeroes the entering
      // column's reduced cost; every scanned nonbasic moves by −γα_j,
      // the leaving variable lands at −γ (its pivot-row alpha is 1).
      const double gamma = dvals_[static_cast<size_t>(q)] / piv;
      if (gamma != 0.0) {
        for (int i = 0; i < m_; ++i) {
          y_[static_cast<size_t>(i)] += gamma * rho_[static_cast<size_t>(i)];
        }
        for (const auto& [j, alpha] : scan_) {
          dvals_[static_cast<size_t>(j)] -= gamma * alpha;
        }
      }
      dvals_[static_cast<size_t>(leaving)] = -gamma;
      dvals_[static_cast<size_t>(q)] = 0.0;

      for (int i = 0; i < m_; ++i) {
        xb_[static_cast<size_t>(i)] -= dirq * t * w_[static_cast<size_t>(i)];
      }
      const double xq_new = nonbasic_value(q) + dirq * t;
      status_[static_cast<size_t>(leaving)] =
          below ? VarStatus::AtLower : VarStatus::AtUpper;
      basis_[static_cast<size_t>(r)] = q;
      status_[static_cast<size_t>(q)] = VarStatus::Basic;
      xb_[static_cast<size_t>(r)] = xq_new;
      if (!kernel_.update(w_, r)) {
        if (!factorize_current_basis()) return DualOutcome::Abandoned;
        refresh_basics();
        reprice();
      }

      if (iter % opts_.refresh_interval == 0) {
        // Same periodic drift control as the primal loop; also
        // re-certifies the incrementally maintained duals.
        refresh_basics();
        double drift = 0.0;
        for (int i = 0; i < m_; ++i) {
          drift = std::max(drift,
                           std::abs(xb_prev_[static_cast<size_t>(i)] -
                                    xb_[static_cast<size_t>(i)]));
        }
        if (drift > 1e-7 * (1.0 + bnorm_)) {
          if (!factorize_current_basis()) return DualOutcome::Abandoned;
          refresh_basics();
        }
        reprice();
      }
    }
    return DualOutcome::Abandoned;
  }

  void set_phase1_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int i = 0; i < m_; ++i) cost_[static_cast<size_t>(n_ + m_ + i)] = 1.0;
    phase1_ = true;
  }

  void set_phase2_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = 0; j < n_; ++j) cost_[static_cast<size_t>(j)] = model_.variable(j).cost;
    phase1_ = false;
  }

  void compute_duals() {
    // y solves B^T y = c_B  (y = c_B^T B^{-1}): one BTRAN.
    for (int k = 0; k < m_; ++k) {
      y_[static_cast<size_t>(k)] =
          cost_[static_cast<size_t>(basis_[static_cast<size_t>(k)])];
    }
    kernel_.btran(y_);
  }

  /// Recompute x_B = B^{-1}(b - N x_N) from scratch (drift control).
  /// The previous x_B is left in xb_prev_ (the two buffers swap), so
  /// drift control compares without copying.
  void refresh_basics() {
    std::vector<double>& rhs = xb_prev_;
    rhs.assign(b_.begin(), b_.end());
    for (int j = 0; j < n_ + 2 * m_; ++j) {
      if (status_[static_cast<size_t>(j)] == VarStatus::Basic) continue;
      const double xv = nonbasic_value(j);
      if (xv == 0.0) continue;
      if (j < n_) {
        for (int p = acsc_.begin(j); p < acsc_.end(j); ++p) {
          rhs[static_cast<size_t>(acsc_.ind[static_cast<size_t>(p)])] -=
              acsc_.val[static_cast<size_t>(p)] * xv;
        }
      } else if (j < n_ + m_) {
        rhs[static_cast<size_t>(j - n_)] -= xv;
      } else {
        rhs[static_cast<size_t>(j - n_ - m_)] -=
            art_sign_[static_cast<size_t>(j - n_ - m_)] * xv;
      }
    }
    kernel_.ftran(rhs);
    xb_.swap(xb_prev_);
  }

  /// Core pricing/pivot loop with the current cost vector.
  LpStatus iterate(int& iter_count) {
    int degenerate_streak = 0;
    bool bland = false;

    for (int iter = 0; iter < opts_.max_iterations; ++iter, ++iter_count) {
      compute_duals();
      // One pass over the constraint rows prices every structural column
      // at once (galpha_[j] = y·A_j); slack/artificial dots are single
      // entries of y_. Summation order matches the per-column dot, so the
      // chosen q is identical to the dense scan's.
      gather_structural(y_);

      // --- Pricing.
      int q = -1;
      double best_score = opts_.opt_tol;
      const int total = n_ + 2 * m_;
      for (int j = 0; j < total; ++j) {
        const VarStatus st = status_[static_cast<size_t>(j)];
        if (st == VarStatus::Basic) continue;
        if (lower(j) == upper(j)) continue;  // fixed
        if (!phase1_ && is_artificial(j)) continue;
        const double d =
            cost_[static_cast<size_t>(j)] -
            (j < n_     ? galpha_[static_cast<size_t>(j)]
             : j < n_ + m_
                 ? y_[static_cast<size_t>(j - n_)]
                 : y_[static_cast<size_t>(j - n_ - m_)] *
                       art_sign_[static_cast<size_t>(j - n_ - m_)]);
        double score = 0.0;
        if (st == VarStatus::AtLower && d < -opts_.opt_tol) score = -d;
        else if (st == VarStatus::AtUpper && d > opts_.opt_tol) score = d;
        else continue;
        if (bland) { q = j; break; }           // first eligible index
        if (score > best_score) { best_score = score; q = j; }
      }
      if (q < 0) return LpStatus::Optimal;  // current phase optimal

      const double dir =
          status_[static_cast<size_t>(q)] == VarStatus::AtLower ? 1.0 : -1.0;

      // --- FTRAN: w = B^{-1} A_q.
      load_column(q, w_);
      kernel_.ftran(w_);

      // --- Ratio test. Ties are normally broken toward the largest pivot
      // magnitude (numerical stability); under Bland's rule they must be
      // broken toward the smallest basis-variable index instead, or the
      // anti-cycling guarantee is void and degenerate LPs can still loop.
      const auto tie_break = [&](int i, int leave) {
        if (bland) {
          return basis_[static_cast<size_t>(i)] <
                 basis_[static_cast<size_t>(leave)];
        }
        return std::abs(w_[static_cast<size_t>(i)]) >
               std::abs(w_[static_cast<size_t>(leave)]);
      };
      double t_max = kInf;
      if (std::isfinite(lower(q)) && std::isfinite(upper(q))) {
        t_max = upper(q) - lower(q);  // bound flip distance
      }
      int leave = -1;
      VarStatus leave_to = VarStatus::AtLower;
      for (int i = 0; i < m_; ++i) {
        const double wd = dir * w_[static_cast<size_t>(i)];
        const int bv = basis_[static_cast<size_t>(i)];
        if (wd > opts_.pivot_tol) {  // basic decreases toward its lower bound
          if (std::isfinite(lower(bv))) {
            const double t = (xb_[static_cast<size_t>(i)] - lower(bv)) / wd;
            if (t < t_max - 1e-12 ||
                (t < t_max + 1e-12 && leave >= 0 && tie_break(i, leave))) {
              t_max = std::max(t, 0.0);
              leave = i;
              leave_to = VarStatus::AtLower;
            }
          }
        } else if (wd < -opts_.pivot_tol) {  // basic increases toward upper
          if (std::isfinite(upper(bv))) {
            const double t = (upper(bv) - xb_[static_cast<size_t>(i)]) / (-wd);
            if (t < t_max - 1e-12 ||
                (t < t_max + 1e-12 && leave >= 0 && tie_break(i, leave))) {
              t_max = std::max(t, 0.0);
              leave = i;
              leave_to = VarStatus::AtUpper;
            }
          }
        }
      }
      if (!std::isfinite(t_max)) return LpStatus::Unbounded;

      // Anti-cycling bookkeeping.
      if (t_max <= opts_.feas_tol) {
        if (++degenerate_streak > 2 * (m_ + 1)) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }

      // --- Apply step.
      for (int i = 0; i < m_; ++i) {
        xb_[static_cast<size_t>(i)] -= dir * t_max * w_[static_cast<size_t>(i)];
      }
      const double xq_new = nonbasic_value(q) + dir * t_max;

      if (leave < 0) {
        // Bound flip, basis unchanged.
        status_[static_cast<size_t>(q)] =
            status_[static_cast<size_t>(q)] == VarStatus::AtLower
                ? VarStatus::AtUpper
                : VarStatus::AtLower;
        continue;
      }

      // --- Pivot: hand w to the kernel as an eta. When the kernel
      // declines — eta file full or pivot too small relative to
      // ||w||_inf — refactorize from the updated basis columns instead.
      const double piv = w_[static_cast<size_t>(leave)];
      if (std::abs(piv) < opts_.pivot_tol) return LpStatus::IterationLimit;
      const int leaving_var = basis_[static_cast<size_t>(leave)];
      status_[static_cast<size_t>(leaving_var)] = leave_to;
      basis_[static_cast<size_t>(leave)] = q;
      status_[static_cast<size_t>(q)] = VarStatus::Basic;
      xb_[static_cast<size_t>(leave)] = xq_new;
      if (!kernel_.update(w_, leave)) {
        if (!factorize_current_basis()) return LpStatus::IterationLimit;
        refresh_basics();
      }

      if ((iter + 1) % opts_.refresh_interval == 0) {
        // Periodic drift control: recompute x_B from scratch and compare
        // with the incrementally updated values. Disagreement beyond
        // round-off means the factorization itself has drifted (long eta
        // chains accumulate error) — refactorize and recompute.
        refresh_basics();
        double drift = 0.0;
        for (int i = 0; i < m_; ++i) {
          drift = std::max(drift,
                           std::abs(xb_prev_[static_cast<size_t>(i)] -
                                    xb_[static_cast<size_t>(i)]));
        }
        if (drift > 1e-7 * (1.0 + bnorm_)) {
          if (!factorize_current_basis()) return LpStatus::IterationLimit;
          refresh_basics();
        }
      }
    }
    return LpStatus::IterationLimit;
  }

  /// After a successful phase 1, pivot zero-valued artificials out of the
  /// basis where possible and freeze all artificials at zero. Returns false
  /// only when a post-pivot refactorization failed (kernel unusable).
  [[nodiscard]] bool drive_out_artificials() {
    for (int i = 0; i < m_; ++i) {
      const int bv = basis_[static_cast<size_t>(i)];
      if (!is_artificial(bv)) continue;
      // Row i of B^{-1} (one BTRAN of e_i) prices every candidate column's
      // pivot element w_ij = (B^{-1} A_j)_i as a sparse dot product.
      std::fill(w_.begin(), w_.end(), 0.0);
      w_[static_cast<size_t>(i)] = 1.0;
      kernel_.btran(w_);
      int pick = -1;
      double pick_mag = 1e-7;  // require a well-conditioned pivot
      for (int j = 0; j < n_ + m_; ++j) {
        if (status_[static_cast<size_t>(j)] == VarStatus::Basic) continue;
        const double wij = dot_column(j, w_);
        if (std::abs(wij) > pick_mag) {
          pick_mag = std::abs(wij);
          pick = j;
          if (pick_mag > 0.1) break;  // good enough pivot
        }
      }
      if (pick >= 0) {
        // Degenerate pivot: artificial leaves at value 0.
        load_column(pick, w_);
        kernel_.ftran(w_);
        const double piv = w_[static_cast<size_t>(i)];
        status_[static_cast<size_t>(bv)] = VarStatus::AtLower;
        basis_[static_cast<size_t>(i)] = pick;
        status_[static_cast<size_t>(pick)] = VarStatus::Basic;
        const double keep = xb_[static_cast<size_t>(i)];
        // The artificial leaves at value `keep` (≈ 0 after a successful
        // phase 1); the entering variable moves by keep/piv off its bound.
        xb_[static_cast<size_t>(i)] = nonbasic_value(pick) + keep / piv;
        if (!kernel_.update(w_, i) && !factorize_current_basis()) {
          return false;
        }
      }
    }
    // Freeze artificials.
    for (int i = 0; i < m_; ++i) {
      const int aj = n_ + m_ + i;
      lb_[static_cast<size_t>(aj)] = 0.0;
      ub_[static_cast<size_t>(aj)] = 0.0;
    }
    refresh_basics();
    return true;
  }

  void extract_solution(LpResult& res) {
    compute_duals();
    res.x.assign(static_cast<size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      if (status_[static_cast<size_t>(j)] != VarStatus::Basic) {
        res.x[static_cast<size_t>(j)] = nonbasic_value(j);
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int bv = basis_[static_cast<size_t>(i)];
      if (bv < n_) res.x[static_cast<size_t>(bv)] = xb_[static_cast<size_t>(i)];
    }
    // Clamp round-off.
    for (int j = 0; j < n_; ++j) {
      double& v = res.x[static_cast<size_t>(j)];
      v = std::clamp(v, lower(j), upper(j));
    }
    res.objective = model_.objective_value(res.x);
    res.row_duals.assign(y_.begin(), y_.end());
    res.reduced_costs.assign(static_cast<size_t>(n_), 0.0);
    gather_structural(y_);  // galpha_[j] = y·A_j, summed like dot_column
    for (int j = 0; j < n_; ++j) {
      res.reduced_costs[static_cast<size_t>(j)] =
          cost_[static_cast<size_t>(j)] - galpha_[static_cast<size_t>(j)];
    }
    // Basis snapshot for warm starts. Unusable if an artificial is still
    // basic (redundant equality rows): the structural+slack statuses alone
    // would then not reconstruct a full basis.
    for (int i = 0; i < m_; ++i) {
      if (is_artificial(basis_[static_cast<size_t>(i)])) return;
    }
    res.basis.num_vars = n_;
    res.basis.num_rows = m_;
    res.basis.status.resize(static_cast<size_t>(n_ + m_));
    for (int j = 0; j < n_ + m_; ++j) {
      switch (status_[static_cast<size_t>(j)]) {
        case VarStatus::Basic:
          res.basis.status[static_cast<size_t>(j)] = Basis::Status::Basic;
          break;
        case VarStatus::AtLower:
          res.basis.status[static_cast<size_t>(j)] = Basis::Status::AtLower;
          break;
        case VarStatus::AtUpper:
          res.basis.status[static_cast<size_t>(j)] = Basis::Status::AtUpper;
          break;
      }
    }
  }

  LpResult solve_unconstrained() {
    LpResult res;
    res.x.assign(static_cast<size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const Variable& v = model_.variable(j);
      if (v.cost > 0.0) {
        if (!std::isfinite(v.lower)) { res.status = LpStatus::Unbounded; return res; }
        res.x[static_cast<size_t>(j)] = v.lower;
      } else if (v.cost < 0.0) {
        if (!std::isfinite(v.upper)) { res.status = LpStatus::Unbounded; return res; }
        res.x[static_cast<size_t>(j)] = v.upper;
      } else {
        res.x[static_cast<size_t>(j)] =
            std::isfinite(v.lower) ? v.lower : v.upper;
      }
    }
    res.status = LpStatus::Optimal;
    res.objective = model_.objective_value(res.x);
    return res;
  }

  const LpModel& model_;
  SimplexOptions opts_;
  const Basis* warm_ = nullptr;
  BasisFactors* kept_ = nullptr;  ///< session's live factors (in/out)
  int m_, n_;
  bool phase1_ = true;
  int refactorizations_ = 0;   ///< factorize_columns calls this run
  bool adopted_kept_ = false;  ///< kept factors adopted without refactorize
  int kernel_max_updates_ = 0;  ///< kernel's eta/border budget (lean handback)
  KernelStats kstats0_;         ///< kernel counters at solve entry (diff base)

  SparseMatrix acsc_;  ///< structural columns, CSC over the model's rows
  SparseMatrix bbuf_;  ///< factorize_columns staging (CSC basis matrix)
  std::vector<double> b_;
  double bnorm_ = 0.0;
  std::vector<double> lb_, ub_, cost_;
  std::vector<VarStatus> status_;
  std::vector<double> art_sign_;
  std::vector<int> basis_;
  std::vector<double> xb_;
  std::vector<double> xb_prev_;  ///< refresh_basics scratch: previous x_B
  BasisLu kernel_{0};  ///< LU factors + product-form updates
  std::vector<double> y_, w_;
  std::vector<double> rho_;  ///< dual pivot row buffer (B^{-T} e_r)
  std::vector<double> dse_;  ///< dual steepest-edge weights (per row slot)
  std::vector<double> dvals_;  ///< cached reduced costs (dual loop)
  std::vector<std::pair<int, double>> scan_;  ///< (j, alpha) d-update set
  std::vector<double> galpha_;  ///< Aᵀ·vec gather buffer (pricing)
  std::vector<double> alpha_;   ///< pivot-row gather accumulator (dual loop)
  std::vector<char> amark_;     ///< alpha_ touched marks
  std::vector<int> touched_;    ///< alpha_ touched structural vars
};

}  // namespace

namespace detail {

LpResult simplex_solve(const LpModel& model, const SimplexOptions& opts,
                       const Basis* warm, BasisFactors* kept) {
  return Simplex(model, opts, warm, kept).run();
}

}  // namespace detail

// The public solve_lp entry points are thin compatibility wrappers over a
// throwaway LpSession; see solver/lp_session.cpp.

}  // namespace ovnes::solver
