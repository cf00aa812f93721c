// Unit + property tests for the LP/MILP solver substrate.
//
// The simplex is validated against hand-solved LPs, degenerate/unbounded/
// infeasible corner cases, dual/Farkas certificates, and randomized
// cross-checks versus brute-force vertex enumeration. The MILP solver is
// validated against exhaustive enumeration on random knapsack-style
// problems, since the AC-RR problem is knapsack-reducible (Theorem 1).
#include <gtest/gtest.h>

#include <bitset>
#include <cmath>

#include "common/rng.hpp"
#include "solver/lp_model.hpp"
#include "solver/milp.hpp"
#include "solver/simplex.hpp"

namespace ovnes::solver {
namespace {

// ------------------------------------------------------------------ LpModel

TEST(LpModel, RejectsFreeVariable) {
  LpModel m;
  EXPECT_THROW(m.add_variable("free", -kInf, kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_variable("bad", 2.0, 1.0, 0.0), std::invalid_argument);
}

TEST(LpModel, MergesDuplicateCoefficients) {
  LpModel m;
  const int x = m.add_variable("x", 0, 10, 1.0);
  m.add_row("r", RowSense::LessEq, 5.0, {{x, 1.0}, {x, 2.0}});
  ASSERT_EQ(m.row(0).coefs.size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0).coefs[0].value, 3.0);
}

TEST(LpModel, MaxViolation) {
  LpModel m;
  const int x = m.add_variable("x", 0, 10, 1.0);
  m.add_row("r", RowSense::LessEq, 5.0, {{x, 1.0}});
  EXPECT_DOUBLE_EQ(m.max_violation({7.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({11.0}), 6.0);  // bound violation dominates
}

// ------------------------------------------------------------------ Simplex

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  => min -3x-5y, opt at (2,6), -36.
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -3.0);
  const int y = m.add_variable("y", 0, kInf, -5.0);
  m.add_row("r1", RowSense::LessEq, 4.0, {{x, 1.0}});
  m.add_row("r2", RowSense::LessEq, 12.0, {{y, 2.0}});
  m.add_row("r3", RowSense::LessEq, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 6.0, 1e-8);
}

TEST(Simplex, EqualityAndGreaterRows) {
  // min x + 2y s.t. x + y = 10, x >= 3, y >= 2   -> x=8, y=2, obj=12.
  LpModel m;
  const int x = m.add_variable("x", 3.0, kInf, 1.0);
  const int y = m.add_variable("y", 2.0, kInf, 2.0);
  m.add_row("sum", RowSense::Equal, 10.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-8);
  EXPECT_NEAR(r.x[0], 8.0, 1e-8);
}

TEST(Simplex, GreaterEqRow) {
  // min 2x + 3y s.t. x + y >= 4, x <= 3, y <= 3 -> (3,1) obj 9.
  LpModel m;
  const int x = m.add_variable("x", 0, 3, 2.0);
  const int y = m.add_variable("y", 0, 3, 3.0);
  m.add_row("cover", RowSense::GreaterEq, 4.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 9.0, 1e-8);
}

TEST(Simplex, BoundedVariablesViaBoundFlips) {
  // Pure box problem wrapped in a loose row: optimum at upper bounds.
  LpModel m;
  const int x = m.add_variable("x", 1.0, 2.0, -1.0);
  const int y = m.add_variable("y", 0.0, 3.0, -2.0);
  m.add_row("loose", RowSense::LessEq, 100.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
  EXPECT_NEAR(r.objective, -8.0, 1e-9);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x s.t. x >= -5 (box), x + y >= -2, y in [0,1].
  LpModel m;
  const int x = m.add_variable("x", -5.0, 5.0, 1.0);
  const int y = m.add_variable("y", 0.0, 1.0, 0.0);
  m.add_row("r", RowSense::GreaterEq, -2.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-8);  // x=-3, y=1
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.add_variable("x", 0, 1, 1.0);
  m.add_row("hi", RowSense::GreaterEq, 5.0, {{x, 1.0}});
  const LpResult r = solve_lp(m);
  EXPECT_EQ(r.status, LpStatus::Infeasible);
  ASSERT_EQ(r.farkas_ray.size(), 1u);
}

TEST(Simplex, FarkasRayCertifiesInfeasibility) {
  // x + y <= 2 and x + y >= 5 with x,y in [0,10]: infeasible.
  LpModel m;
  const int x = m.add_variable("x", 0, 10, 0.0);
  const int y = m.add_variable("y", 0, 10, 0.0);
  m.add_row("cap", RowSense::LessEq, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("dem", RowSense::GreaterEq, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Infeasible);
  ASSERT_EQ(r.farkas_ray.size(), 2u);
  // Sign convention: >=0 on <= rows, <=0 on >= rows.
  EXPECT_GE(r.farkas_ray[0], -1e-9);
  EXPECT_LE(r.farkas_ray[1], 1e-9);
  // The aggregate inequality sum_i r_i (a_i x) <= sum_i r_i b_i must be
  // violated by every box point; check the box minimizer of the LHS.
  const double c_x = r.farkas_ray[0] * 1.0 + r.farkas_ray[1] * 1.0;
  const double c_y = c_x;
  double lhs_min = 0.0;
  lhs_min += c_x > 0 ? 0.0 : c_x * 10.0;
  lhs_min += c_y > 0 ? 0.0 : c_y * 10.0;
  const double rhs = r.farkas_ray[0] * 2.0 + r.farkas_ray[1] * 5.0;
  EXPECT_GT(lhs_min, rhs + 1e-9);
}

TEST(Simplex, InfeasibilityNotMaskedByHugeRhsRows) {
  // Regression: the phase-1 feasibility test must normalize artificial
  // values per row. A model containing one huge-capacity row (the 1e7 Mb/s
  // virtual WAN link of the operator topologies) used to inflate the
  // global tolerance enough to accept a unit infeasibility elsewhere.
  LpModel m;
  const int x4 = m.add_variable("x4", 0.0, 0.0, 0.0);   // branched to 0
  const int x5 = m.add_variable("x5", 0.0, 1.0, -1.0);
  const int x12 = m.add_variable("x12", 1.0, 1.0, 0.0); // branched to 1
  const int big = m.add_variable("big", 0.0, kInf, 0.0);
  m.add_row("eq", RowSense::Equal, 0.0,
            {{x4, 1.0}, {x5, 1.0}, {x12, -2.0}});       // unsatisfiable
  m.add_row("wan", RowSense::LessEq, 1e7, {{big, 1.0}});
  const LpResult r = solve_lp(m);
  EXPECT_EQ(r.status, LpStatus::Infeasible);
}

TEST(Simplex, MixedScaleRowsSolveAccurately) {
  // Tiny and huge capacities in one model: the solution must respect both.
  LpModel m;
  const int a = m.add_variable("a", 0.0, kInf, -1.0);
  const int b = m.add_variable("b", 0.0, kInf, -1.0);
  m.add_row("small", RowSense::LessEq, 2.5, {{a, 1.0}});
  m.add_row("huge", RowSense::LessEq, 1e7, {{a, 1.0}, {b, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.5, 1e-6);
  EXPECT_NEAR(r.x[1], 1e7 - 2.5, 1e-3);
  EXPECT_LT(m.max_violation(r.x), 1e-6);
}

TEST(Simplex, FixedVariablesStayFixed) {
  LpModel m;
  const int x = m.add_variable("x", 3.0, 3.0, -100.0);  // fixed
  const int y = m.add_variable("y", 0.0, 10.0, -1.0);
  m.add_row("r", RowSense::LessEq, 8.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_DOUBLE_EQ(r.x[0], 3.0);
  EXPECT_NEAR(r.x[1], 5.0, 1e-8);
}

TEST(Milp, IntegralSolutionsAreAlwaysModelFeasible) {
  // Randomized regression net for the class of bug above: every incumbent
  // returned by branch-and-bound must satisfy the model it was solved on.
  RngStream rng(2024);
  for (int rep = 0; rep < 20; ++rep) {
    LpModel m;
    const int n = static_cast<int>(rng.uniform_int(4, 12));
    std::vector<Coef> cap;
    for (int j = 0; j < n; ++j) {
      m.add_binary("b" + std::to_string(j), -rng.uniform(0.5, 5.0));
      cap.push_back({j, rng.uniform(0.5, 3.0)});
    }
    // One equality coupling row + one huge row + one knapsack row.
    m.add_row("eq", RowSense::Equal, 0.0, {{0, 1.0}, {1, 1.0}, {2, -2.0}});
    const int big = m.add_variable("big", 0.0, kInf, 0.0);
    m.add_row("wan", RowSense::LessEq, 1e7, {{big, 1.0}});
    m.add_row("cap", RowSense::LessEq, rng.uniform(2.0, 8.0), cap);
    const MilpResult r = solve_milp(m);
    if (r.status == MilpStatus::Optimal || r.status == MilpStatus::Feasible) {
      EXPECT_LT(m.max_violation(r.x), 1e-5) << "rep " << rep;
    }
  }
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -1.0);
  m.add_row("r", RowSense::GreaterEq, 0.0, {{x, 1.0}});
  EXPECT_EQ(solve_lp(m).status, LpStatus::Unbounded);
}

TEST(Simplex, NoRowsBoxOptimum) {
  LpModel m;
  m.add_variable("a", 0, 4, -2.0);
  m.add_variable("b", 1, 9, 3.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -8.0 + 3.0, 1e-12);
}

TEST(Simplex, DualsOnBindingRows) {
  // min -x - y, x + 2y <= 4, 3x + y <= 6, x,y >= 0. Optimal (1.6, 1.2).
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -1.0);
  const int y = m.add_variable("y", 0, kInf, -1.0);
  m.add_row("r1", RowSense::LessEq, 4.0, {{x, 1.0}, {y, 2.0}});
  m.add_row("r2", RowSense::LessEq, 6.0, {{x, 3.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -2.8, 1e-8);
  // Duals: y = dObj/dRhs. Solve c_B = y A_B: y1 = -0.4, y2 = -0.2.
  EXPECT_NEAR(r.row_duals[0], -0.4, 1e-8);
  EXPECT_NEAR(r.row_duals[1], -0.2, 1e-8);
  // Strong duality: obj == y·b (+ bound terms, zero here since lb=0).
  EXPECT_NEAR(r.row_duals[0] * 4.0 + r.row_duals[1] * 6.0, r.objective, 1e-8);
}

TEST(Simplex, DualSignOnGreaterEqRow) {
  // min x s.t. x >= 2  -> dual dObj/dRhs = +1.
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, 1.0);
  m.add_row("r", RowSense::GreaterEq, 2.0, {{x, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.row_duals[0], 1.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple identical corners).
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -1.0);
  const int y = m.add_variable("y", 0, kInf, -1.0);
  m.add_row("r1", RowSense::LessEq, 1.0, {{x, 1.0}});
  m.add_row("r2", RowSense::LessEq, 1.0, {{x, 1.0}});
  m.add_row("r3", RowSense::LessEq, 1.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("r4", RowSense::LessEq, 1.0, {{x, 1.0}, {y, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-8);
}

TEST(Simplex, BealeCyclingLpTerminatesAtOptimum) {
  // Beale's classic cycling example: under Dantzig pricing with naive
  // tie-breaking the simplex revisits the same degenerate bases forever.
  // The anti-cycling guard (Bland's rule after a degenerate streak, with
  // Bland-consistent smallest-index tie-breaks in the ratio test) must
  // terminate at the optimum -1/20 at x = (1/25, 0, 1, 0).
  LpModel m;
  const int x1 = m.add_variable("x1", 0, kInf, -0.75);
  const int x2 = m.add_variable("x2", 0, kInf, 150.0);
  const int x3 = m.add_variable("x3", 0, kInf, -0.02);
  const int x4 = m.add_variable("x4", 0, kInf, 6.0);
  m.add_row("r1", RowSense::LessEq, 0.0,
            {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.add_row("r2", RowSense::LessEq, 0.0,
            {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.add_row("r3", RowSense::LessEq, 1.0, {{x3, 1.0}});
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-8);
  EXPECT_LT(m.max_violation(r.x), 1e-8);
}

TEST(Simplex, HighlyDegenerateTiedRowsTerminate) {
  // Many duplicated rows force ties in every ratio test; the solve must
  // still finish well inside the iteration limit.
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -1.0);
  const int y = m.add_variable("y", 0, kInf, -1.0);
  const int z = m.add_variable("z", 0, kInf, -1.0);
  for (int i = 0; i < 12; ++i) {
    m.add_row("d" + std::to_string(i), RowSense::LessEq, 2.0,
              {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  }
  SimplexOptions opts;
  opts.max_iterations = 500;
  const LpResult r = solve_lp(m, opts);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRows) {
  LpModel m;
  const int x = m.add_variable("x", 0, 10, 1.0);
  const int y = m.add_variable("y", 0, 10, 1.0);
  m.add_row("e1", RowSense::Equal, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("e2", RowSense::Equal, 12.0, {{x, 2.0}, {y, 2.0}});  // redundant
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-8);
}

// Property test: random LPs, verify primal feasibility + strong duality
// (obj == y·b + sum of bound-dual contributions, checked via the
// complementary-slackness-free identity obj == y·b + d·x_at_bounds).
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, FeasibleSolutionsAreFeasibleAndDualConsistent) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  LpModel m;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  const int rows = static_cast<int>(rng.uniform_int(1, 10));
  for (int j = 0; j < n; ++j) {
    const double lb = rng.uniform(0.0, 2.0);
    m.add_variable("x" + std::to_string(j), lb, lb + rng.uniform(0.5, 5.0),
                   rng.uniform(-3.0, 3.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coef> coefs;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.7)) coefs.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    const double rhs = rng.uniform(-5.0, 15.0);
    const auto sense = static_cast<RowSense>(rng.uniform_int(0, 2));
    m.add_row("r" + std::to_string(i), sense, rhs, std::move(coefs));
  }
  const LpResult r = solve_lp(m);
  if (r.status == LpStatus::Optimal) {
    EXPECT_LT(m.max_violation(r.x), 1e-6);
    // Strong duality identity: c·x = y·b + Σ_j d_j·x_j for x at bounds
    // (d_j = 0 for basic variables).
    double dual_obj = 0.0;
    for (int i = 0; i < m.num_rows(); ++i) {
      dual_obj += r.row_duals[static_cast<size_t>(i)] * m.row(i).rhs;
    }
    for (int j = 0; j < m.num_vars(); ++j) {
      dual_obj += r.reduced_costs[static_cast<size_t>(j)] * r.x[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(dual_obj, r.objective, 1e-5 * std::max(1.0, std::abs(r.objective)));
  } else if (r.status == LpStatus::Infeasible) {
    // Verify the Farkas certificate numerically on the box.
    ASSERT_EQ(r.farkas_ray.size(), static_cast<size_t>(m.num_rows()));
    std::vector<double> agg(static_cast<size_t>(n), 0.0);
    double rhs = 0.0;
    for (int i = 0; i < m.num_rows(); ++i) {
      const double w = r.farkas_ray[static_cast<size_t>(i)];
      rhs += w * m.row(i).rhs;
      for (const Coef& c : m.row(i).coefs) {
        agg[static_cast<size_t>(c.var)] += w * c.value;
      }
    }
    double lhs_min = 0.0;
    for (int j = 0; j < n; ++j) {
      const Variable& v = m.variable(j);
      lhs_min += agg[static_cast<size_t>(j)] > 0
                     ? agg[static_cast<size_t>(j)] * v.lower
                     : agg[static_cast<size_t>(j)] * v.upper;
    }
    EXPECT_GT(lhs_min, rhs - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexRandomTest, ::testing::Range(0, 60));

// --------------------------------------------------------------- warm start

TEST(SimplexWarm, ReusedBasisSkipsPhase1OnIdenticalModel) {
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -3.0);
  const int y = m.add_variable("y", 0, kInf, -5.0);
  m.add_row("r1", RowSense::LessEq, 4.0, {{x, 1.0}});
  m.add_row("r2", RowSense::LessEq, 12.0, {{y, 2.0}});
  m.add_row("r3", RowSense::LessEq, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpResult cold = solve_lp(m);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  ASSERT_FALSE(cold.basis.empty());
  const LpResult warm = solve_lp(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  // The optimal basis re-verifies in zero pivots: no Phase 1, no Phase 2.
  EXPECT_EQ(warm.iterations, 0);
}

TEST(SimplexWarm, RepairAfterViolatedCutRow) {
  // Benders-master shape: optimum at (2, 6), then a cut the optimum
  // violates is appended. The warm basis is primal-infeasible in exactly
  // the new row, the repair path swaps one artificial in, and a short
  // Phase 1 restores feasibility.
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -3.0);
  const int y = m.add_variable("y", 0, kInf, -5.0);
  m.add_row("r1", RowSense::LessEq, 4.0, {{x, 1.0}});
  m.add_row("r2", RowSense::LessEq, 12.0, {{y, 2.0}});
  m.add_row("r3", RowSense::LessEq, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpResult base = solve_lp(m);
  ASSERT_EQ(base.status, LpStatus::Optimal);
  EXPECT_NEAR(base.x[0], 2.0, 1e-8);
  EXPECT_NEAR(base.x[1], 6.0, 1e-8);

  m.add_row("cut", RowSense::LessEq, 6.0, {{x, 1.0}, {y, 1.0}});  // 2+6 > 6
  const LpResult cold = solve_lp(m);
  const LpResult warm = solve_lp(m, {}, &base.basis);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
  EXPECT_LT(m.max_violation(warm.x), 1e-7);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SimplexWarm, RepairAfterBranchingBoundChange) {
  // Branch-and-bound shape: the (fractional) basic variable's bounds
  // tighten past its LP value; the parent basis repairs with one
  // artificial instead of a cold Phase 1.
  LpModel m;
  const int x = m.add_variable("x", 0.0, 1.0, -6.0);
  const int y = m.add_variable("y", 0.0, 1.0, -5.0);
  const int z = m.add_variable("z", 0.0, 1.0, -4.0);
  m.add_row("cap", RowSense::LessEq, 4.0, {{x, 3.0}, {y, 2.0}, {z, 2.0}});
  const LpResult parent = solve_lp(m);
  ASSERT_EQ(parent.status, LpStatus::Optimal);
  ASSERT_FALSE(parent.basis.empty());

  for (const auto& [lo, hi] : {std::pair{0.0, 0.0}, std::pair{1.0, 1.0}}) {
    LpModel child = m;
    child.set_bounds(x, lo, hi);
    const LpResult cold = solve_lp(child);
    const LpResult warm = solve_lp(child, {}, &parent.basis);
    ASSERT_EQ(warm.status, cold.status);
    if (cold.status == LpStatus::Optimal) {
      EXPECT_TRUE(warm.used_warm_start);
      EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
      EXPECT_LT(child.max_violation(warm.x), 1e-7);
    }
  }
}

TEST(SimplexWarm, BadlyScaledBasisSurvivesRelativePivotCheck) {
  // Regression for the absolute-singularity bug. Rows in ~1e-7 units (think
  // rates accidentally expressed in Gb/s instead of raw Mb/s) make the
  // optimal basis's second elimination pivot 1e-10 — below the absolute
  // pivot_tol (1e-9) the old factorize_basis used, so the warm basis was
  // declared singular and silently fell back to a cold start. The LU
  // kernel's per-column *relative* threshold (1e-10 vs a ~1e-7 column)
  // accepts it and re-verifies optimality in zero pivots.
  LpModel m;
  const int x = m.add_variable("x", 0.0, 10.0, -2.0);
  const int y = m.add_variable("y", 0.0, 10.0, -2.0005);
  m.add_row("r1", RowSense::LessEq, 8.0 * 1e-7, {{x, 1e-7}, {y, 1e-7}});
  m.add_row("r2", RowSense::LessEq, 2.0 * 1e-7 + 6.0 * 1.001e-7,
            {{x, 1e-7}, {y, 1.001e-7}});
  // Optimal vertex: both rows binding at (2, 6), objective -16.003.
  Basis basis;
  basis.num_vars = 2;
  basis.num_rows = 2;
  basis.status = {Basis::Status::Basic, Basis::Status::Basic,
                  Basis::Status::AtLower, Basis::Status::AtLower};

  const LpResult warm = solve_lp(m, {}, &basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, -16.003, 1e-6);
  EXPECT_NEAR(warm.x[0], 2.0, 1e-6);
  EXPECT_NEAR(warm.x[1], 6.0, 1e-6);
}

TEST(SimplexWarm, PersistentTinyDualPivotAbandonsToRepair) {
  // Three rows that are dependent up to ε = 1e-9: r0 − 3·cut = −3ε·y. After
  // the cut is appended to the optimal basis {x, y}, the dual ratio test
  // on the cut's row enters r1's slack, whose pivot-row entry is
  // −ε/(1 + 2ε) ≈ −pivot_tol: above the tolerance through the BTRAN'd row,
  // at or below it through the FTRAN'd column, even on fresh factors. The
  // dual loop gets one refactorize-and-retry, then abandons to the
  // artificial-repair path; it must not refactorize on every pass until
  // max_iterations runs out.
  constexpr double eps = 1e-9;
  LpModel m;
  const int x = m.add_variable("x", 0.0, 2.0, -4.0);
  const int y = m.add_variable("y", 0.0, 2.0, -4.0);
  m.add_row("r0", RowSense::LessEq, 6.0, {{x, 3.0 + 3.0 * eps}, {y, 3.0}});
  m.add_row("r1", RowSense::LessEq, 4.0,
            {{x, 1.0 + eps}, {y, 2.0 + 2.0 * eps}});
  Basis basis;  // optimal before the cut: x, y basic, both rows binding
  basis.num_vars = 2;
  basis.num_rows = 2;
  basis.status = {Basis::Status::Basic, Basis::Status::Basic,
                  Basis::Status::AtLower, Basis::Status::AtLower};
  m.add_row("cut", RowSense::LessEq, 1.0, {{x, 1.0 + eps}, {y, 1.0 + eps}});
  const LpResult cold = solve_lp(m);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  // The artificial-repair path alone, from the same basis.
  const LpResult repair = solve_lp(m, {}, &basis);
  ASSERT_EQ(repair.status, LpStatus::Optimal);

  SimplexOptions opts;
  opts.allow_dual = true;
  const LpResult warm = solve_lp(m, opts, &basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_FALSE(warm.used_dual_simplex);  // finished by the repair path
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
  EXPECT_LT(m.max_violation(warm.x), 1e-7);
  // Warm adoption + the one retry + the refactorization handing the
  // basis to Phase 1. The dual loop accepted no pivot, and its two
  // passes over the hopeless row are not iterations: the solve counts
  // exactly the repair path's pivots.
  EXPECT_LE(warm.refactorizations, 3);
  EXPECT_EQ(warm.iterations, repair.iterations);
}

TEST(Simplex, IterationLimitResultCarriesNoSolution) {
  // A limit-hit LP must be detectable and carry no primal/dual vectors a
  // caller could mistake for an optimum.
  LpModel m;
  RngStream rng(404);
  for (int j = 0; j < 8; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, 10.0, rng.uniform(-3.0, 3.0));
  }
  for (int i = 0; i < 6; ++i) {
    std::vector<Coef> coefs;
    for (int j = 0; j < 8; ++j) coefs.push_back({j, rng.uniform(0.1, 2.0)});
    m.add_row("r" + std::to_string(i), RowSense::GreaterEq, 4.0,
              std::move(coefs));
  }
  SimplexOptions opts;
  opts.max_iterations = 1;
  const LpResult r = solve_lp(m, opts);
  ASSERT_EQ(r.status, LpStatus::IterationLimit);
  EXPECT_TRUE(r.x.empty());
  EXPECT_TRUE(r.row_duals.empty());
  EXPECT_TRUE(r.basis.empty());
}

TEST(Milp, TinyLpIterationLimitNeverClaimsOptimal) {
  // Regression for the IterationLimit-propagation audit: when every node LP
  // dies at the iteration limit, branch-and-bound must report NoSolution
  // (or a Feasible incumbent with a conservative bound) — never Optimal,
  // and never an x it did not prove feasible.
  RngStream rng(512);
  LpModel m;
  std::vector<Coef> c1, c2;
  for (int j = 0; j < 10; ++j) {
    m.add_binary("b" + std::to_string(j), -rng.uniform(1.0, 10.0));
    c1.push_back({j, rng.uniform(1.0, 5.0)});
    c2.push_back({j, rng.uniform(1.0, 5.0)});
  }
  m.add_row("cap1", RowSense::LessEq, 8.0, c1);
  m.add_row("cap2", RowSense::LessEq, 8.0, c2);

  const MilpResult reference = solve_milp(m);
  ASSERT_EQ(reference.status, MilpStatus::Optimal);

  MilpOptions starved;
  starved.lp.max_iterations = 1;  // every LP (warm and cold retry) hits it
  const MilpResult r = solve_milp(m, starved);
  EXPECT_NE(r.status, MilpStatus::Optimal);
  EXPECT_NE(r.status, MilpStatus::Infeasible);  // nothing was *proved*
  if (r.status == MilpStatus::Feasible) {
    EXPECT_LT(m.max_violation(r.x), 1e-6);
    EXPECT_LE(r.best_bound, r.objective + 1e-9);
  }
  // Whatever bound is reported must not exceed the true optimum.
  EXPECT_LE(r.best_bound, reference.objective + 1e-9);
}

// Warm vs cold on randomized LPs (same generator family as
// SimplexRandomTest): identical status and objective, and — after a row
// append — never more pivots than the cold solve needs in Phase 1 alone.
class SimplexWarmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmRandomTest, WarmMatchesColdAfterModelEdits) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 4243 + 29);
  LpModel m;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  const int rows = static_cast<int>(rng.uniform_int(1, 10));
  for (int j = 0; j < n; ++j) {
    const double lb = rng.uniform(0.0, 2.0);
    m.add_variable("x" + std::to_string(j), lb, lb + rng.uniform(0.5, 5.0),
                   rng.uniform(-3.0, 3.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coef> coefs;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.7)) coefs.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    m.add_row("r" + std::to_string(i), static_cast<RowSense>(rng.uniform_int(0, 2)),
              rng.uniform(-5.0, 15.0), std::move(coefs));
  }
  const LpResult base = solve_lp(m);
  if (base.status != LpStatus::Optimal || base.basis.empty()) return;

  // Edit 1: append a (often violated) <= row, Benders-cut style.
  LpModel cut_model = m;
  {
    std::vector<Coef> coefs;
    for (int j = 0; j < n; ++j) coefs.push_back({j, rng.uniform(0.1, 1.0)});
    cut_model.add_row("cut", RowSense::LessEq, rng.uniform(-1.0, 4.0),
                      std::move(coefs));
  }
  // Edit 2: tighten one variable's bounds, branching style.
  LpModel branch_model = m;
  {
    const int j = static_cast<int>(rng.uniform_int(0, n - 1));
    const Variable& v = branch_model.variable(j);
    const double mid = 0.5 * (v.lower + v.upper);
    if (rng.flip(0.5)) branch_model.set_bounds(j, v.lower, mid);
    else branch_model.set_bounds(j, mid, v.upper);
  }
  for (const LpModel* edited : {&cut_model, &branch_model}) {
    const LpResult cold = solve_lp(*edited);
    const LpResult warm = solve_lp(*edited, {}, &base.basis);
    ASSERT_EQ(warm.status, cold.status);
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * std::max(1.0, std::abs(cold.objective)));
      EXPECT_LT(edited->max_violation(warm.x), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexWarmRandomTest,
                         ::testing::Range(0, 60));

TEST(MilpWarm, RootWarmStartPreservesOptimum) {
  RngStream rng(99);
  LpModel m;
  std::vector<Coef> cap;
  for (int j = 0; j < 12; ++j) {
    m.add_binary("b" + std::to_string(j), -rng.uniform(1.0, 10.0));
    cap.push_back({j, rng.uniform(1.0, 5.0)});
  }
  m.add_row("cap", RowSense::LessEq, 9.0, cap);
  const MilpResult cold = solve_milp(m);
  ASSERT_EQ(cold.status, MilpStatus::Optimal);
  ASSERT_FALSE(cold.root_basis.empty());

  // Appending a cut row and warm-starting from the stale root basis must
  // not change the optimum.
  m.add_row("cut", RowSense::LessEq, 5.0,
            {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}, {5, 1.0}});
  MilpOptions warm_opts;
  warm_opts.warm_start = &cold.root_basis;
  const MilpResult warm = solve_milp(m, warm_opts);
  const MilpResult fresh = solve_milp(m);
  ASSERT_EQ(warm.status, MilpStatus::Optimal);
  ASSERT_EQ(fresh.status, MilpStatus::Optimal);
  EXPECT_NEAR(warm.objective, fresh.objective, 1e-7);
}

// --------------------------------------------------------------------- MILP

TEST(SearchStats, MergeSumsCountersAndKeepsEarliestIncumbent) {
  const auto stats = [](long base, long first_incumbent) {
    SearchStats s;
    s.cuts_separated = base + 1;
    s.cuts_from_pool = base + 2;
    s.cuts_evicted = base + 3;
    s.separation_rounds = base + 4;
    s.pseudocost_branchings = base + 5;
    s.strong_probes = base + 6;
    s.heuristic_incumbents = base + 7;
    s.first_incumbent_nodes = first_incumbent;
    return s;
  };
  SearchStats acc;  // defaults: zero counters, no incumbent (−1)
  EXPECT_EQ(acc.first_incumbent_nodes, -1);
  acc.merge(SearchStats{});  // −1 on both sides stays −1
  EXPECT_EQ(acc.first_incumbent_nodes, -1);
  acc.merge(stats(0, 40));   // −1 on the left takes the right value
  EXPECT_EQ(acc.first_incumbent_nodes, 40);
  acc.merge(stats(10, -1));  // −1 on the right keeps the left value
  EXPECT_EQ(acc.first_incumbent_nodes, 40);
  acc.merge(stats(20, 55));  // larger value: the minimum stays
  EXPECT_EQ(acc.first_incumbent_nodes, 40);
  acc.merge(stats(30, 0));   // 0 is a real value, not a sentinel
  EXPECT_EQ(acc.first_incumbent_nodes, 0);
  // Every counter sums over the four non-default merges (bases 0..30).
  EXPECT_EQ(acc.cuts_separated, 60 + 4 * 1);
  EXPECT_EQ(acc.cuts_from_pool, 60 + 4 * 2);
  EXPECT_EQ(acc.cuts_evicted, 60 + 4 * 3);
  EXPECT_EQ(acc.separation_rounds, 60 + 4 * 4);
  EXPECT_EQ(acc.pseudocost_branchings, 60 + 4 * 5);
  EXPECT_EQ(acc.strong_probes, 60 + 4 * 6);
  EXPECT_EQ(acc.heuristic_incumbents, 60 + 4 * 7);
  // A MilpResult merges as its SearchStats base.
  MilpResult res;
  res.strong_probes = 2;
  res.first_incumbent_nodes = 3;
  SearchStats fresh;
  fresh.merge(res);
  EXPECT_EQ(fresh.strong_probes, 2);
  EXPECT_EQ(fresh.first_incumbent_nodes, 3);
}

TEST(Milp, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c<=2 (binary)  => min form, optimum -16.
  LpModel m;
  m.add_binary("a", -10.0);
  m.add_binary("b", -6.0);
  m.add_binary("c", -4.0);
  m.add_row("cap", RowSense::LessEq, 2.0, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::Optimal);
  EXPECT_NEAR(r.objective, -16.0, 1e-7);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
  EXPECT_NEAR(r.x[2], 0.0, 1e-7);
}

TEST(Milp, FractionalLpRequiresBranching) {
  // Knapsack where LP relaxation is fractional: values 6,5,4; weights 3,2,2; cap 4.
  LpModel m;
  m.add_binary("a", -6.0);
  m.add_binary("b", -5.0);
  m.add_binary("c", -4.0);
  m.add_row("cap", RowSense::LessEq, 4.0, {{0, 3.0}, {1, 2.0}, {2, 2.0}});
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::Optimal);
  EXPECT_NEAR(r.objective, -9.0, 1e-7);  // b + c
}

TEST(Milp, InfeasibleIntegerProblem) {
  LpModel m;
  m.add_binary("a", -1.0);
  m.add_binary("b", -1.0);
  m.add_row("need", RowSense::GreaterEq, 3.0, {{0, 1.0}, {1, 1.0}});
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // min -x - 10b s.t. x <= 4 + 2b, x in [0,10], b binary.
  LpModel m;
  const int x = m.add_variable("x", 0, 10, -1.0);
  const int b = m.add_binary("b", -10.0);
  m.add_row("link", RowSense::LessEq, 4.0, {{x, 1.0}, {b, -2.0}});
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::Optimal);
  EXPECT_NEAR(r.objective, -16.0, 1e-7);  // b=1, x=6
  EXPECT_NEAR(r.x[static_cast<size_t>(b)], 1.0, 1e-9);
}

TEST(Milp, RespectsNodeLimitAnytime) {
  LpModel m;
  RngStream rng(77);
  std::vector<Coef> cap;
  for (int j = 0; j < 14; ++j) {
    m.add_binary("b" + std::to_string(j), -rng.uniform(1.0, 10.0));
    cap.push_back({j, rng.uniform(1.0, 5.0)});
  }
  m.add_row("cap", RowSense::LessEq, 12.0, cap);
  MilpOptions opts;
  opts.max_nodes = 5;
  const MilpResult r = solve_milp(m, opts);
  EXPECT_LE(r.nodes, 6);
  if (r.status == MilpStatus::Feasible) {
    EXPECT_LE(r.best_bound, r.objective + 1e-9);
    EXPECT_GE(r.gap(), 0.0);
  }
}

// Property test: B&B vs exhaustive enumeration on random binary knapsacks
// with a side constraint — exactly the structure Theorem 1 reduces to.
class MilpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomTest, MatchesBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  LpModel m;
  std::vector<double> value(static_cast<size_t>(n)), w1(static_cast<size_t>(n)),
      w2(static_cast<size_t>(n));
  std::vector<Coef> r1, r2;
  for (int j = 0; j < n; ++j) {
    value[static_cast<size_t>(j)] = rng.uniform(0.0, 10.0);
    w1[static_cast<size_t>(j)] = rng.uniform(0.0, 4.0);
    w2[static_cast<size_t>(j)] = rng.uniform(0.0, 4.0);
    m.add_binary("b" + std::to_string(j), -value[static_cast<size_t>(j)]);
    r1.push_back({j, w1[static_cast<size_t>(j)]});
    r2.push_back({j, w2[static_cast<size_t>(j)]});
  }
  const double cap1 = rng.uniform(2.0, 2.0 * n);
  const double cap2 = rng.uniform(2.0, 2.0 * n);
  m.add_row("c1", RowSense::LessEq, cap1, r1);
  m.add_row("c2", RowSense::LessEq, cap2, r2);

  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::Optimal);

  double best = 0.0;  // empty set feasible (weights >= 0)
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double v = 0.0, a = 0.0, b = 0.0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1u << j)) {
        v += value[static_cast<size_t>(j)];
        a += w1[static_cast<size_t>(j)];
        b += w2[static_cast<size_t>(j)];
      }
    }
    if (a <= cap1 + 1e-12 && b <= cap2 + 1e-12) best = std::max(best, v);
  }
  EXPECT_NEAR(r.objective, -best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, MilpRandomTest, ::testing::Range(0, 40));

TEST(Milp, BranchPriorityIsRespected) {
  // Two groups; priorities force branching on group A first. We can't
  // observe the branch order directly, but the solve must stay correct
  // with priorities set.
  LpModel m;
  for (int j = 0; j < 4; ++j) {
    const int v = m.add_binary("a" + std::to_string(j), -3.0, 0);
    (void)v;
  }
  for (int j = 0; j < 4; ++j) {
    m.add_binary("z" + std::to_string(j), -2.0, 10);
  }
  std::vector<Coef> cap;
  for (int j = 0; j < 8; ++j) cap.push_back({j, 1.0});
  m.add_row("cap", RowSense::LessEq, 3.0, cap);
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::Optimal);
  EXPECT_NEAR(r.objective, -9.0, 1e-7);
}

}  // namespace
}  // namespace ovnes::solver
