// Branching battery: the one most-fractional rule (pick_branch_var) —
// priority classes, fractionality and deterministic tie-breaks — and the
// serial-vs-parallel determinism contract of the tree it drives, with and
// without the RENS/LNS heuristics.
//
// The solver-level tests drive solve_milp on integer-coefficient knapsacks
// so objectives are exact and the 1e-9 agreement assertions carry no
// LP-noise slack.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "solver/branching.hpp"
#include "solver/milp.hpp"

namespace ovnes::solver {
namespace {

// --------------------------------------------------------- pick_branch_var

TEST(PickBranchVar, PicksFromBestPriorityClassInVarOrder) {
  LpModel m;
  m.add_binary("a", -1.0, /*branch_priority=*/10);
  m.add_binary("b", -1.0, /*branch_priority=*/0);
  m.add_binary("c", -1.0, /*branch_priority=*/0);
  m.add_binary("d", -1.0, /*branch_priority=*/10);
  const std::vector<int> ints = m.integer_vars();
  // b is integral, so the priority-0 class still wins via c alone — even
  // though a and d are more fractional.
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.5, 1.0, 0.25, 0.5}), 2);
  // Fully integral point: nothing to branch on.
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.0, 1.0, 1.0, 0.0}), -1);
  // Priority-0 class fully integral: the priority-10 class surfaces and
  // its most fractional member wins (a at 0.5 over d at 0.25).
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.5, 1.0, 0.0, 0.75}), 0);
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.9, 0.0, 1.0, 0.4}), 3);
  // Within int_tol of an integer counts as integral.
  EXPECT_EQ(pick_branch_var(m, ints, 1e-3, {1e-4, 1.0, 0.9999, 0.0}), -1);
}

TEST(PickBranchVar, DeterministicTieBreaks) {
  LpModel m;
  for (int j = 0; j < 4; ++j) m.add_binary("x" + std::to_string(j), -1.0);
  const std::vector<int> ints = m.integer_vars();
  // Largest distance to the nearest integer wins outright.
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.3, 0.5, 0.45, 0.7}), 1);
  // Distance ties go to the lower variable index (1 and 2 both at 0.5).
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.3, 0.5, 0.5, 0.7}), 1);
  // Fractionality is symmetric: 0.25 and 0.75 tie; index 0 wins.
  EXPECT_EQ(pick_branch_var(m, ints, 1e-6, {0.25, 0.0, 1.0, 0.75}), 0);
  // The scan follows int_vars order, so reversing it moves the tie-break.
  const std::vector<int> rev = {3, 2, 1, 0};
  EXPECT_EQ(pick_branch_var(m, rev, 1e-6, {0.25, 0.0, 1.0, 0.75}), 3);
}

// ------------------------------------------------------ solver integration

/// Integer-coefficient correlated knapsack: profits track weights, so LP
/// relaxations are fractional and the tree actually branches. Integer data
/// keeps optimal objectives exact across search configurations.
LpModel correlated_knapsack(RngStream& rng, int n, int rows) {
  LpModel m;
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    w[static_cast<std::size_t>(j)] =
        static_cast<double>(rng.uniform_int(2, 12));
    const double profit = w[static_cast<std::size_t>(j)] +
                          static_cast<double>(rng.uniform_int(0, 4));
    m.add_binary("x" + std::to_string(j), -profit);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Coef> coefs;
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = w[static_cast<std::size_t>(j)] +
                       static_cast<double>(rng.uniform_int(0, 3));
      coefs.push_back({j, a});
      sum += a;
    }
    m.add_row("cap" + std::to_string(r), RowSense::LessEq,
              std::floor(0.5 * sum), std::move(coefs));
  }
  return m;
}

TEST(MostFractionalBranching, RetiredBranchingCountersStayZero) {
  // SearchStats keeps pseudocost_branchings and strong_probes as fields
  // for report compatibility; no configuration may move them.
  RngStream rng(43);
  const LpModel m = correlated_knapsack(rng, 14, 3);
  MilpOptions opts;
  opts.rens_heuristic = true;
  opts.lns_interval = 10;
  opts.threads = 2;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  EXPECT_EQ(res.strong_probes, 0);
  EXPECT_EQ(res.pseudocost_branchings, 0);
}

// Serial-vs-parallel determinism: the rule's tie-breaking is
// deterministic, so a 1-lane solve is a pure function of the instance and
// a 4-lane solve must land on the same objective (gap_tol = 0 removes the
// gap-width acceptance band that could otherwise admit distinct values).
// RENS at the root and LNS re-runs every 20 nodes ride along: the LNS
// destroy sets are seeded by episode index, so they keep the contract.
class HeuristicDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicDeterminismTest, SerialAndFourLaneObjectivesIdentical) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const LpModel m = correlated_knapsack(
      rng, 12 + static_cast<int>(rng.uniform_int(0, 6)), 3);
  MilpOptions serial;
  serial.rens_heuristic = true;
  serial.lns_interval = 20;
  serial.gap_tol = 0.0;
  serial.threads = 1;
  const MilpResult a = solve_milp(m, serial);
  const MilpResult a2 = solve_milp(m, serial);
  ASSERT_EQ(a.status, MilpStatus::Optimal);
  // Serial replay is bit-identical: same objective, same vector, same tree.
  EXPECT_EQ(a.objective, a2.objective);
  EXPECT_EQ(a.x, a2.x);
  EXPECT_EQ(a.nodes, a2.nodes);
  EXPECT_EQ(a.lp_iterations, a2.lp_iterations);
  EXPECT_EQ(a.heuristic_incumbents, a2.heuristic_incumbents);
  EXPECT_EQ(a.first_incumbent_nodes, a2.first_incumbent_nodes);

  // The heuristics change the search, never the answer.
  MilpOptions plain;
  plain.gap_tol = 0.0;
  plain.threads = 1;
  const MilpResult ref = solve_milp(m, plain);
  ASSERT_EQ(ref.status, MilpStatus::Optimal);
  EXPECT_NEAR(a.objective, ref.objective, 1e-9);

  MilpOptions par = serial;
  par.threads = 4;
  const MilpResult b = solve_milp(m, par);
  ASSERT_EQ(b.status, MilpStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_LE(b.best_bound, b.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, HeuristicDeterminismTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace ovnes::solver
