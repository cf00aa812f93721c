// Branching rule of the branch-and-bound MILP solver.
//
// One rule, shared by the tree lanes, the root rounding dive and the
// RENS/LNS fix-and-dive (solver/heuristics.hpp): within the best (lowest)
// branch_priority class that has any fractional member, pick the variable
// whose LP value is furthest from an integer; ties go to the variable met
// first in `int_vars` order. Deterministic and stateless, so a serial solve
// is a pure function of the instance. The AC-RR master marks the
// per-tenant acceptance indicators with priority 0, which makes the tree
// branch on the tenant-acceptance dichotomy first.
#pragma once

#include <vector>

#include "solver/lp_model.hpp"

namespace ovnes::solver {

/// Most fractional integer variable of `x` within the best priority class
/// (distance to the nearest integer above `int_tol`); -1 when `x` is
/// integral on `int_vars`.
[[nodiscard]] int pick_branch_var(const LpModel& model,
                                  const std::vector<int>& int_vars,
                                  double int_tol,
                                  const std::vector<double>& x);

}  // namespace ovnes::solver
