#include "solver/branching.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ovnes::solver {

int pick_branch_var(const LpModel& model, const std::vector<int>& int_vars,
                    double int_tol, const std::vector<double>& x) {
  int best = -1;
  int best_prio = std::numeric_limits<int>::max();
  double best_frac_dist = 0.0;
  for (int j : int_vars) {
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= int_tol) continue;
    const int prio = model.variable(j).branch_priority;
    if (prio < best_prio || (prio == best_prio && dist > best_frac_dist)) {
      best_prio = prio;
      best_frac_dist = dist;
      best = j;
    }
  }
  return best;
}

}  // namespace ovnes::solver
