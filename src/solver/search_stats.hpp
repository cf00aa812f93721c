// Branch-and-bound search counters, declared once for every layer that
// reports a MILP-backed solve. solver::MilpResult, acrr::AdmissionResult,
// orch::EpochReport, orch::ScenarioResult and svc::ShardStats derive from
// SearchStats, so a counter added here reaches all of them; a layer that
// runs several solves folds each one in with merge().
#pragma once

#include <algorithm>

namespace ovnes::solver {

/// \brief Cut, branching and heuristic counters of branch-and-bound solves.
struct SearchStats {
  // -- Lazy-cut observability (zero unless MilpOptions::lazy_cuts ran).
  /// Rows admitted to the cut pool from callback separation.
  long cuts_separated = 0;
  /// Candidates rejected by a pooled row that the pool lookup found
  /// violated first, with no separation call.
  long cuts_from_pool = 0;
  /// Rows aged out of the cut pool's active set.
  long cuts_evicted = 0;
  /// Separation callback invocations (integral + fractional rounds).
  long separation_rounds = 0;
  // -- Former pseudocost-branching counters. The solver has one
  // branching rule (most fractional, solver/branching.hpp), so both are
  // always 0; they stay only because the perfbench reports read them, and
  // go with the next change to the benchmark.
  long pseudocost_branchings = 0;
  long strong_probes = 0;
  // -- Primal-heuristic observability.
  /// Incumbents installed by a heuristic (root dive, RENS, LNS) rather
  /// than by tree search.
  long heuristic_incumbents = 0;
  /// Value of `nodes` when the first incumbent (from any source) was
  /// installed; -1 if no solve found one. The anytime metric the
  /// heuristics target: lower is better.
  long first_incumbent_nodes = -1;

  /// Fold another solve's counters in: every counter sums, except
  /// first_incumbent_nodes, which keeps the minimum over values ≥ 0.
  void merge(const SearchStats& o) {
    cuts_separated += o.cuts_separated;
    cuts_from_pool += o.cuts_from_pool;
    cuts_evicted += o.cuts_evicted;
    separation_rounds += o.separation_rounds;
    pseudocost_branchings += o.pseudocost_branchings;
    strong_probes += o.strong_probes;
    heuristic_incumbents += o.heuristic_incumbents;
    if (o.first_incumbent_nodes >= 0) {
      first_incumbent_nodes =
          first_incumbent_nodes < 0
              ? o.first_incumbent_nodes
              : std::min(first_incumbent_nodes, o.first_incumbent_nodes);
    }
  }
};

}  // namespace ovnes::solver
