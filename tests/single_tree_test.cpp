// Single-tree Branch-and-Benders-cut coverage, both layers:
//  * solver: the MilpOptions::lazy_cuts hook — transparent acceptance,
//    cut-driven incumbent refinement, conservative accounting when a
//    candidate is repeatedly rejected or separation abandons a node;
//  * acrr: solve_benders(single_tree=true) agrees with the classic
//    multi-tree loop on the admission objective (serial and parallel)
//    and reports the cut counters.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/instance.hpp"
#include "common/rng.hpp"
#include "solver/milp.hpp"
#include "topo/generators.hpp"

namespace ovnes {
namespace {

using acrr::AcrrConfig;
using acrr::AcrrInstance;
using acrr::AdmissionResult;
using acrr::BendersOptions;
using acrr::TenantModel;
using slice::SliceType;

// ------------------------------------------------------------ solver layer

solver::Rowdef cut_row(std::string name, std::vector<solver::Coef> coefs,
                       double rhs) {
  solver::Rowdef r;
  r.name = std::move(name);
  r.sense = solver::RowSense::LessEq;
  r.rhs = rhs;
  r.coefs = std::move(coefs);
  return r;
}

/// min -x0 - x1, both binary — optimum (1,1) at -2 without cuts.
solver::LpModel two_binary_model() {
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  return m;
}

TEST(LazyCuts, HookIsTransparentWhenCallbackAcceptsEverything) {
  const solver::LpModel m = two_binary_model();
  const solver::MilpResult plain = solver::solve_milp(m);
  solver::MilpOptions opts;
  long calls = 0;
  opts.lazy_cuts = [&calls](const solver::LazyCutContext& ctx) {
    EXPECT_TRUE(ctx.integral);
    ++calls;
    return solver::LazyCutResult{};
  };
  const solver::MilpResult lazy = solver::solve_milp(m, opts);
  EXPECT_EQ(lazy.status, plain.status);
  EXPECT_DOUBLE_EQ(lazy.objective, plain.objective);
  EXPECT_GE(calls, 1);
  EXPECT_GE(lazy.separation_rounds, 1);
  EXPECT_EQ(lazy.cuts_separated, 0);
}

TEST(LazyCuts, ViolatedCutRefinesIncumbentToCutOptimum) {
  // Separation enforces x0 + x1 <= 1.5 lazily: every (1,1) candidate is
  // rejected, and the accepted optimum under the cut is -1.
  solver::MilpOptions opts;
  opts.lazy_cuts = [](const solver::LazyCutContext& ctx) {
    solver::LazyCutResult out;
    if (ctx.x[0] + ctx.x[1] > 1.5) {
      out.cuts.push_back(cut_row("cap", {{0, 1.0}, {1, 1.0}}, 1.5));
    }
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(two_binary_model(), opts);
  EXPECT_EQ(res.status, solver::MilpStatus::Optimal);
  EXPECT_DOUBLE_EQ(res.objective, -1.0);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-6);
  // The same row separates once; later rejections of (1,1) candidates (the
  // other lane orderings, the dive) come from the pool or never re-fire.
  EXPECT_EQ(res.cuts_separated, 1);
  EXPECT_GE(res.separation_rounds, 1);
  EXPECT_LE(res.best_bound, res.objective + 1e-9);
}

TEST(LazyCuts, RepeatedRejectionTerminatesWithoutFalseIncumbent) {
  // Pathological separation that rejects EVERY integral candidate of
  // min -x0 (x0 binary): x0 = 1 draws "x0 <= 0.9", x0 = 0 draws
  // "x0 >= 0.1". The solver must terminate (no infinite separation loop),
  // accept nothing, and never claim an incumbent.
  solver::MilpOptions opts;
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  opts.lazy_cuts = [](const solver::LazyCutContext& ctx) {
    solver::LazyCutResult out;
    if (ctx.x[0] > 0.5) {
      out.cuts.push_back(cut_row("ub", {{0, 1.0}}, 0.9));
    } else {
      out.cuts.push_back(cut_row("lb", {{0, -1.0}}, -0.1));
    }
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(m, opts);
  EXPECT_TRUE(res.status == solver::MilpStatus::Infeasible ||
              res.status == solver::MilpStatus::NoSolution);
  EXPECT_TRUE(res.x.empty());
  EXPECT_GE(res.separation_rounds, 2);
  EXPECT_LE(res.nodes, solver::MilpOptions{}.max_nodes);
}

TEST(LazyCuts, AbandonedSeparationDropsNodeConservatively) {
  // A slave with no certificate must not let the candidate in, and the
  // result must stay conservative: no incumbent, no Optimal claim, and a
  // best_bound that still covers the true optimum (-1).
  solver::MilpOptions opts;
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  opts.lazy_cuts = [](const solver::LazyCutContext&) {
    solver::LazyCutResult out;
    out.abandon = true;
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(m, opts);
  EXPECT_EQ(res.status, solver::MilpStatus::NoSolution);
  EXPECT_TRUE(res.x.empty());
  EXPECT_LE(res.best_bound, -1.0 + 1e-9);
}

// -------------------------------------------------------------- acrr layer

TenantModel make_tenant(std::uint32_t id, SliceType type, double lambda_hat,
                        double sigma_hat, std::size_t duration = 20,
                        double m = 1.0) {
  TenantModel tm;
  tm.request.tenant = TenantId(id);
  tm.request.name = "t" + std::to_string(id);
  tm.request.tmpl = slice::standard_template(type);
  tm.request.duration_epochs = duration;
  tm.request.penalty_factor = m;
  tm.lambda_hat = lambda_hat;
  tm.sigma_hat = sigma_hat;
  return tm;
}

struct Fixture {
  topo::Topology topo;
  std::unique_ptr<topo::PathCatalog> catalog;

  explicit Fixture(std::size_t num_bs = 2, Cores edge = 40.0,
                   Cores core = 200.0, Mbps link_cap = 1000.0) {
    topo = topo::make_mini(num_bs, edge, core, 20000.0, link_cap);
    catalog = std::make_unique<topo::PathCatalog>(topo, 2);
  }

  AcrrInstance instance(std::vector<TenantModel> tenants,
                        AcrrConfig cfg = {}) const {
    return AcrrInstance(topo, *catalog, std::move(tenants), cfg);
  }
};

std::vector<TenantModel> mixed_tenants(int n, RngStream& rng) {
  std::vector<TenantModel> ts;
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
    const auto tmpl = slice::standard_template(type);
    ts.push_back(make_tenant(static_cast<std::uint32_t>(i), type,
                             rng.uniform(0.1, 1.0) * tmpl.sla_rate,
                             rng.uniform(0.05, 0.9),
                             static_cast<std::size_t>(rng.uniform_int(5, 40)),
                             rng.uniform(0.5, 8.0)));
  }
  return ts;
}

class SingleTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleTreeRandomTest, MatchesMultiTreeObjective) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 7177 + 5);
  Fixture f(/*num_bs=*/2,
            /*edge=*/rng.uniform(20.0, 60.0),
            /*core=*/rng.uniform(60.0, 300.0),
            /*link_cap=*/rng.uniform(150.0, 800.0));
  const AcrrInstance inst =
      f.instance(mixed_tenants(static_cast<int>(rng.uniform_int(2, 6)), rng));
  const AdmissionResult multi = acrr::solve_benders(inst);
  BendersOptions st;
  st.single_tree = true;
  const AdmissionResult single = acrr::solve_benders(inst, st);
  ASSERT_TRUE(multi.optimal);
  EXPECT_TRUE(single.optimal);
  EXPECT_NEAR(single.objective, multi.objective,
              1e-4 * (1.0 + std::abs(multi.objective)));
  EXPECT_GE(single.separation_rounds, 1);
  // The reported objective is the admitted set's own Ψ, and no incumbent
  // undercuts the certified bound.
  EXPECT_NEAR(single.objective, acrr::evaluate_objective(inst, single),
              1e-6 * (1.0 + std::abs(single.objective)));
  EXPECT_GE(single.objective,
            single.bound - st.epsilon * (1.0 + std::abs(single.objective)));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SingleTreeRandomTest,
                         ::testing::Range(0, 10));

/// The 16-tenant draw of bench_regression's run_convergence, seeded by
/// `draw` (perfbench's planning panel uses the same draws).
std::vector<TenantModel> convergence_tenants(std::uint64_t draw) {
  RngStream rng(draw);
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
    TenantModel tm = make_tenant(i, type, 0.0, 0.0);
    tm.lambda_hat = rng.uniform(0.2, 0.6) * tm.request.tmpl.sla_rate;
    tm.sigma_hat = rng.uniform(0.05, 0.3);
    ts.push_back(std::move(tm));
  }
  return ts;
}

// Planning draws on which single-tree once recorded the Γ of a rounded
// fractional root point as its incumbent: it claimed optimality with an
// objective below its own bound, for an admitted set whose re-priced Ψ was
// worse. The expected optima are solve_exact_milp's (multi-tree agrees).
class SingleTreePlanningDrawTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(SingleTreePlanningDrawTest, MatchesExactOptimum) {
  const auto [draw, exact] = GetParam();
  const topo::Topology topo = topo::make_romanian({0.06, 17});
  const topo::PathCatalog catalog(topo, 2);
  const AcrrInstance inst(topo, catalog, convergence_tenants(draw));
  BendersOptions st;
  st.single_tree = true;
  st.time_limit_sec = 60.0;
  st.master.threads = 1;
  const AdmissionResult res = acrr::solve_benders(inst, st);
  EXPECT_NEAR(res.objective, exact, 1e-4);
  EXPECT_NEAR(res.objective, acrr::evaluate_objective(inst, res),
              1e-6 * (1.0 + std::abs(res.objective)));
  EXPECT_GE(res.objective,
            res.bound - st.epsilon * (1.0 + std::abs(res.objective)));
}

INSTANTIATE_TEST_SUITE_P(
    Draws, SingleTreePlanningDrawTest,
    ::testing::Values(std::make_pair(std::uint64_t{3}, -31.3038),
                      std::make_pair(std::uint64_t{6}, -31.9054)));

TEST(SingleTree, ParallelLanesMatchSerialObjective) {
  RngStream rng(4242);
  Fixture f;
  const AcrrInstance inst = f.instance(mixed_tenants(6, rng));
  BendersOptions serial;
  serial.single_tree = true;
  serial.master.threads = 1;
  BendersOptions par;
  par.single_tree = true;
  par.master.threads = 4;
  const AdmissionResult a = acrr::solve_benders(inst, serial);
  const AdmissionResult b = acrr::solve_benders(inst, par);
  ASSERT_TRUE(a.optimal);
  ASSERT_TRUE(b.optimal);
  // Trajectory determinism is explicitly relaxed under threads > 1; the
  // admission objective is not.
  EXPECT_NEAR(a.objective, b.objective, 1e-5 * (1.0 + std::abs(a.objective)));
}

TEST(SingleTree, ReportsCutCounters) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0 + i, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  BendersOptions st;
  st.single_tree = true;
  const AdmissionResult res = acrr::solve_benders(inst, st);
  EXPECT_TRUE(res.optimal);
  EXPECT_GE(res.separation_rounds, 1);
  EXPECT_GE(res.iterations, 1);
  EXPECT_GE(res.cuts_separated, 0);
  EXPECT_GE(res.cuts_from_pool, 0);
  // Multi-tree reports its counters too (appended cuts + slave rounds).
  const AdmissionResult multi = acrr::solve_benders(inst);
  EXPECT_GE(multi.cuts_separated, 1);
  EXPECT_GE(multi.separation_rounds, 1);
}

}  // namespace
}  // namespace ovnes
