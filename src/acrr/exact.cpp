#include "acrr/exact.hpp"

#include <chrono>
#include <map>

#include "acrr/benders.hpp"

namespace ovnes::acrr {

AdmissionResult solve_exact_milp(const AcrrInstance& inst,
                                 const solver::MilpOptions& opts) {
  using namespace ovnes::solver;
  const auto t0 = std::chrono::steady_clock::now();

  // Structural scaffold: x binaries, acceptance indicators, rows (5)-(6').
  detail::MasterModel m = detail::build_master(inst, /*with_theta=*/false);
  const auto& vars = inst.vars();
  const topo::Topology& topo = inst.topology();

  // Continuous z and the linearization product y = z·x per variable.
  std::vector<int> z_col(vars.size()), y_col(vars.size());
  for (std::size_t j = 0; j < vars.size(); ++j) {
    const VarInfo& v = vars[j];
    z_col[j] = m.lp.add_variable("z" + std::to_string(j), 0.0, v.sla, 0.0);
    y_col[j] = m.lp.add_variable("y" + std::to_string(j), 0.0, v.sla, -v.w);
    const double z_lo =
        inst.config().no_overbooking ? v.sla : std::min(v.lambda_hat, v.sla);

    // (8): z ≼ Λ·x
    m.lp.add_row("c8_" + std::to_string(j), RowSense::LessEq, 0.0,
                 {{z_col[j], 1.0}, {m.x_col[j], -v.sla}});
    // (9): λ̂·x ≼ z  (Λ·x ≼ z for the no-overbooking baseline)
    m.lp.add_row("c9_" + std::to_string(j), RowSense::LessEq, 0.0,
                 {{m.x_col[j], z_lo}, {z_col[j], -1.0}});
    // (10): y ≼ Λ·x
    m.lp.add_row("c10_" + std::to_string(j), RowSense::LessEq, 0.0,
                 {{y_col[j], 1.0}, {m.x_col[j], -v.sla}});
    // (11): y ≼ z
    m.lp.add_row("c11_" + std::to_string(j), RowSense::LessEq, 0.0,
                 {{y_col[j], 1.0}, {z_col[j], -1.0}});
    // (12): z + Λ·x ≼ y + Λ
    m.lp.add_row("c12_" + std::to_string(j), RowSense::LessEq, v.sla,
                 {{z_col[j], 1.0}, {m.x_col[j], v.sla}, {y_col[j], -1.0}});
  }

  // Capacity rows (2)-(4) over z (compute baselines a/B ride on x).
  for (std::size_t ci = 0; ci < inst.num_cu(); ++ci) {
    std::vector<Coef> coefs;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      const VarInfo& v = vars[j];
      if (v.cu.index() != ci) continue;
      const auto& svc =
          inst.tenants()[static_cast<size_t>(v.tenant)].request.tmpl.service;
      if (svc.baseline > 0.0) {
        coefs.push_back(
            {m.x_col[j], svc.baseline / static_cast<double>(inst.num_bs())});
      }
      if (svc.cores_per_mbps > 0.0) {
        coefs.push_back({z_col[j], svc.cores_per_mbps});
      }
    }
    if (!coefs.empty()) {
      m.lp.add_row("cap_cu" + std::to_string(ci), RowSense::LessEq,
                   topo.cu(CuId(static_cast<std::uint32_t>(ci))).capacity,
                   std::move(coefs));
    }
  }
  std::map<std::uint32_t, std::vector<Coef>> link_rows;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    for (LinkId e : vars[j].path->links) {
      link_rows[e.value()].push_back(
          {z_col[j], topo.graph.link(e).overhead});
    }
  }
  for (auto& [id, coefs] : link_rows) {
    m.lp.add_row("cap_link" + std::to_string(id), RowSense::LessEq,
                 topo.graph.link(LinkId(id)).capacity, std::move(coefs));
  }
  for (std::size_t bi = 0; bi < inst.num_bs(); ++bi) {
    std::vector<Coef> coefs;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      if (vars[j].bs.index() == bi) {
        coefs.push_back({z_col[j], vars[j].radio_prbs_per_mbps});
      }
    }
    if (!coefs.empty()) {
      m.lp.add_row("cap_bs" + std::to_string(bi), RowSense::LessEq,
                   topo.bs(BsId(static_cast<std::uint32_t>(bi))).capacity,
                   std::move(coefs));
    }
  }

  // Objective x-part: (Λ·w − R/B)·x (already set by build_master).
  solver::LpSession session(std::move(m.lp), opts.lp);
  const MilpResult mr = solve_milp(session, opts);
  AdmissionResult res;
  const double ms = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0).count() * 1e3;
  if (mr.status != MilpStatus::Optimal && mr.status != MilpStatus::Feasible) {
    res.admitted.assign(inst.tenants().size(), std::nullopt);
    res.solve_ms = ms;
    return res;
  }
  const std::vector<char> active = detail::extract_active(m, mr.x);
  std::vector<double> z(vars.size(), 0.0);
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (active[j]) z[j] = mr.x[static_cast<size_t>(z_col[j])];
  }
  res = detail::assemble_result(inst, active, z);
  res.objective = mr.objective;
  res.bound = mr.best_bound;
  res.optimal = mr.status == MilpStatus::Optimal;
  res.solve_ms = ms;
  static_cast<SearchStats&>(res) = mr;
  res.master_pivots = mr.lp_iterations;
  res.master_refactorizations = mr.lp_refactorizations;
  return res;
}

}  // namespace ovnes::acrr
