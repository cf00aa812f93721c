// sla_risk: the Monte Carlo SLA-risk sweep in the mc/sla_risk_1200 shape.
//
// 1200 scenarios per sweep on the mini 5-BS topology with KAC and forecast
// bias 0.2; the seed is the sweep seed, so it draws every scenario. Timed
// sweeps fan the scenarios over the exec pool. After each, a latency sample
// runs the same scenarios through orch::run_scenario on the same pool,
// timing each call, and must reproduce the sweep's rows digest. The traced run adds a
// one-lane sweep for the scaling efficiency and a serial sample for the
// orch metrics; their digests must match too.
#include <algorithm>
#include <cinttypes>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "scn/montecarlo.hpp"
#include "topo/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kScenarios = 1200;
constexpr std::size_t kWarmupScenarios = 200;
constexpr int kSetups = 7;

ovnes::scn::SlaRiskConfig sweep_config(std::uint64_t seed, std::size_t scenarios) {
  ovnes::scn::SlaRiskConfig cfg;
  cfg.scenarios = scenarios;
  cfg.seed = seed;
  cfg.forecast.bias = 0.2;
  return cfg;
}

ovnes::slice::SliceType draw_type(ovnes::RngStream& rng) {
  const double u = rng.uniform();
  if (u < 0.70) return ovnes::slice::SliceType::eMBB;
  if (u < 0.90) return ovnes::slice::SliceType::mMTC;
  return ovnes::slice::SliceType::uRLLC;
}

/// Scenario i of the sweep, built as scn::run_sla_risk_sweep builds it.
ovnes::orch::ScenarioConfig scenario(const ovnes::scn::SlaRiskConfig& cfg,
                                     std::size_t i) {
  const ovnes::RngStream root(cfg.seed);
  ovnes::RngStream sr = root.derive("scenario", i);
  ovnes::orch::ScenarioConfig sc;
  sc.topology_factory = [num_bs = cfg.num_bs, cores = cfg.edge_cores_per_bs] {
    const auto n = static_cast<double>(num_bs);
    return ovnes::topo::make_mini(num_bs, cores * n, 100.0 * n);
  };
  sc.seed = sr.derive("sim").seed();
  sc.k_paths = cfg.k_paths;
  sc.algorithm = cfg.algorithm;
  sc.samples_per_epoch = cfg.samples_per_epoch;
  sc.min_epochs = cfg.min_epochs;
  sc.max_epochs = cfg.max_epochs;
  sc.target_rse = 0.0;
  sc.forecast_bias = cfg.forecast.bias;
  sc.forecast_noise = cfg.forecast.noise;
  const auto n_tenants = static_cast<std::size_t>(sr.derive("tenants").uniform_int(
      static_cast<std::int64_t>(cfg.tenants_min),
      static_cast<std::int64_t>(cfg.tenants_max)));
  for (std::size_t t = 0; t < n_tenants; ++t) {
    ovnes::RngStream tr = sr.derive("tenant", t);
    ovnes::orch::TenantSpec spec;
    spec.type = draw_type(tr);
    const double scale = ovnes::scn::sample_heavy_tail(tr, cfg.load_tail);
    spec.alpha = std::min(cfg.alpha_cap, cfg.base_alpha * scale);
    spec.sigma_ratio = cfg.sigma_ratio;
    spec.penalty_m = cfg.penalty_m;
    sc.tenants.push_back(spec);
  }
  return sc;
}

/// The sweep's canonical row for scenario i (its rows_digest input).
void append_row(std::string& rows, std::size_t i, const ovnes::orch::ScenarioResult& r) {
  rows += std::to_string(i) + ' ' + std::to_string(r.accepted) + '/' +
          std::to_string(r.requested) + ' ' +
          ovnes::json::format_double(r.mean_net_revenue) + ' ' +
          ovnes::json::format_double(r.violation_prob) + ' ' +
          ovnes::json::format_double(r.violation_minutes) + '\n';
}

struct Sample {
  std::vector<double> ms;  ///< per scenario, wall of its run_scenario call
  double solve_ms = 0.0;   ///< Σ ScenarioResult::solve_ms
  std::uint64_t rows_digest = 0;
};

/// Every scenario of the sweep through orch::run_scenario on `pool`.
Sample run_sample(const std::vector<ovnes::orch::ScenarioConfig>& sample,
                  ovnes::exec::ThreadPool& pool, Tracer& tr) {
  Tracer::Scope s(tr, pool.size() == 1 ? "bench.serial_sample" : "bench.sample");
  Sample out;
  out.ms.assign(sample.size(), 0.0);
  std::vector<ovnes::orch::ScenarioResult> results(sample.size());
  std::vector<std::pair<double, double>> spans(sample.size());
  pool.parallel_for(0, sample.size(), [&](std::size_t i) {
    const double a = tr.now_us();
    const auto c = Clock::now();
    results[i] = ovnes::orch::run_scenario(sample[i]);
    out.ms[i] = 1e3 * seconds_since(c);
    spans[i] = {a, tr.now_us()};
  });
  // Spans are recorded here, on the main thread, in scenario order.
  for (const auto& [a, b] : spans) tr.leaf("orch.run_scenario", a, b);
  std::string rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out.solve_ms += results[i].solve_ms;
    append_row(rows, i, results[i]);
  }
  out.rows_digest = ovnes::scn::fnv1a(rows);
  return out;
}

struct Sweep {
  double wall_s = 0.0;
  ovnes::scn::SlaRiskResult result;
};

Sweep sweep(const ovnes::scn::SlaRiskConfig& cfg, ovnes::exec::ThreadPool& pool,
            Tracer& tr, const char* span) {
  Tracer::Scope s(tr, span);
  Sweep out;
  const auto t0 = Clock::now();
  out.result = ovnes::scn::run_sla_risk_sweep(cfg, &pool);
  out.wall_s = seconds_since(t0);
  return out;
}

}  // namespace

void run_sla_risk(const RunOptions& opt, Tracer& tr, Report& report) {
  ovnes::exec::ThreadPool& pool = ovnes::exec::ThreadPool::global();
  const ovnes::scn::SlaRiskConfig cfg = sweep_config(opt.seed, kScenarios);

  // Set-up, several times: the latency sample's scenario configs, then a
  // short warm-up sweep on the pool (a process's first sweep runs at half
  // speed).
  std::vector<ovnes::orch::ScenarioConfig> sample;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    Tracer::Scope s(tr, "bench.setup");
    const auto t0 = Clock::now();
    sample.clear();
    for (std::size_t i = 0; i < kScenarios; ++i) sample.push_back(scenario(cfg, i));
    (void)sweep(sweep_config(opt.seed, kWarmupScenarios), pool, tr,
                "scn.run_sla_risk_sweep.warmup");
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s));
  note("sla_risk: sweep seed %" PRIu64 ", %zu scenarios, %zu lanes", cfg.seed,
       cfg.scenarios, pool.size());

  // Timed sweeps, each followed by one repetition of the latency sample:
  // the sweep's scenarios fanned over the same pool, each call timed on its
  // lane. A scenario's latency is its median over the repetitions, which
  // are spread over the whole run, so neither one preempted call nor one
  // slow stretch of the run moves the tail. Only the first repetition is
  // traced.
  Tracer off(false, tr.run_id());
  std::vector<Sweep> timed, plain;
  std::vector<std::vector<double>> reps_ms(sample.size());
  std::vector<std::uint64_t> sample_digests;
  const auto start = Clock::now();
  do {
    if (opt.trace) plain.push_back(sweep(cfg, pool, off, "scn.run_sla_risk_sweep"));
    timed.push_back(sweep(cfg, pool, tr, "scn.run_sla_risk_sweep"));
    const Sample smp = run_sample(sample, pool, sample_digests.empty() ? tr : off);
    for (std::size_t i = 0; i < sample.size(); ++i) reps_ms[i].push_back(smp.ms[i]);
    sample_digests.push_back(smp.rows_digest);
    report.tally.add(sample.size(), 0);
  } while (seconds_since(start) < opt.seconds);

  std::vector<double> rate, walls;
  for (const Sweep& s : timed) {
    rate.push_back(static_cast<double>(s.result.scenarios) / s.wall_s);
    walls.push_back(s.wall_s);
    report.tally.add(s.result.scenarios, 0);
  }
  report.set("ops_per_sec", median(rate));

  std::vector<double> scenario_ms;
  for (const auto& v : reps_ms) scenario_ms.push_back(median(v));
  report.set("op_p50_ms", percentile(scenario_ms, 0.50));
  report.set("op_p99_ms", percentile(scenario_ms, 0.99));

  const std::uint64_t digest = timed.front().result.rows_digest;
  bool stable = true;
  for (const Sweep& s : timed) stable = stable && s.result.rows_digest == digest;
  for (const Sweep& s : plain) stable = stable && s.result.rows_digest == digest;
  report.check(stable, "sla_risk: rows digest differs between sweeps");
  bool sample_same = true;
  for (const std::uint64_t d : sample_digests) sample_same = sample_same && d == digest;
  report.check(sample_same,
               "sla_risk: run_scenario sample rows differ from the sweep's");
  const auto& agg = timed.front().result;
  note("sla_risk: %zu sweeps, rows digest %016" PRIx64 " (sample %016" PRIx64
       "), accept rate %.4f, revenue p05 %.4f p50 %.4f",
       timed.size(), digest, sample_digests.front(), agg.accept_rate,
       agg.revenue_p05, agg.revenue_p50);

  if (!opt.trace) return;

  ovnes::exec::ThreadPool one_lane(1);
  const Sweep serial = sweep(cfg, one_lane, tr, "scn.run_sla_risk_sweep.1lane");
  report.check(serial.result.rows_digest == digest,
               "sla_risk: 1-lane rows digest differs from the N-lane digest");
  const double t_n = median(walls);
  const auto lanes = static_cast<double>(pool.size());
  report.set("exec.lanes", lanes);
  report.set("exec.scaling_efficiency", serial.wall_s / (lanes * t_n));
  report.set("scn.revenue_p05", agg.revenue_p05);

  // Serial sample: the same scenarios one at a time on the main thread.
  const Sample serial_sample = run_sample(sample, one_lane, tr);
  report.tally.add(sample.size(), 0);
  report.check(serial_sample.rows_digest == digest,
               "sla_risk: serial run_scenario rows differ from the sweep's");
  double sample_ms = 0.0;
  for (const double ms : serial_sample.ms) sample_ms += ms;
  report.set("orch.scenario_ms_p50", percentile(serial_sample.ms, 0.50));
  report.set("orch.solve_share", serial_sample.solve_ms / sample_ms);

  std::vector<double> plain_w;
  for (const Sweep& s : plain) plain_w.push_back(s.wall_s);
  const double overhead = 100.0 * (t_n / median(plain_w) - 1.0);
  report.set("bench.trace_overhead_pct", overhead);
  note("sla_risk: 1-lane sweep %.1f ms vs %.1f ms on %zu lanes (efficiency "
       "%.3f); tracing overhead %.2f%%",
       1e3 * serial.wall_s, 1e3 * t_n, pool.size(),
       serial.wall_s / (lanes * t_n), overhead);
}

}  // namespace perfbench
