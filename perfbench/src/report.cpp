#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile q");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = {
      // End to end: what a user of the workload waits for.
      {"setup_s", "s", Kind::EndToEnd},
      {"ops_per_sec", "1/s", Kind::EndToEnd},
      {"op_p50_ms", "ms", Kind::EndToEnd},
      {"op_p99_ms", "ms", Kind::EndToEnd},
      // scn
      {"scn.script_ms", "ms", Kind::PerLayer},
      {"scn.revenue_p05", "money", Kind::PerLayer},
      // svc
      {"svc.hour_drain_ms", "ms", Kind::PerLayer},
      {"svc.tick_drain_ms", "ms", Kind::PerLayer},
      {"svc.handle_update_us_p50", "us", Kind::PerLayer},
      {"svc.handle_arrival_us_p50", "us", Kind::PerLayer},
      {"svc.handle_arrival_us_p99", "us", Kind::PerLayer},
      {"svc.end_epoch_ms_sum", "ms", Kind::PerLayer},
      {"svc.end_epoch_ms_max", "ms", Kind::PerLayer},
      {"svc.tick_imbalance", "ratio", Kind::PerLayer},
      {"svc.slowest_epoch_share_pct", "%", Kind::PerLayer},
      {"svc.arena_blocks", "count", Kind::PerLayer},
      {"svc.full_resolves", "count", Kind::PerLayer},
      {"svc.greedy_repacks", "count", Kind::PerLayer},
      {"svc.pool_resets", "count", Kind::PerLayer},
      {"svc.rejected_solver", "count", Kind::PerLayer},
      {"svc.queue_peak_depth", "count", Kind::PerLayer},
      // solver: the shards' admission sessions
      {"solver.admit_solves", "count", Kind::PerLayer},
      {"solver.admit_pivots_per_solve", "ratio", Kind::PerLayer},
      {"solver.admit_refactor_per_solve", "ratio", Kind::PerLayer},
      {"solver.admit_kept_ratio", "ratio", Kind::PerLayer},
      {"solver.admit_hypersparse_ratio", "ratio", Kind::PerLayer},
      // solver: Benders masters
      {"solver.mt_master_pivots", "count", Kind::PerLayer},
      {"solver.st_master_pivots", "count", Kind::PerLayer},
      {"solver.pivots_per_round", "ratio", Kind::PerLayer},
      {"solver.strong_probes", "count", Kind::PerLayer},
      {"solver.heuristic_incumbents", "count", Kind::PerLayer},
      {"solver.first_incumbent_nodes", "count", Kind::PerLayer},
      {"solver.resolve_strong_probes", "count", Kind::PerLayer},
      // acrr
      {"acrr.mt_p50_ms", "ms", Kind::PerLayer},
      {"acrr.mt_total_s", "s", Kind::PerLayer},
      {"acrr.st_p50_ms", "ms", Kind::PerLayer},
      {"acrr.st_total_s", "s", Kind::PerLayer},
      {"acrr.kac_p50_ms", "ms", Kind::PerLayer},
      {"acrr.kac_gap_pct", "%", Kind::PerLayer},
      {"acrr.mt_sep_rounds", "count", Kind::PerLayer},
      {"acrr.st_sep_rounds", "count", Kind::PerLayer},
      {"acrr.mt_cuts", "count", Kind::PerLayer},
      {"acrr.st_cuts", "count", Kind::PerLayer},
      {"acrr.st_pool_hits", "count", Kind::PerLayer},
      {"acrr.slave_us_p50", "us", Kind::PerLayer},
      {"acrr.instance_ms", "ms", Kind::PerLayer},
      {"acrr.resolve_sep_rounds", "count", Kind::PerLayer},
      {"acrr.pool_hit_rate", "ratio", Kind::PerLayer},
      // topo
      {"topo.catalog_ms", "ms", Kind::PerLayer},
      // exec + orch
      {"exec.lanes", "count", Kind::PerLayer},
      {"exec.scaling_efficiency", "ratio", Kind::PerLayer},
      {"orch.scenario_ms_p50", "ms", Kind::PerLayer},
      {"orch.solve_share", "ratio", Kind::PerLayer},
      // the harness itself
      {"bench.trace_overhead_pct", "%", Kind::PerLayer},
  };
  return catalog;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& m : metric_catalog()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr) {
    throw std::invalid_argument("metric not in the catalog: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric is not finite: " + name);
  }
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::invalid_argument("metric unset: " + name);
  return it->second;
}

void Report::check(bool ok, const std::string& what) {
  tally.record(ok);
  if (!ok) {
    correct_ = false;
    failed_checks_.push_back(what);
  }
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string Report::json_line(Kind kind) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : metric_catalog()) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end() && kind == Kind::EndToEnd) {
      throw std::logic_error(std::string("end-to-end metric unset: ") + m.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += m.name;
    out += "\": {\"value\": " + format_number(v) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
