// bench_service_day — drive a simulated day of diurnal tenant traffic
// through the online admission-control service (src/svc) and report:
//
//   * decision throughput (admission decisions per second; ISSUE bar 1e4/s)
//   * p50/p90/p99 decision latency (LatencyHistogram over the
//     per-event wall times stamped by AdmissionService::drain)
//   * Benders cut counters of the day's epoch re-solves (pool hits are
//     within one re-solve: each owns its cut pool)
//   * SLA-violation totals accrued under overbooking
//   * the replay check: the decision log of the identical event script is
//     byte-identical (digest-compared) at 1 and 4 worker threads.
//
// The event script comes from scn::make_service_day (seeded RngStream, one
// epoch tick per simulated hour) so both replays and the timed run see the
// exact same byte stream. Usage:
//
//   bench_service_day [--smoke]
//
// `--smoke` (or OVNES_FAST=1) shrinks the day to CI size; output rows are
// `service_day key=value ...` either way.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/thread_pool.hpp"
#include "scn/service_day.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"

namespace ovnes {
namespace {

struct DayConfig {
  std::size_t num_bs = 12;
  std::size_t num_shards = 8;
  std::size_t tenants = 4000;   ///< arrivals over the day
  std::size_t hours = 24;
  std::uint64_t seed = 2018;
};

struct RunResult {
  std::uint64_t digest = 0;
  double seconds = 0.0;
  std::size_t decisions = 0;
  LatencyHistogram latency{0.1, 1e7, 16};
  svc::ServiceStats stats;
};

RunResult run_day(const topo::Topology& topo, const DayConfig& day,
                  const std::vector<svc::Event>& script, std::size_t threads) {
  exec::ThreadPool pool(threads);
  svc::ServiceConfig cfg;
  cfg.num_shards = day.num_shards;
  cfg.queue_capacity = script.size() + 1;  // the day fits; no shedding here
  cfg.shard.full_resolve_every = 6;        // periodic exact re-solve, 4x/day
  cfg.shard.drift_threshold = 0.25;
  cfg.shard.max_resolve_tenants = 40;
  cfg.shard.resolve_max_nodes = 2000;
  svc::AdmissionService service(topo, cfg, &pool);

  const auto t0 = std::chrono::steady_clock::now();
  for (const svc::Event& e : script) {
    if (!service.submit(e)) std::abort();  // sized above; must not shed
  }
  service.drain();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.decisions = service.decisions().size();
  out.digest = service.decision_log_digest();
  out.stats = service.stats();
  for (const svc::Decision& d : service.decisions()) {
    if (d.event == svc::EventType::TenantArrival) {
      out.latency.add(d.latency_us);
    }
  }
  return out;
}

}  // namespace
}  // namespace ovnes

int main(int argc, char** argv) {
  using namespace ovnes;
  bool smoke = bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  DayConfig day;
  if (smoke) {
    day.num_bs = 8;
    day.num_shards = 4;
    day.tenants = 600;
    day.hours = 12;
  }
  const topo::Topology topo =
      topo::make_mini(day.num_bs, 16.0 * double(day.num_bs),
                      32.0 * double(day.num_bs));
  scn::ServiceDayConfig script_cfg;
  script_cfg.tenants = day.tenants;
  script_cfg.hours = day.hours;
  script_cfg.seed = day.seed;
  const std::vector<svc::Event> script = scn::make_service_day(script_cfg);

  // Timed run at 4 workers (the acceptance configuration), then the serial
  // replay of the same script for the byte-identical-log check.
  const RunResult par = run_day(topo, day, script, 4);
  const RunResult ser = run_day(topo, day, script, 1);
  const bool identical = par.digest == ser.digest;

  const double dps = double(par.decisions) / par.seconds;
  const svc::ShardStats& sh = par.stats.shards;
  const long cut_total = sh.cuts_separated + sh.cuts_from_pool;
  const double hit_rate =
      cut_total > 0 ? double(sh.cuts_from_pool) / double(cut_total) : 0.0;

  Row("service_day")
      .set("mode", smoke ? std::string("smoke") : std::string("full"))
      .set("bs", day.num_bs)
      .set("shards", day.num_shards)
      .set("tenants", day.tenants)
      .set("hours", day.hours)
      .set("events", script.size())
      .set("decisions", par.decisions)
      .print();
  Row("service_day")
      .set("decisions_per_sec", dps)
      .set("serial_decisions_per_sec", double(ser.decisions) / ser.seconds)
      .set("wall_sec", par.seconds)
      .print();
  Row("service_day")
      .set("p50_us", par.latency.p50())
      .set("p90_us", par.latency.p90())
      .set("p99_us", par.latency.p99())
      .set("max_us", par.latency.max_seen())
      .print();
  Row("service_day")
      .set("admitted", sh.admitted)
      .set("rejected",
           sh.rejected_profit + sh.rejected_capacity + sh.rejected_no_route +
               sh.rejected_solver)
      .set("expiries", sh.expiries)
      .set("departures", sh.departures)
      .set("full_resolves", sh.full_resolves)
      .set("greedy_repacks", sh.greedy_repacks)
      .print();
  Row("service_day")
      .set("cuts_separated", sh.cuts_separated)
      .set("cuts_from_pool", sh.cuts_from_pool)
      .set("cut_pool_hit_rate", hit_rate)
      .print();
  Row("service_day")
      .set("sla_violation_minutes", sh.violation_minutes)
      .set("violation_samples", sh.violation_samples)
      .set("overbooked_mbps", par.stats.overbooked_mbps)
      .set("radio_headroom_mbps", par.stats.radio_headroom_mbps)
      .print();
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(par.digest));
  Row("service_day")
      .set("replay_threads", std::string("1v4"))
      .set("replay_identical", identical)
      .set("digest", std::string(digest))
      .print();
  if (!identical) {
    std::fprintf(stderr, "FAIL: decision log differs between 1 and 4 threads\n");
    return 1;
  }
  if (dps < 1e4) {
    std::fprintf(stderr, "WARN: %.0f decisions/sec below the 1e4 target\n", dps);
  }
  return 0;
}
