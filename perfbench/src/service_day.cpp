// service_day: the catalog's flash day (svc/service_day_flash) through the
// online admission service, closed loop with one producer.
//
// Each hour the producer submits that hour's events in one to three
// batches (the seed picks the batch count and split points), calling
// drain() after each batch, then submits the EpochTick and drains again.
// The decision log is a pure function of the event log, so every batching
// must give the same digest as one submit-everything-then-drain pass, at
// one lane and at N lanes; those are the run-level checks.
//
// The traced run also replays the script through standalone svc::Shard
// objects, so each shard's end_epoch is timed from outside the service.
#include <algorithm>
#include <cinttypes>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "affinity.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "scn/service_day.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ovnes::svc::Decision;
using ovnes::svc::DecisionKind;
using ovnes::svc::Event;
using ovnes::svc::EventType;

constexpr std::uint64_t kCatalogDaySeed = 2018;
/// Decision-log digest of svc/service_day_flash in BENCH_10.json.
constexpr std::uint64_t kCatalogDigest = 0x00c16bc7946c412full;
constexpr std::size_t kShards = 8;
constexpr std::size_t kBs = 12;
constexpr int kSetups = 7;

ovnes::scn::ServiceDayConfig day_config(int panel) {
  ovnes::scn::ServiceDayConfig day;
  day.tenants = 4000;
  day.hours = 24;
  day.seed = kCatalogDaySeed + static_cast<std::uint64_t>(panel);
  day.flash.spikes = 2;
  return day;
}

ovnes::topo::Topology plane() {
  return ovnes::topo::make_mini(kBs, 16.0 * kBs, 32.0 * kBs);
}

ovnes::svc::ServiceConfig service_config(std::size_t queue_capacity) {
  ovnes::svc::ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.queue_capacity = queue_capacity;
  cfg.shard.full_resolve_every = 6;
  cfg.shard.drift_threshold = 0.25;
  cfg.shard.max_resolve_tenants = 40;
  cfg.shard.resolve_max_nodes = 2000;
  return cfg;
}

/// The script cut into submit batches: batch b is [cuts[b], cuts[b + 1]).
/// An EpochTick is always alone in its batch, so every hour ends with a
/// tick drain.
using Batches = std::vector<std::size_t>;

Batches seeded_batches(const std::vector<Event>& script, std::uint64_t seed) {
  const ovnes::RngStream root(seed);
  Batches b{0};
  std::size_t hour_start = 0;
  std::size_t hour = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (script[i].type != EventType::EpochTick) continue;
    // Hour events [hour_start, i), then the tick [i, i + 1).
    ovnes::RngStream r = root.derive("batches", hour++);
    const auto n = static_cast<std::size_t>(r.uniform_int(1, 3));
    std::vector<std::size_t> cut;
    for (std::size_t k = 1; k < n && i > hour_start; ++k) {
      cut.push_back(hour_start + static_cast<std::size_t>(r.uniform_int(
                                     0, static_cast<std::int64_t>(i - hour_start))));
    }
    std::sort(cut.begin(), cut.end());
    for (const std::size_t c : cut) {
      if (c > b.back()) b.push_back(c);
    }
    if (i > b.back()) b.push_back(i);
    b.push_back(i + 1);
    hour_start = i + 1;
  }
  if (script.size() > b.back()) b.push_back(script.size());
  return b;
}

Batches one_shot(const std::vector<Event>& script) { return {0, script.size()}; }

struct Replay {
  double wall_s = 0.0;
  double hour_drain_s = 0.0;
  double tick_drain_s = 0.0;
  std::size_t decisions = 0;
  std::uint64_t digest = 0;
  std::vector<Decision> log;  ///< kept only when asked for
  std::uint64_t arrivals = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected_solver = 0;
  std::vector<double> arrival_latency_us;
  ovnes::svc::ServiceStats stats;
  std::size_t arena_blocks = 0;
  ovnes::solver::LpSession::Stats session;  ///< Σ over shards
};

Replay replay(const std::vector<Event>& script, const ovnes::topo::Topology& topo,
              const Batches& batches, ovnes::exec::ThreadPool& pool,
              Tracer& tr, bool keep_log = false) {
  Tracer::Scope root(tr, "bench.replay");
  std::unique_ptr<ovnes::svc::AdmissionService> service;
  {
    Tracer::Scope s(tr, "svc.AdmissionService");
    service = std::make_unique<ovnes::svc::AdmissionService>(
        topo, service_config(script.size() + 1), &pool);
  }
  Replay out;
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b + 1 < batches.size(); ++b) {
    const std::size_t lo = batches[b];
    const std::size_t hi = batches[b + 1];
    for (std::size_t i = lo; i < hi; ++i) {
      if (!service->submit(script[i])) ++out.shed;
    }
    const bool tick = script[hi - 1].type == EventType::EpochTick;
    const auto d0 = Clock::now();
    {
      Tracer::Scope s(tr, tick ? "svc.drain.tick" : "svc.drain.hour");
      service->drain();
    }
    (tick ? out.tick_drain_s : out.hour_drain_s) += seconds_since(d0);
  }
  out.wall_s = seconds_since(t0);

  const auto& log = service->decisions();
  out.decisions = log.size();
  out.arrival_latency_us.reserve(script.size() / 8);
  for (const Decision& d : log) {
    if (d.event != EventType::TenantArrival) continue;
    ++out.arrivals;
    out.arrival_latency_us.push_back(d.latency_us);
    if (d.kind == DecisionKind::RejectedSolver) ++out.rejected_solver;
  }
  out.digest = service->decision_log_digest();
  if (keep_log) out.log = log;
  out.stats = service->stats();
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    const auto& sh = service->shard(s);
    out.arena_blocks += sh.arena_stats().blocks;
    const auto& ss = sh.session_stats();
    out.session.solves += ss.solves;
    out.session.iterations += ss.iterations;
    out.session.refactorizations += ss.refactorizations;
    out.session.kept_solves += ss.kept_solves;
    out.session.kernel_solves += ss.kernel_solves;
    out.session.hypersparse_hits += ss.hypersparse_hits;
  }
  return out;
}

/// Same decision, every field but the measured latency.
bool same_decision(const Decision& a, const Decision& b) {
  return a.seq == b.seq && a.tenant_id == b.tenant_id && a.event == b.event &&
         a.shard == b.shard && a.kind == b.kind && a.z_total == b.z_total &&
         a.value == b.value;
}

/// The script through standalone shards, serially, every call timed.
struct ShardReplay {
  double wall_s = 0.0;
  std::vector<Decision> log;     ///< in the service's canonical order
  ovnes::svc::ShardStats stats;  ///< Σ over shards
  std::vector<double> arrival_us, update_us;
  /// [epoch][shard] end_epoch wall, ms.
  std::vector<std::vector<double>> end_epoch_ms;
};

ShardReplay shard_replay(const std::vector<Event>& script,
                         const ovnes::topo::Topology& topo, Tracer& tr) {
  Tracer::Scope root(tr, "bench.shard_replay");
  ovnes::svc::ShardConfig sc = service_config(0).shard;
  sc.capacity_fraction = 1.0 / static_cast<double>(kShards);
  std::vector<std::unique_ptr<ovnes::svc::Shard>> shards;
  {
    Tracer::Scope g(tr, "svc.Shard");
    for (std::size_t s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<ovnes::svc::Shard>(
          topo, sc, static_cast<std::uint32_t>(s)));
    }
  }
  ShardReplay out;
  out.log.reserve(script.size() + script.size() / 8);
  std::vector<Decision> expiries;
  std::size_t epoch = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < script.size(); ++i) {
    const std::uint64_t seq = i + 1;  // EventQueue stamps from 1
    const Event& e = script[i];
    if (e.type == EventType::EpochTick) {
      out.end_epoch_ms.emplace_back(kShards, 0.0);
      for (std::size_t s = 0; s < kShards; ++s) {
        expiries.clear();
        const double a = tr.now_us();
        const auto c0 = Clock::now();
        shards[s]->end_epoch(epoch, expiries);
        out.end_epoch_ms.back()[s] = 1e3 * seconds_since(c0);
        tr.leaf("svc.Shard.end_epoch", a, tr.now_us());
        for (Decision d : expiries) {
          d.seq = seq;
          out.log.push_back(d);
        }
      }
      ++epoch;
      continue;
    }
    const std::uint32_t s =
        ovnes::svc::AdmissionService::shard_of(e.tenant_id, kShards);
    const double a = tr.now_us();
    const auto c0 = Clock::now();
    Decision d = shards[s]->handle(e);
    const double us = 1e6 * seconds_since(c0);
    tr.leaf("svc.Shard.handle", a, tr.now_us());
    if (e.type == EventType::TenantArrival) out.arrival_us.push_back(us);
    if (e.type == EventType::DemandUpdate) out.update_us.push_back(us);
    d.seq = seq;
    out.log.push_back(d);
  }
  out.wall_s = seconds_since(t0);
  for (const auto& sh : shards) out.stats.accumulate(sh->stats());
  return out;
}

bool same_stats(const ovnes::svc::ShardStats& a, const ovnes::svc::ShardStats& b) {
  return a.arrivals == b.arrivals && a.admitted == b.admitted &&
         a.rejected_profit == b.rejected_profit &&
         a.rejected_capacity == b.rejected_capacity &&
         a.rejected_no_route == b.rejected_no_route &&
         a.rejected_duplicate == b.rejected_duplicate &&
         a.rejected_full == b.rejected_full &&
         a.rejected_solver == b.rejected_solver &&
         a.departures == b.departures && a.updates == b.updates &&
         a.expiries == b.expiries && a.unknown_tenant == b.unknown_tenant &&
         a.full_resolves == b.full_resolves &&
         a.greedy_repacks == b.greedy_repacks &&
         a.pool_resets == b.pool_resets &&
         a.cuts_separated == b.cuts_separated &&
         a.cuts_from_pool == b.cuts_from_pool &&
         a.cuts_evicted == b.cuts_evicted &&
         a.separation_rounds == b.separation_rounds &&
         a.pseudocost_branchings == b.pseudocost_branchings &&
         a.strong_probes == b.strong_probes &&
         a.heuristic_incumbents == b.heuristic_incumbents &&
         a.first_incumbent_nodes == b.first_incumbent_nodes &&
         a.violation_minutes == b.violation_minutes &&
         a.violation_samples == b.violation_samples;
}

/// Per admission, the median of its latency over the replays, in ms.
std::vector<double> per_admission_ms(const std::vector<Replay>& replays) {
  const std::size_t n = replays.front().arrival_latency_us.size();
  std::vector<double> out(n);
  std::vector<double> v(replays.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < replays.size(); ++r) {
      if (replays[r].arrival_latency_us.size() != n) {
        throw std::logic_error("replays made different admissions");
      }
      v[r] = replays[r].arrival_latency_us[i];
    }
    out[i] = 1e-3 * median(v);
  }
  return out;
}

}  // namespace

void run_service_day(const RunOptions& opt, Tracer& tr, Report& report) {
  ovnes::exec::ThreadPool& pool = ovnes::exec::ThreadPool::global();
  const ovnes::scn::ServiceDayConfig cfg = day_config(opt.panel);

  // Set-up, several times: script, plane, one service and a warm-up drain
  // of the first hour's arrivals and updates on it.
  std::vector<Event> script;
  ovnes::topo::Topology topo;
  std::vector<double> setup_s, script_ms;
  for (int k = 0; k < kSetups; ++k) {
    Tracer::Scope s(tr, "bench.setup");
    const auto t0 = Clock::now();
    {
      Tracer::Scope g(tr, "scn.make_service_day");
      script = ovnes::scn::make_service_day(cfg);
    }
    script_ms.push_back(1e3 * seconds_since(t0));
    {
      Tracer::Scope g(tr, "topo.make_mini");
      topo = plane();
    }
    ovnes::svc::AdmissionService warm(topo, service_config(script.size() + 1),
                                      &pool);
    {
      Tracer::Scope g(tr, "svc.drain.warmup");
      for (const Event& e : script) {
        if (e.type == EventType::EpochTick) break;
        (void)warm.submit(e);
      }
      warm.drain();
    }
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s));
  report.set("scn.script_ms", median(script_ms));

  const Batches batches = seeded_batches(script, opt.seed);
  note("service_day: day seed %" PRIu64 ", %zu events in %zu batches, %zu lanes",
       cfg.seed, script.size(), batches.size() - 1, pool.size());

  // One untimed replay first: each lane's first re-solves run slower than
  // later ones. Then the timed replays, the main thread (one of the drain
  // lanes) on the next CPU for each; a traced run alternates untraced and
  // traced replays, so the tracing overhead is measured in the same process.
  Tracer off(false, tr.run_id());
  (void)replay(script, topo, batches, pool, off);
  std::vector<Replay> timed, plain;
  {
    CpuRotation cpus;
    const auto start = Clock::now();
    do {
      if (opt.trace) {
        cpus.next();
        plain.push_back(replay(script, topo, batches, pool, off));
      }
      cpus.next();
      timed.push_back(replay(script, topo, batches, pool, tr));
    } while (seconds_since(start) < opt.seconds);
  }

  std::vector<double> dps, hour_ms, tick_ms, walls;
  std::uint64_t rejected_solver = 0, shed = 0, arrivals = 0;
  for (const Replay& r : timed) {
    dps.push_back(static_cast<double>(r.decisions) / r.wall_s);
    hour_ms.push_back(1e3 * r.hour_drain_s);
    tick_ms.push_back(1e3 * r.tick_drain_s);
    walls.push_back(r.wall_s);
    rejected_solver += r.rejected_solver;
    shed += r.shed;
    arrivals += r.arrivals;
  }
  std::string wall_list;
  for (const double w : walls) wall_list += " " + std::to_string(1e3 * w);
  note("service_day: replay walls (ms):%s", wall_list.c_str());
  report.set("ops_per_sec", median(dps));
  // Every replay makes the same admissions in the same order, so each
  // admission's latency is its median over the replays; the percentiles
  // are then taken over admissions (a preempted replay cannot move them).
  const std::vector<double> admit_ms = per_admission_ms(timed);
  report.set("op_p50_ms", percentile(admit_ms, 0.50));
  report.set("op_p99_ms", percentile(admit_ms, 0.99));
  // A RejectedSolver decision or a shed submit is a failed admission.
  report.tally.add(arrivals, rejected_solver + shed);

  // Run-level checks: every batching, lane count and replay gives one log.
  const Replay& ref = timed.front();
  bool stable = true;
  for (const Replay& r : timed) stable = stable && r.digest == ref.digest;
  for (const Replay& r : plain) stable = stable && r.digest == ref.digest;
  report.check(stable, "service_day: decision digest differs between replays");
  const Replay shot = replay(script, topo, one_shot(script), pool, off, opt.trace);
  report.check(shot.digest == ref.digest,
               "service_day: batched digest differs from a one-shot drain");
  ovnes::exec::ThreadPool one_lane(1);
  const Replay serial = replay(script, topo, batches, one_lane, off);
  report.check(serial.digest == ref.digest,
               "service_day: 1-lane digest differs from the N-lane digest");
  if (opt.panel == 0) {
    report.check(ref.digest == kCatalogDigest,
                 "service_day: digest differs from BENCH_10.json");
  }
  note("service_day: %zu replays, digest %016" PRIx64 " (one-shot %016" PRIx64
       ", 1-lane %016" PRIx64 "), admitted %" PRIu64 ", failed admissions %" PRIu64
       " of %" PRIu64,
       timed.size(), ref.digest, shot.digest, serial.digest,
       static_cast<std::uint64_t>(ref.stats.shards.admitted),
       rejected_solver + shed, arrivals);

  if (!opt.trace) return;

  // ---- per-layer metrics (traced run only)
  const auto& sh = ref.stats.shards;
  report.set("svc.hour_drain_ms", median(hour_ms));
  report.set("svc.tick_drain_ms", median(tick_ms));
  report.set("svc.arena_blocks", static_cast<double>(ref.arena_blocks));
  report.set("svc.full_resolves", static_cast<double>(sh.full_resolves));
  report.set("svc.greedy_repacks", static_cast<double>(sh.greedy_repacks));
  report.set("svc.pool_resets", static_cast<double>(sh.pool_resets));
  report.set("svc.rejected_solver", static_cast<double>(sh.rejected_solver));
  report.set("svc.queue_peak_depth",
             static_cast<double>(ref.stats.queue.peak_depth));
  const auto& ss = ref.session;
  const auto solves = static_cast<double>(ss.solves);
  report.set("solver.admit_solves", solves);
  report.set("solver.admit_pivots_per_solve",
             ratio(static_cast<double>(ss.iterations), solves));
  report.set("solver.admit_refactor_per_solve",
             ratio(static_cast<double>(ss.refactorizations), solves));
  report.set("solver.admit_kept_ratio",
             ratio(static_cast<double>(ss.kept_solves), solves));
  report.set("solver.admit_hypersparse_ratio",
             ratio(static_cast<double>(ss.hypersparse_hits),
                   static_cast<double>(ss.kernel_solves)));
  report.set("solver.resolve_strong_probes", static_cast<double>(sh.strong_probes));
  report.set("acrr.resolve_sep_rounds", static_cast<double>(sh.separation_rounds));
  report.set("acrr.pool_hit_rate",
             ratio(static_cast<double>(sh.cuts_from_pool),
                   static_cast<double>(sh.cuts_from_pool + sh.cuts_separated)));

  std::vector<double> plain_walls;
  for (const Replay& r : plain) plain_walls.push_back(r.wall_s);
  const double overhead = 100.0 * (median(walls) / median(plain_walls) - 1.0);
  report.set("bench.trace_overhead_pct", overhead);

  const ShardReplay sr = shard_replay(script, topo, tr);
  report.check(same_stats(sr.stats, sh),
               "service_day: standalone-shard ShardStats differ from the service's");
  report.check(std::equal(sr.log.begin(), sr.log.end(), shot.log.begin(),
                          shot.log.end(), same_decision),
               "service_day: standalone-shard decision log differs from the service's");
  report.set("svc.handle_update_us_p50", percentile(sr.update_us, 0.50));
  report.set("svc.handle_arrival_us_p50", percentile(sr.arrival_us, 0.50));
  report.set("svc.handle_arrival_us_p99", percentile(sr.arrival_us, 0.99));

  double sum_ms = 0.0, max_ms = 0.0, worst_imbalance = 0.0;
  std::size_t max_epoch = 0, max_shard = 0;
  double worst_tick_max = -1.0;
  for (std::size_t ep = 0; ep < sr.end_epoch_ms.size(); ++ep) {
    const auto& row = sr.end_epoch_ms[ep];
    double row_sum = 0.0, row_max = 0.0;
    for (std::size_t s = 0; s < row.size(); ++s) {
      row_sum += row[s];
      if (row[s] > row_max) row_max = row[s];
      if (row[s] > max_ms) {
        max_ms = row[s];
        max_epoch = ep;
        max_shard = s;
      }
    }
    sum_ms += row_sum;
    // The slowest tick's barrier is what the replay waits for.
    if (row_max > worst_tick_max) {
      worst_tick_max = row_max;
      worst_imbalance = row_max / (row_sum / static_cast<double>(row.size()));
    }
  }
  const double share = 100.0 * (1e-3 * max_ms) / median(walls);
  report.set("svc.end_epoch_ms_sum", sum_ms);
  report.set("svc.end_epoch_ms_max", max_ms);
  report.set("svc.tick_imbalance", worst_imbalance);
  report.set("svc.slowest_epoch_share_pct", share);
  note("service_day: slowest shard-epoch: shard %zu at epoch %zu, %.1f ms = "
       "%.1f%% of the %.1f ms replay wall; tick imbalance %.2f (max / mean)",
       max_shard, max_epoch, max_ms, share, 1e3 * median(walls), worst_imbalance);
  note("service_day: tracing overhead %.2f%% (traced replay %.1f ms, untraced "
       "%.1f ms)",
       overhead, 1e3 * median(walls), 1e3 * median(plain_walls));
  note("service_day: standalone-shard replay %.1f ms serial, %zu decisions, "
       "admitted %" PRIu64 ", full_resolves %" PRIu64 ", greedy_repacks %" PRIu64,
       1e3 * sr.wall_s, sr.log.size(), static_cast<std::uint64_t>(sr.stats.admitted),
       static_cast<std::uint64_t>(sr.stats.full_resolves),
       static_cast<std::uint64_t>(sr.stats.greedy_repacks));
}

}  // namespace perfbench
