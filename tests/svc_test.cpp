// Tests for the online admission-control service (src/svc): deterministic
// replay across thread counts, tenant state transitions, arena/slab reuse on
// the hot path, overload shedding, fixed-duration expiry and the solver
// work of epoch re-solves.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "scn/service_day.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"

namespace ovnes::svc {
namespace {

topo::Topology mini() { return topo::make_mini(4, 32.0, 64.0); }

/// A deterministic mixed-workload event script: arrivals of all three slice
/// types, forecast-refreshing demand updates, departures and epoch ticks.
std::vector<Event> make_script(std::size_t tenants, std::size_t epochs) {
  std::vector<Event> ev;
  RngStream rng(91);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  for (std::size_t ep = 0; ep < epochs; ++ep) {
    for (std::size_t a = 0; a < tenants / epochs; ++a) {
      const auto pick = static_cast<int>(rng.uniform(0.0, 3.0));
      const auto type = pick == 0 ? slice::SliceType::eMBB
                        : pick == 1 ? slice::SliceType::mMTC
                                    : slice::SliceType::uRLLC;
      const double sla = slice::standard_template(type).sla_rate;
      const std::uint64_t id = next_id++;
      ev.push_back(make_arrival(id, type, rng.uniform(0.2, 0.8) * sla,
                                rng.uniform(0.05, 0.5), 1.0,
                                pick == 2 ? 2 : 0));
      live.push_back(id);
    }
    // Touch every third live tenant: refreshed forecast + observed peak.
    for (std::size_t i = 0; i < live.size(); i += 3) {
      const double obs = rng.uniform(0.0, 60.0);
      ev.push_back(make_demand_update(live[i], obs, rng.uniform(5.0, 45.0)));
    }
    // A departure per epoch once enough tenants exist.
    if (live.size() > 4) {
      ev.push_back(make_departure(live[1]));
      live.erase(live.begin() + 1);
    }
    ev.push_back(make_epoch_tick());
  }
  return ev;
}

std::string run_script(const std::vector<Event>& script, std::size_t threads,
                       std::size_t num_shards) {
  exec::ThreadPool pool(threads);
  ServiceConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.full_resolve_every = 2;
  cfg.shard.drift_threshold = 0.10;
  AdmissionService svc(mini(), cfg, &pool);
  for (const Event& e : script) EXPECT_TRUE(svc.submit(e));
  svc.drain();
  return svc.decision_log();
}

// ------------------------------------------------------------ determinism

TEST(SvcReplay, DecisionLogByteIdenticalAcrossThreadCounts) {
  // The ISSUE acceptance bar: the decision stream is a pure function of the
  // accepted event log — OVNES_THREADS ∈ {1, 4} must replay byte-identical,
  // including the drift-triggered Benders re-solves at epoch ticks.
  const std::vector<Event> script = make_script(36, 6);
  const std::string serial = run_script(script, 1, 4);
  const std::string parallel = run_script(script, 4, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(SvcReplay, DrainGranularityDoesNotChangeTheLog) {
  // Draining after every submit vs. once at the end: same log (the queue's
  // seq stamping, not the drain schedule, defines the order) — as long as
  // segment boundaries (epoch ticks) line up, which they do since ticks
  // are barriers in both drains.
  const std::vector<Event> script = make_script(24, 4);
  exec::ThreadPool pool(2);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.full_resolve_every = 2;
  AdmissionService one(mini(), cfg, &pool);
  AdmissionService many(mini(), cfg, &pool);
  for (const Event& e : script) ASSERT_TRUE(one.submit(e));
  one.drain();
  for (const Event& e : script) {
    ASSERT_TRUE(many.submit(e));
    many.drain();
  }
  EXPECT_EQ(one.decision_log(), many.decision_log());
  EXPECT_EQ(one.decision_log_digest(), many.decision_log_digest());
}

// ------------------------------------------------------- state transitions

TEST(SvcState, ArrivalUpdateDepartureLifecycle) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  const std::uint64_t id = 7;

  ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  ASSERT_EQ(svc.decisions().size(), 1u);
  EXPECT_EQ(svc.decisions()[0].kind, DecisionKind::Admitted);
  EXPECT_GT(svc.decisions()[0].z_total, 0.0);
  EXPECT_TRUE(svc.shard(0).has_tenant(id));
  EXPECT_GT(svc.shard(0).reservation_total(id), 0.0);

  // Duplicate arrival is rejected without touching state.
  ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[1].kind, DecisionKind::RejectedDuplicate);
  EXPECT_EQ(svc.shard(0).num_tenants(), 1u);

  // Saturate the radio (each mini() BS carries 150 Mbps = 3 full Λ=50
  // reservations), then overbook: tenant 10 is admitted with ~zero
  // reserved on every BS.
  ASSERT_TRUE(svc.submit(make_arrival(8, slice::SliceType::eMBB, 20.0, 0.2)));
  ASSERT_TRUE(svc.submit(make_arrival(9, slice::SliceType::eMBB, 20.0, 0.2)));
  ASSERT_TRUE(svc.submit(make_arrival(10, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[4].kind, DecisionKind::Admitted);
  EXPECT_LT(svc.shard(0).reservation_total(10), 1.0);

  // An observed peak above tenant 10's (empty) reservation accrues
  // SLA-violation minutes on every BS.
  ASSERT_TRUE(svc.submit(make_demand_update(10, 20.0)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[5].kind, DecisionKind::Updated);
  EXPECT_GT(svc.decisions()[5].value, 0.99);  // violated-BS fraction = 1
  EXPECT_GT(svc.stats().shards.violation_minutes, 0.0);

  // Departure frees the slot and the committed capacity.
  ASSERT_TRUE(svc.submit(make_departure(id)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[6].kind, DecisionKind::Departed);
  EXPECT_FALSE(svc.shard(0).has_tenant(id));
  EXPECT_EQ(svc.shard(0).num_tenants(), 3u);

  // Operations on unknown tenants are reported, not crashed on.
  ASSERT_TRUE(svc.submit(make_departure(999)));
  ASSERT_TRUE(svc.submit(make_demand_update(999, 10.0)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[7].kind, DecisionKind::Unknown);
  EXPECT_EQ(svc.decisions()[8].kind, DecisionKind::Unknown);
  EXPECT_EQ(svc.stats().shards.unknown_tenant, 2u);
}

TEST(SvcState, FixedDurationSliceExpiresAtTheTick) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  const std::uint64_t id = 3;
  ASSERT_TRUE(svc.submit(
      make_arrival(id, slice::SliceType::eMBB, 15.0, 0.2, 1.0, 2)));
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  EXPECT_TRUE(svc.shard(0).has_tenant(id));  // 1 of 2 epochs elapsed
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  EXPECT_FALSE(svc.shard(0).has_tenant(id));
  const Decision& last = svc.decisions().back();
  EXPECT_EQ(last.kind, DecisionKind::Expired);
  EXPECT_EQ(last.tenant_id, id);
  EXPECT_EQ(svc.stats().shards.expiries, 1u);
}

TEST(SvcState, CapacityPressureForcesOverbookingThenRejection) {
  // One shard owning the full mini() plane: each admission reserves less
  // than Λ once the radio saturates (overbooking), and profit eventually
  // rejects when the risk term exceeds the reward.
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  for (std::uint64_t id = 1; id <= 30; ++id) {
    // Alternate risky tenants (near-SLA forecast, volatile, steep penalty:
    // w ≈ 0.016·R, so an empty plane is unprofitable) with safe ones
    // (w ≈ 1e-5·R: profitable even fully overbooked).
    const bool risky = (id % 2) == 1;
    ASSERT_TRUE(svc.submit(risky ? make_arrival(id, slice::SliceType::eMBB,
                                                45.0, 1.0, 16.0)
                                 : make_arrival(id, slice::SliceType::eMBB,
                                                10.0, 0.1, 1.0)));
  }
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_GT(s.shards.admitted, 0u);
  EXPECT_GT(s.shards.rejected_profit, 0u);
  EXPECT_GT(s.overbooked_mbps, 0.0);  // some SLA sold beyond reservations
}

// ----------------------------------------------------------- memory model

TEST(SvcMemory, ArenaAndSlabReuseOnTheHotPath) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);

  // Warm up: a few admissions size the arena blocks and slab slots.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2)));
  }
  svc.drain();
  const auto warm_arena = svc.shard(0).arena_stats();
  const auto warm_slab = svc.shard(0).slab_stats();
  EXPECT_GT(warm_arena.blocks, 0u);

  // Steady state: churn admissions/departures. The arena must not grow a
  // single new block (reset() reuse) and every freed slab slot must be
  // recycled instead of extending the slab.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(svc.submit(make_departure(id)));
  }
  for (std::uint64_t round = 0; round < 20; ++round) {
    for (std::uint64_t id = 100 + round * 10; id < 108 + round * 10; ++id) {
      ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2)));
    }
    for (std::uint64_t id = 100 + round * 10; id < 108 + round * 10; ++id) {
      ASSERT_TRUE(svc.submit(make_departure(id)));
    }
  }
  svc.drain();
  const auto steady_arena = svc.shard(0).arena_stats();
  const auto steady_slab = svc.shard(0).slab_stats();
  EXPECT_EQ(steady_arena.blocks, warm_arena.blocks);
  EXPECT_EQ(steady_arena.capacity_bytes, warm_arena.capacity_bytes);
  EXPECT_GT(steady_arena.resets, warm_arena.resets);
  EXPECT_EQ(steady_slab.capacity, warm_slab.capacity);  // no new slots
  EXPECT_GT(steady_slab.reused, 0u);
}

// ------------------------------------------------------- overload shedding

TEST(SvcOverload, FullQueueShedsAndFullShardRejects) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 8;
  cfg.shard.max_tenants = 2;
  AdmissionService svc(mini(), cfg, &pool);

  // Queue-level shedding: the 9th undrained submit fails.
  std::size_t accepted = 0;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    if (svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(svc.stats().queue.shed, 4u);
  svc.drain();

  // Shard-level backpressure: beyond max_tenants arrivals are rejected
  // with a decision (unlike queue shedding, which never enters the log).
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.shards.admitted, 2u);
  EXPECT_EQ(s.shards.rejected_full, 6u);
  EXPECT_EQ(s.live_tenants, 2u);
}

// ------------------------------------------------ epoch re-solve work

/// Same decision, every field but the measured latency.
bool same_decision(const Decision& a, const Decision& b) {
  return a.seq == b.seq && a.tenant_id == b.tenant_id && a.event == b.event &&
         a.shard == b.shard && a.kind == b.kind && a.z_total == b.z_total &&
         a.value == b.value;
}

TEST(SvcResolveWork, UnchangedPopulationResolvesIdentically) {
  // Periodic full re-solves of an UNCHANGED shard population: each re-solve
  // owns its cut pool, so the second one repeats the first's separation,
  // master work and reservations exactly.
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.full_resolve_every = 1;
  AdmissionService svc(mini(), cfg, &pool);
  constexpr std::uint64_t kTenants = 4;
  for (std::uint64_t id = 1; id <= kTenants; ++id) {
    ASSERT_TRUE(svc.submit(
        make_arrival(id, slice::SliceType::eMBB, 30.0, 0.5, 4.0)));
  }
  svc.drain();

  struct Resolve {
    long cuts_separated = 0;
    long separation_rounds = 0;
    long master_pivots = 0;
    std::vector<double> reservations;
  };
  const auto tick = [&svc] {
    const ShardStats before = svc.shard(0).stats();
    EXPECT_TRUE(svc.submit(make_epoch_tick()));
    svc.drain();
    const ShardStats& after = svc.shard(0).stats();
    EXPECT_EQ(after.full_resolves, before.full_resolves + 1);
    Resolve r;
    r.cuts_separated = after.cuts_separated - before.cuts_separated;
    r.separation_rounds = after.separation_rounds - before.separation_rounds;
    r.master_pivots =
        after.resolve_master_pivots - before.resolve_master_pivots;
    for (std::uint64_t id = 1; id <= kTenants; ++id) {
      r.reservations.push_back(svc.shard(0).reservation_total(id));
    }
    return r;
  };
  const Resolve first = tick();
  const Resolve second = tick();
  EXPECT_GT(first.cuts_separated, 0);
  EXPECT_EQ(second.cuts_separated, first.cuts_separated);
  EXPECT_EQ(second.separation_rounds, first.separation_rounds);
  EXPECT_EQ(second.master_pivots, first.master_pivots);
  EXPECT_EQ(second.reservations, first.reservations);

  // A population change still re-solves, from scratch like every re-solve.
  ASSERT_TRUE(svc.submit(make_departure(2)));
  const Resolve third = tick();
  EXPECT_GT(third.separation_rounds, 0);
  EXPECT_EQ(svc.shard(0).stats().full_resolves, 3u);
  EXPECT_EQ(svc.shard(0).stats().pool_resets, 0u);
}

TEST(SvcResolveWork, FlashDayRefactorizationsBoundedByPivots) {
  // The svc/service_day_flash catalog day, replayed through standalone
  // shards built the way the service builds them. Shard 3's re-solve at
  // epoch 5 once hit a dual-simplex pivot that stayed tiny after a fresh
  // factorization; the dual loop then refactorized on every pass until its
  // iteration budget ran out (~150k factorizations, over a second). A
  // tiny pivot now gets one retry per accepted pivot and then abandons to
  // the artificial-repair path, and retries no longer count as pivots.
  //
  // Bound per re-solve: factorizations ≤ pivots / 4 + 16. Healthy
  // re-solves of this day refactorize once per 8–40 pivots (eta-file
  // limits, node re-verification); a spin refactorizes once per counted
  // pass and fails it.
  constexpr long kPivotsPerRefactor = 4;
  constexpr long kSlack = 16;
  scn::ServiceDayConfig day;
  day.tenants = 4000;
  day.hours = 24;
  day.seed = 2018;
  day.flash.spikes = 2;
  const std::vector<Event> script = scn::make_service_day(day);
  const topo::Topology topo = topo::make_mini(12, 192.0, 384.0);
  constexpr std::size_t kShards = 8;

  ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.queue_capacity = script.size() + 1;
  cfg.shard.full_resolve_every = 6;
  cfg.shard.drift_threshold = 0.25;
  cfg.shard.max_resolve_tenants = 40;
  cfg.shard.resolve_max_nodes = 2000;

  ShardConfig sc = cfg.shard;
  sc.capacity_fraction = 1.0 / static_cast<double>(kShards);
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(
        std::make_unique<Shard>(topo, sc, static_cast<std::uint32_t>(s)));
  }
  std::vector<Decision> log, expiries;
  std::size_t epoch = 0;
  bool saw_shard3_epoch5 = false;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const std::uint64_t seq = i + 1;  // EventQueue stamps from 1
    const Event& e = script[i];
    if (e.type != EventType::EpochTick) {
      Decision d = shards[AdmissionService::shard_of(e.tenant_id, kShards)]
                       ->handle(e);
      d.seq = seq;
      log.push_back(d);
      continue;
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      const ShardStats before = shards[s]->stats();
      expiries.clear();
      shards[s]->end_epoch(epoch, expiries);
      for (Decision d : expiries) {
        d.seq = seq;
        log.push_back(d);
      }
      const ShardStats& after = shards[s]->stats();
      if (after.full_resolves == before.full_resolves) continue;
      const long pivots =
          after.resolve_master_pivots - before.resolve_master_pivots;
      const long refactorizations =
          after.resolve_refactorizations - before.resolve_refactorizations;
      EXPECT_LE(refactorizations, pivots / kPivotsPerRefactor + kSlack)
          << "shard " << s << " epoch " << epoch << ": " << pivots
          << " pivots";
      if (epoch == 5 && s == 3) {
        saw_shard3_epoch5 = true;
        EXPECT_GT(pivots, 0);
      }
    }
    ++epoch;
  }
  EXPECT_TRUE(saw_shard3_epoch5);

  // The standalone replay makes the service's decisions.
  exec::ThreadPool pool(2);
  AdmissionService service(topo, cfg, &pool);
  for (const Event& e : script) ASSERT_TRUE(service.submit(e));
  service.drain();
  ASSERT_EQ(log.size(), service.decisions().size());
  EXPECT_TRUE(std::equal(log.begin(), log.end(), service.decisions().begin(),
                         same_decision));
}

}  // namespace
}  // namespace ovnes::svc
