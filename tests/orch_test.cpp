// Integration tests for the E2E orchestrator loop (§2.2) and the Fig. 5/6
// scenario driver: admission over epochs, reservation adaptation, revenue
// accounting, expiry, and the overbooking-vs-baseline contrast on the
// Fig. 7 testbed.
#include <gtest/gtest.h>

#include "orch/orchestrator.hpp"
#include "orch/scenario.hpp"
#include "topo/generators.hpp"

namespace ovnes::orch {
namespace {

using slice::SliceType;

slice::SliceRequest request(std::uint32_t id, SliceType type,
                            std::size_t arrival, std::size_t duration,
                            double mean, double std_dev) {
  slice::SliceRequest req;
  req.tenant = TenantId(id);
  req.name = std::string(slice::to_string(type)) + std::to_string(id);
  req.tmpl = slice::standard_template(type);
  req.arrival_epoch = arrival;
  req.duration_epochs = duration;
  req.declared_mean = mean;
  req.declared_std = std_dev;
  return req;
}

std::function<traffic::DemandPtr(BsId)> gaussian_factory(double mean,
                                                         double std_dev) {
  return [mean, std_dev](BsId) {
    return std::make_unique<traffic::GaussianDemand>(mean, std_dev);
  };
}

OrchestratorConfig fast_cfg(Algorithm algo) {
  OrchestratorConfig cfg;
  cfg.algorithm = algo;
  cfg.samples_per_epoch = 12;
  cfg.hw_period = 6;
  cfg.seed = 42;
  return cfg;
}

TEST(Simulation, AdmitsAndAccruesRevenue) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 10, 25.0, 2.5),
             gaussian_factory(25.0, 2.5));
  const EpochReport rep = sim.run_epoch();
  ASSERT_EQ(rep.accepted.size(), 1u);
  EXPECT_EQ(rep.active_slices, 1u);
  EXPECT_DOUBLE_EQ(rep.reward, 1.0);  // eMBB R = 1 per epoch
  EXPECT_GT(rep.net_revenue, 0.0);
  EXPECT_EQ(sim.active().size(), 1u);
  // Reservation covers at least the declared peak and at most Λ.
  for (double z : sim.active()[0].reservation) {
    EXPECT_GT(z, 25.0);
    EXPECT_LE(z, 50.0 + 1e-9);
  }
}

TEST(Simulation, SliceExpiresAfterDuration) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 3, 20.0, 0.0),
             gaussian_factory(20.0, 0.0));
  auto reports = sim.run(4);
  EXPECT_EQ(reports[0].accepted.size(), 1u);
  EXPECT_EQ(reports[2].expired.size(), 1u);
  EXPECT_EQ(reports[3].active_slices, 0u);
}

TEST(Simulation, ArrivalsWaitForTheirEpoch) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 2, 5, 20.0, 0.0),
             gaussian_factory(20.0, 0.0));
  auto reports = sim.run(3);
  EXPECT_TRUE(reports[0].accepted.empty());
  EXPECT_TRUE(reports[1].accepted.empty());
  EXPECT_EQ(reports[2].accepted.size(), 1u);
}

TEST(Simulation, OverbookingAdmitsMoreThanBaselineOnTestbed) {
  // Miniature Fig. 8: three uRLLC requests of ~10 edge CPUs each at SLA on
  // a 16-core edge CU. Baseline fits 1; overbooking (actual load = half the
  // SLA) fits 2 — exactly the paper's uRLLC outcome.
  const auto drive = [](Algorithm algo) {
    Simulation sim(topo::make_testbed(), 2, fast_cfg(algo));
    for (std::uint32_t i = 0; i < 3; ++i) {
      // uRLLC: Λ = 25, b = 0.2 -> 2·25·0.2 = 10 cores at SLA (2 BSs).
      sim.submit(request(i, SliceType::uRLLC, i, 30, 12.5, 1.25),
                 gaussian_factory(12.5, 1.25));
    }
    std::size_t admitted = 0;
    for (const EpochReport& r : sim.run(4)) admitted += r.accepted.size();
    return admitted;
  };
  EXPECT_EQ(drive(Algorithm::NoOverbooking), 1u);
  EXPECT_EQ(drive(Algorithm::Benders), 2u);
}

TEST(Simulation, PinnedSlicesSurviveLaterArrivals) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 20, 10.0, 1.0),
             gaussian_factory(10.0, 1.0));
  // A flood of high-reward competitors later.
  for (std::uint32_t i = 1; i < 6; ++i) {
    sim.submit(request(i, SliceType::uRLLC, 2, 20, 12.0, 1.0),
               gaussian_factory(12.0, 1.0));
  }
  auto reports = sim.run(4);
  // The first slice is never evicted.
  for (const EpochReport& r : reports) {
    for (const auto& name : r.expired) EXPECT_NE(name, "embb0");
  }
  bool embb_active = false;
  for (const ActiveSlice& s : sim.active()) {
    if (s.request.name == "embb0") embb_active = true;
  }
  EXPECT_TRUE(embb_active);
}

TEST(Simulation, UsageNeverExceedsCapacityPlusDeficit) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  for (std::uint32_t i = 0; i < 4; ++i) {
    sim.submit(request(i, SliceType::eMBB, 0, 10, 20.0, 4.0),
               gaussian_factory(20.0, 4.0));
  }
  for (const EpochReport& r : sim.run(5)) {
    const auto& topo = sim.topology();
    for (std::size_t b = 0; b < topo.num_bs(); ++b) {
      EXPECT_LE(r.usage.radio_reserved[b],
                topo.bs(BsId(static_cast<std::uint32_t>(b))).capacity +
                    r.deficit + 1e-6);
    }
    for (std::size_t c = 0; c < topo.num_cu(); ++c) {
      EXPECT_LE(r.usage.cpu_reserved[c],
                topo.cu(CuId(static_cast<std::uint32_t>(c))).capacity +
                    r.deficit + 1e-6);
    }
    for (std::size_t l = 0; l < topo.graph.num_links(); ++l) {
      EXPECT_LE(r.usage.link_reserved[l],
                topo.graph.links()[l].capacity + r.deficit + 1e-6);
    }
  }
}

TEST(Simulation, ViolationsAreRareUnderHonestDeclarations) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 30, 25.0, 2.5),
             gaussian_factory(25.0, 2.5));
  sim.run(20);
  // Single tenant, ample capacity: z -> Λ, so SLA violations ~ 0.
  EXPECT_LT(sim.ledger().violation_probability(), 0.001);
}

TEST(Simulation, KacAlgorithmRunsEndToEnd) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Kac));
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim.submit(request(i, SliceType::eMBB, 0, 10, 15.0, 1.5),
               gaussian_factory(15.0, 1.5));
  }
  const EpochReport rep = sim.run_epoch();
  EXPECT_GE(rep.accepted.size(), 2u);
  EXPECT_GT(rep.net_revenue, 0.0);
}

TEST(Simulation, RetryRejectedQueuesAgain) {
  OrchestratorConfig cfg = fast_cfg(Algorithm::NoOverbooking);
  cfg.retry_rejected = true;
  Simulation sim(topo::make_testbed(), 2, cfg);
  // Two mMTC at full load: 2·10·2 = 40 cores each at SLA; edge 16 + core 64
  // fits one... the second keeps retrying (and stays rejected).
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim.submit(request(i, SliceType::mMTC, 0, 10, 10.0, 0.0),
               gaussian_factory(10.0, 0.0));
  }
  auto r0 = sim.run_epoch();
  EXPECT_EQ(r0.accepted.size() + r0.rejected.size(), 2u);
  const std::size_t rejected_first = r0.rejected.size();
  auto r1 = sim.run_epoch();
  // Retried request shows up again in epoch 1's decision.
  EXPECT_EQ(r1.rejected.size() + r1.accepted.size(), rejected_first);
}

// ---------------------------------------------------------------- Scenarios

TEST(Scenario, BuildersProduceRequestedMixes) {
  const auto homo = homogeneous(SliceType::eMBB, 10, 0.2, 0.25, 1.0);
  EXPECT_EQ(homo.size(), 10u);
  const auto mix = heterogeneous(SliceType::eMBB, SliceType::mMTC, 10, 30.0,
                                 0.2, 0.5, 1.0);
  std::size_t mmtc = 0;
  for (const auto& t : mix) {
    if (t.type == SliceType::mMTC) {
      ++mmtc;
      EXPECT_DOUBLE_EQ(t.sigma_ratio, 0.0);  // mMTC is deterministic
    }
  }
  EXPECT_EQ(mmtc, 3u);
}

TEST(Scenario, OverbookingBeatsBaselineAtLowLoad) {
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;  // ~6 BSs: keeps the exact solver fast in unit tests
  cfg.seed = 5;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::eMBB, 8, 0.2, 0.25, 1.0);
  cfg.max_epochs = 12;
  cfg.algorithm = Algorithm::Benders;
  const ScenarioResult over = run_scenario(cfg);
  cfg.algorithm = Algorithm::NoOverbooking;
  const ScenarioResult base = run_scenario(cfg);
  EXPECT_GT(over.accepted, base.accepted);
  EXPECT_GT(over.mean_net_revenue, base.mean_net_revenue);
  EXPECT_GT(base.mean_net_revenue, 0.0);
}

TEST(Scenario, StopsOnStandardErrorRule) {
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 6;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::mMTC, 4, 0.3, 0.0, 1.0);
  cfg.max_epochs = 40;
  // Deterministic mMTC load -> revenue is constant -> SE hits 0 right at
  // min_epochs.
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_EQ(res.epochs, cfg.min_epochs);
  EXPECT_LE(res.rse, cfg.target_rse);
}

TEST(Scenario, ViolationFootprintIsSmall) {
  // §4.3.3: the overbooking gains come at a negligible SLA cost.
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 7;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::eMBB, 8, 0.2, 0.5, 1.0);
  cfg.max_epochs = 20;
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_LT(res.violation_prob, 0.05);
  EXPECT_LE(res.max_drop_fraction, 1.0);
}

TEST(Scenario, ResultMergesSearchCountersOverEpochs) {
  // Single-tree Benders with RENS at the master root: the scenario result
  // carries every search counter of its epochs' admission solves, cut and
  // heuristic counters alike. All requests arrive at epoch 0 and the
  // oracle forecasts never change, so later epochs solve nothing; their
  // zero counters and −1 first-incumbent sentinel must leave the epoch-0
  // values intact.
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 5;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::eMBB, 8, 0.2, 0.25, 1.0);
  cfg.benders.single_tree = true;
  cfg.benders.master.rens_heuristic = true;
  cfg.min_epochs = 1;
  cfg.max_epochs = 1;
  const ScenarioResult one = run_scenario(cfg);
  cfg.min_epochs = 4;
  cfg.max_epochs = 4;
  const ScenarioResult four = run_scenario(cfg);
  ASSERT_EQ(four.epochs, 4u);
  EXPECT_GT(one.cuts_separated, 0);
  EXPECT_GT(one.separation_rounds, 0);
  EXPECT_GE(one.first_incumbent_nodes, 0);
  EXPECT_EQ(four.cuts_separated, one.cuts_separated);
  EXPECT_EQ(four.separation_rounds, one.separation_rounds);
  EXPECT_EQ(four.heuristic_incumbents, one.heuristic_incumbents);
  EXPECT_EQ(four.first_incumbent_nodes, one.first_incumbent_nodes);
  // Overbooking accounting rides along with the counters.
  EXPECT_GE(four.violation_minutes, 0.0);
  EXPECT_GE(four.mean_overbooked_mbps, 0.0);
  EXPECT_GE(four.mean_radio_headroom_mbps, 0.0);
}

}  // namespace
}  // namespace ovnes::orch
