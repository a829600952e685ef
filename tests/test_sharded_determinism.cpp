// Intra-run sharding determinism guard (net::ShardPlanner).
//
// The planner's contract is that Scenario::sim_jobs changes wall time only:
// for ANY worker count the run is bit-identical to the serial path, because
// workers only precompute pure broadcast scans and every side effect (RNG
// draws, stats, hooks, event scheduling) replays on the commit thread in
// exact serial order. These tests pin that contract with RunResult's
// bit-exact operator== across sim_jobs ∈ {1, 2, 8} on the paper Figure-3
// setup, a resilience-churn slice, zero-delay (immediate) delivery under
// faults and batteries, a stochastic (shadowing) medium, and a randomized
// cross-shard stress mix; plus a direct planner-engagement check
// so a silent fallback-to-serial cannot fake a pass.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "mobility/factory.h"
#include "net/network.h"
#include "net/shard_planner.h"
#include "radio/medium.h"
#include "scenario/reporting.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace manet {
namespace {

scenario::RunResult run_with_jobs(scenario::Scenario s, int jobs) {
  s.sim_jobs = jobs;
  return scenario::run_scenario(s, scenario::factory_by_name("mobic"));
}

// Runs `s` serially and with 2 and 8 workers; every result must be
// bit-identical (RunResult::operator== is defaulted member-wise equality,
// including doubles, counters, fault timelines and the obs snapshot).
// Returns the serial result.
scenario::RunResult expect_jobs_invariant(const scenario::Scenario& s,
                                          const char* what) {
  scenario::RunResult serial = run_with_jobs(s, 1);
  for (const int jobs : {2, 8}) {
    const scenario::RunResult sharded = run_with_jobs(s, jobs);
    EXPECT_TRUE(serial == sharded)
        << what << ": sim_jobs=" << jobs << " diverged from serial"
        << " (ch_changes " << serial.ch_changes << " vs "
        << sharded.ch_changes << ", hellos " << serial.hellos_delivered
        << " vs " << sharded.hellos_delivered << ", events "
        << serial.events_executed << " vs " << sharded.events_executed
        << ")";
  }
  return serial;
}

TEST(ShardedDeterminism, Fig3BitIdenticalAcrossSimJobs) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 60.0;
  for (const double tx : {100.0, 250.0}) {
    s.tx_range = tx;
    expect_jobs_invariant(s, "fig3");
  }
}

TEST(ShardedDeterminism, ResilienceChurnBitIdenticalAcrossSimJobs) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 120.0;
  s.faults.begin = 30.0;
  s.faults.end = 90.0;
  s.faults.crash_rate = 0.03;
  s.faults.mean_downtime = 30.0;
  s.faults.loss_burst_rate = 0.02;
  s.faults.loss_burst_duration = 8.0;
  s.faults.loss_burst_probability = 0.9;
  expect_jobs_invariant(s, "resilience-churn");
}

// Zero delivery delay takes the commit loop's immediate-delivery branch:
// receivers run inside the sender's broadcast, so crashes, loss bursts and
// battery deaths land between one broadcast and the next scan.
TEST(ShardedDeterminism, ZeroDelayDeliveryBitIdenticalAcrossSimJobs) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 90.0;
  s.net.delivery_delay = 0.0;
  s.faults.begin = 20.0;
  s.faults.end = 70.0;
  s.faults.crash_rate = 0.03;
  s.faults.mean_downtime = 20.0;
  s.faults.loss_burst_rate = 0.02;
  s.faults.loss_burst_duration = 8.0;
  s.faults.loss_burst_probability = 0.9;
  s.energy.enabled = true;
  s.energy.capacity_j = 4.0;
  s.energy.capacity_jitter = 0.5;
  s.energy.idle_drain_w = 0.01;
  s.energy.hello_tx_cost_j = 0.02;
  s.energy.hello_rx_cost_j = 0.005;
  const scenario::RunResult serial = expect_jobs_invariant(s, "zero-delay");
  EXPECT_GT(serial.faults_injected, serial.battery_deaths)
      << "no scheduled fault fired — the crash/loss-burst half is vacuous";
  EXPECT_GT(serial.battery_deaths, 0u)
      << "no battery died — the energy half is vacuous";
}

// Stochastic media draw per-candidate fading at commit time (workers only
// precompute distances), which is the other half of the replay contract.
TEST(ShardedDeterminism, ShadowingMediumBitIdenticalAcrossSimJobs) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 45.0;
  s.propagation = "shadowing";
  s.shadowing_sigma_db = 6.0;
  expect_jobs_invariant(s, "shadowing");
}

// Randomized stress: varied seeds, fields, densities, mobility models and
// fault mixes, so cross-shard deliveries and epoch bumps (grid refreshes,
// crash/recover liveness barriers) land in many interleavings.
TEST(ShardedDeterminism, RandomizedCrossShardStress) {
  const mobility::ModelKind kinds[] = {
      mobility::ModelKind::kRandomWaypoint, mobility::ModelKind::kRandomWalk,
      mobility::ModelKind::kGaussMarkov, mobility::ModelKind::kManhattan};
  for (int k = 0; k < 4; ++k) {
    scenario::Scenario s = scenario::paper_scenario();
    s.seed = 9000 + 31 * static_cast<std::uint64_t>(k);
    s.sim_time = 30.0;
    s.n_nodes = 40 + 15 * static_cast<std::size_t>(k);
    s.fleet.kind = kinds[k];
    s.fleet.field = geom::Rect(500.0 + 170.0 * k, 500.0 + 170.0 * k);
    s.fleet.max_speed = 10.0 + 5.0 * k;
    s.tx_range = 150.0 + 50.0 * (k % 2);
    s.propagation = (k % 2 == 0) ? "free_space" : "shadowing";
    if (k >= 2) {
      s.faults.begin = 10.0;
      s.faults.end = 25.0;
      s.faults.crash_rate = 0.05;
      s.faults.mean_downtime = 8.0;
    }
    SCOPED_TRACE("stress case " + std::to_string(k));
    expect_jobs_invariant(s, "stress");
  }
}

// Battery drains are charged on the commit thread and depletions are
// injected at drain time, so the energy model is sim_jobs-invariant by
// construction; the composite (Pareto-filtered) elections ride along. The
// tight batteries guarantee real mid-run deaths, so the equality below
// covers the kBatteryDepleted injection path, not just quiet drains.
TEST(ShardedDeterminism, EnergyCompositeBitIdenticalAcrossSimJobs) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 60.0;
  s.energy.enabled = true;
  s.energy.capacity_j = 4.0;
  s.energy.capacity_jitter = 0.5;
  s.energy.idle_drain_w = 0.01;
  s.energy.hello_tx_cost_j = 0.02;
  s.energy.hello_rx_cost_j = 0.005;
  for (const char* alg : {"cci", "sd_dwca"}) {
    const auto factory = scenario::factory_by_name(alg);
    scenario::Scenario serial_s = s;
    serial_s.sim_jobs = 1;
    const scenario::RunResult serial =
        scenario::run_scenario(serial_s, factory);
    EXPECT_GT(serial.battery_deaths, 0u)
        << alg << ": no battery died — the invariance check is vacuous";
    for (const int jobs : {2, 8}) {
      scenario::Scenario sharded_s = s;
      sharded_s.sim_jobs = jobs;
      const scenario::RunResult sharded =
          scenario::run_scenario(sharded_s, factory);
      EXPECT_TRUE(serial == sharded)
          << alg << ": sim_jobs=" << jobs << " diverged from serial"
          << " (deaths " << serial.battery_deaths << " vs "
          << sharded.battery_deaths << ", drained " << serial.energy_drained_j
          << " vs " << sharded.energy_drained_j << ")";
    }
  }
}

// Unsupported fleets (RPGM members are not leg-based) must silently fall
// back to serial and stay bit-identical rather than crash or diverge.
TEST(ShardedDeterminism, UnsupportedModelFallsBackToSerial) {
  scenario::Scenario s = scenario::paper_scenario();
  s.sim_time = 30.0;
  s.fleet.kind = mobility::ModelKind::kRpgm;
  expect_jobs_invariant(s, "rpgm-fallback");
}

// Engagement guard: build the planner directly and prove the sharded path
// really speculates and commits scans — otherwise every test above could
// pass vacuously via the serial fallback.
TEST(ShardedDeterminism, PlannerSpeculatesAndCommits) {
  sim::Simulator sim;
  util::Rng root(7);
  mobility::FleetParams fleet;
  fleet.duration = 40.0;
  net::Network network(sim, radio::make_paper_medium(250.0), fleet.field,
                       net::NetworkParams{}, root.substream("network"));
  network.add_fleet(mobility::make_fleet(fleet, 30,
                                         root.substream("mobility")));
  ASSERT_TRUE(net::ShardPlanner::supported(network));
  util::ThreadPool pool(2);
  net::ShardPlanner planner(network, pool);
  network.enable_sharding(&planner);
  for (auto& node : network.nodes()) {
    node->set_agent(std::make_unique<cluster::WeightedClusterAgent>(
        cluster::mobic_options()));
  }
  network.start();
  sim.run_until(20.0);
  planner.shutdown();
  EXPECT_GT(planner.speculated(), 0u) << "no scans were ever speculated";
  EXPECT_GT(planner.committed(), 0u) << "no speculated scan was consumed";
  // Most beacons should ride the speculative path at this scale. Not all:
  // a grid refresh between speculation and fire time bumps the epoch and
  // invalidates the in-flight job (one per ~0.5 s refresh interval).
  EXPECT_GE(planner.committed() * 3, network.stats().beacons_sent * 2)
      << "committed " << planner.committed() << " of "
      << network.stats().beacons_sent << " beacons";
}

}  // namespace
}  // namespace manet
