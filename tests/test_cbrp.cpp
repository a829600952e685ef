// Packet-level CBRP routing over the cluster structure.
#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "mobility/trace.h"
#include "routing/cbrp.h"
#include "routing/cbrp_experiment.h"
#include "util/assert.h"

namespace manet::routing {
namespace {

// Static line of 5 nodes, 80 m spacing, range 100: 0-1-2-3-4. Lowest-ID
// clustering: heads {0, 2, 4}, members 1 (gw of 0/2), 3 (gw of 2/4).
struct CbrpWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::vector<CbrpAgent*> agents;
  CbrpStats stats;
};

std::unique_ptr<CbrpWorld> make_line_world(std::size_t n, double spacing,
                                           double range,
                                           std::uint64_t seed = 31) {
  auto world = std::make_unique<CbrpWorld>();
  util::Rng root(seed);
  world->network = std::make_unique<net::Network>(
      world->sim, radio::make_paper_medium(range),
      geom::Rect(spacing * static_cast<double>(n) + 10.0, 50.0),
      net::NetworkParams{}, root.substream("net"));
  for (std::size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<net::Node>(
        static_cast<net::NodeId>(i),
        std::make_unique<mobility::StaticModel>(
            geom::Vec2{5.0 + spacing * static_cast<double>(i), 25.0}),
        root.substream("node", i));
    CbrpOptions o;
    o.clustering = cluster::lowest_id_lcc_options();
    o.stats = &world->stats;
    auto agent = std::make_unique<CbrpAgent>(o);
    world->agents.push_back(agent.get());
    node->set_agent(std::move(agent));
    world->network->add_node(std::move(node));
  }
  world->network->start();
  return world;
}

TEST(CbrpTest, DiscoversAndDeliversAlongTheLine) {
  auto world = make_line_world(5, 80.0, 100.0);
  world->sim.run_until(14.0);  // let clusters form
  ASSERT_EQ(world->agents[0]->clustering().role(), cluster::Role::kHead);

  world->agents[0]->send_data(world->network->node(0), 4, 512);
  world->sim.run_until(15.0);  // discovery + delivery are sub-second

  EXPECT_EQ(world->stats.discoveries_started, 1u);
  EXPECT_EQ(world->stats.discoveries_succeeded, 1u);
  EXPECT_EQ(world->stats.data_sent, 1u);
  EXPECT_EQ(world->stats.data_delivered, 1u);
  EXPECT_EQ(world->stats.data_dropped, 0u);
  // The only path is the 4-hop line.
  const auto route = world->agents[0]->cached_route(4);
  EXPECT_EQ(route, (std::vector<net::NodeId>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(world->stats.route_hops.mean(), 4.0);
  EXPECT_GT(world->stats.discovery_latency.mean(), 0.0);
  EXPECT_LT(world->stats.discovery_latency.mean(), 0.1);
}

TEST(CbrpTest, CachedRouteSkipsRediscovery) {
  auto world = make_line_world(5, 80.0, 100.0);
  world->sim.run_until(14.0);
  world->agents[0]->send_data(world->network->node(0), 4, 100);
  world->sim.run_until(15.0);
  ASSERT_EQ(world->stats.discoveries_started, 1u);
  // Second packet uses the cache: no new discovery, one more delivery.
  world->agents[0]->send_data(world->network->node(0), 4, 100);
  world->sim.run_until(16.0);
  EXPECT_EQ(world->stats.discoveries_started, 1u);
  EXPECT_EQ(world->stats.data_delivered, 2u);
}

TEST(CbrpTest, SilentMembersDoNotRelayRreq) {
  // Two-hop line with the middle node an ordinary member (not a gateway):
  // 3 nodes, spacing 80, range 100: heads {0, 2}? No — 0-1-2 with 0-2 out
  // of range: lowest-ID gives head 0, member 1, head 2; 1 hears both
  // heads -> gateway, so it DOES relay. To get a silent middle node, use
  // 4 nodes where node 1 is a plain member of head 0 and node 3 is out of
  // everyone's range: instead verify the overlay property directly: the
  // RREQ flood transmission count equals the number of overlay nodes
  // traversed, not all nodes.
  auto world = make_line_world(5, 80.0, 100.0);
  world->sim.run_until(14.0);
  world->agents[0]->send_data(world->network->node(0), 4, 64);
  world->sim.run_until(15.0);
  // Overlay on the line: origin 0 + gateway 1 + head 2 + gateway 3
  // (+ target 4 answers, never relays). Hence exactly 4 RREQ broadcasts.
  EXPECT_EQ(world->stats.rreq_tx, 4u);
  // RREP walks the 4 hops back.
  EXPECT_EQ(world->stats.rrep_tx, 4u);
}

TEST(CbrpTest, UnreachableTargetFailsGracefully) {
  auto world = make_line_world(5, 80.0, 100.0);
  // Disconnect the tail: kill node 3 so 4 is unreachable.
  world->sim.run_until(14.0);
  world->network->node(3).fail();
  world->sim.run_until(20.0);
  world->agents[0]->send_data(world->network->node(0), 4, 64);
  world->sim.run_until(25.0);
  EXPECT_EQ(world->stats.discoveries_started, 1u);
  EXPECT_EQ(world->stats.discoveries_succeeded, 0u);
  EXPECT_EQ(world->stats.data_delivered, 0u);
}

TEST(CbrpTest, BrokenRouteTriggersRerrAndRediscovery) {
  // Use a mobile last hop: node 4 walks out of node 3's range after the
  // route forms, then the next data packet dies at hop 3 -> RERR -> origin
  // invalidates -> rediscovery fails (4 gone).
  auto world = std::make_unique<CbrpWorld>();
  util::Rng root(33);
  world->network = std::make_unique<net::Network>(
      world->sim, radio::make_paper_medium(100.0), geom::Rect(900.0, 50.0),
      net::NetworkParams{}, root.substream("net"));
  const auto line_pos = [](int i) {
    return geom::Vec2{5.0 + 80.0 * i, 25.0};
  };
  for (std::size_t i = 0; i < 5; ++i) {
    std::unique_ptr<mobility::MobilityModel> model;
    if (i == 4) {
      mobility::PiecewiseLinearTrack t;
      t.append(0.0, line_pos(4));
      t.append(20.0, line_pos(4));
      t.append(40.0, {860.0, 25.0});  // far away
      t.append(1000.0, {860.0, 25.0});
      model = std::make_unique<mobility::TraceModel>(std::move(t));
    } else {
      model = std::make_unique<mobility::StaticModel>(line_pos(static_cast<int>(i)));
    }
    auto node = std::make_unique<net::Node>(
        static_cast<net::NodeId>(i), std::move(model),
        root.substream("node", i));
    CbrpOptions o;
    o.clustering = cluster::lowest_id_lcc_options();
    o.stats = &world->stats;
    auto agent = std::make_unique<CbrpAgent>(o);
    world->agents.push_back(agent.get());
    node->set_agent(std::move(agent));
    world->network->add_node(std::move(node));
  }
  world->network->start();

  world->sim.run_until(14.0);
  world->agents[0]->send_data(world->network->node(0), 4, 64);
  world->sim.run_until(15.0);
  ASSERT_EQ(world->stats.data_delivered, 1u);
  ASSERT_FALSE(world->agents[0]->cached_route(4).empty());

  // After node 4 left (t > ~45), the cached route is stale.
  world->sim.run_until(60.0);
  world->agents[0]->send_data(world->network->node(0), 4, 64);
  world->sim.run_until(62.0);
  EXPECT_EQ(world->stats.data_dropped, 1u);
  EXPECT_GT(world->stats.rerr_tx, 0u);
  EXPECT_TRUE(world->agents[0]->cached_route(4).empty())
      << "RERR must invalidate the origin's cache";
}

TEST(CbrpExperimentTest, RunsEndToEndWithSaneNumbers) {
  CbrpExperimentParams params;
  params.scenario.n_nodes = 25;
  params.scenario.fleet.field = geom::Rect(400.0, 400.0);
  params.scenario.fleet.max_speed = 5.0;
  params.scenario.tx_range = 150.0;
  params.scenario.sim_time = 120.0;
  params.flows = 5;
  params.data_interval = 5.0;

  const auto r = run_cbrp_experiment(
      params, scenario::factory_by_name("mobic"));
  EXPECT_GT(r.stats.data_sent, 50u);
  EXPECT_GT(r.stats.delivery_ratio(), 0.6);
  EXPECT_GT(r.stats.discoveries_succeeded, 0u);
  EXPECT_GT(r.stats.route_hops.mean(), 0.9);
  EXPECT_LT(r.stats.discovery_latency.mean(), 1.0);
}

TEST(CbrpExperimentTest, Deterministic) {
  CbrpExperimentParams params;
  params.scenario.n_nodes = 15;
  params.scenario.fleet.field = geom::Rect(300.0, 300.0);
  params.scenario.tx_range = 120.0;
  params.scenario.sim_time = 60.0;
  params.flows = 3;
  const auto a =
      run_cbrp_experiment(params, scenario::factory_by_name("lowest_id"));
  const auto b =
      run_cbrp_experiment(params, scenario::factory_by_name("lowest_id"));
  EXPECT_EQ(a.stats.data_delivered, b.stats.data_delivered);
  EXPECT_EQ(a.stats.rreq_tx, b.stats.rreq_tx);
  EXPECT_EQ(a.run.ch_changes, b.run.ch_changes);
}

// Every CbrpStats counter, in declaration order.
std::array<std::uint64_t, 9> counters(const CbrpStats& s) {
  return {s.rreq_tx,   s.rrep_tx,        s.data_tx,
          s.rerr_tx,   s.discoveries_started, s.discoveries_succeeded,
          s.data_sent, s.data_delivered, s.data_dropped};
}

void expect_same_stats(const CbrpStats& a, const CbrpStats& b) {
  EXPECT_EQ(counters(a), counters(b));
  EXPECT_EQ(a.discovery_latency.count(), b.discovery_latency.count());
  EXPECT_EQ(a.discovery_latency.mean(), b.discovery_latency.mean());
  EXPECT_EQ(a.route_hops.count(), b.route_hops.count());
  EXPECT_EQ(a.route_hops.mean(), b.route_hops.mean());
}

CbrpExperimentParams small_mobile_params() {
  CbrpExperimentParams params;
  params.scenario.n_nodes = 20;
  params.scenario.fleet.field = geom::Rect(400.0, 400.0);
  params.scenario.fleet.max_speed = 10.0;
  params.scenario.tx_range = 150.0;
  params.scenario.sim_time = 120.0;
  params.scenario.seed = 3;
  params.flows = 4;
  params.data_interval = 4.0;
  return params;
}

// Pins one small run exactly: any drift in event order, RNG streams or the
// agents' wiring shows up here. Doubles are compared bit for bit.
TEST(CbrpExperimentTest, PinnedSmallRun) {
  const auto r = run_cbrp_experiment(small_mobile_params(),
                                     scenario::factory_by_name("mobic"));
  EXPECT_EQ(r.run.ch_changes, 14u);
  const std::array<std::uint64_t, 9> expected = {295, 44, 215, 11, 23,
                                                 20,  111, 95, 16};
  EXPECT_EQ(counters(r.stats), expected);
  EXPECT_EQ(r.stats.discovery_latency.count(), 20u);
  EXPECT_EQ(r.stats.discovery_latency.mean(), 0x1.205bc01a3b665p-9);
  EXPECT_EQ(r.stats.discovery_latency.max(), 0x1.89374bc6bp-9);
  EXPECT_EQ(r.stats.route_hops.count(), 20u);
  EXPECT_EQ(r.stats.route_hops.mean(), 0x1.1999999999999p+1);
  EXPECT_EQ(r.stats.route_hops.max(), 3.0);
}

TEST(CbrpExperimentTest, ShardedRunMatchesSerial) {
  CbrpExperimentParams params = small_mobile_params();
  const auto serial =
      run_cbrp_experiment(params, scenario::factory_by_name("mobic"));
  params.scenario.sim_jobs = 4;
  const auto sharded =
      run_cbrp_experiment(params, scenario::factory_by_name("mobic"));
  EXPECT_TRUE(sharded.run == serial.run);
  expect_same_stats(sharded.stats, serial.stats);
}

// Faults, batteries and obs are Scenario knobs: CBRP runs honour them
// because they are assembled by run_scenario like every other run.
TEST(CbrpExperimentTest, FaultsAndBatteriesReachCbrp) {
  CbrpExperimentParams params = small_mobile_params();
  const auto clean =
      run_cbrp_experiment(params, scenario::factory_by_name("sd_dwca"));
  EXPECT_FALSE(clean.run.metrics.empty());
#if MANET_OBS_ENABLED
  // The network's hooks see CBRP's unicast control and data traffic.
  EXPECT_GT(clean.run.metrics.counter_or("msg.sent"), 0u);
#endif

  auto& sc = params.scenario;
  sc.faults.crash_rate = 0.05;
  sc.faults.mean_downtime = 20.0;
  sc.faults.loss_burst_rate = 0.05;
  sc.faults.loss_burst_duration = 8.0;
  sc.energy.enabled = true;
  sc.energy.capacity_j = 3.0;
  sc.energy.capacity_jitter = 0.5;
  sc.energy.idle_drain_w = 0.005;
  sc.energy.hello_tx_cost_j = 0.02;
  sc.energy.hello_rx_cost_j = 0.005;
  sc.energy.msg_tx_cost_j = 0.01;
  const auto harsh =
      run_cbrp_experiment(params, scenario::factory_by_name("sd_dwca"));
  EXPECT_GT(harsh.run.faults_injected, 0u);
  EXPECT_GT(harsh.run.battery_deaths, 0u);
  EXPECT_FALSE(harsh.run.metrics.empty());
  EXPECT_NE(counters(harsh.stats), counters(clean.stats));
}

}  // namespace
}  // namespace manet::routing
