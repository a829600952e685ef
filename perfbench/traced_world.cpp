#include "traced_world.h"

#include <bit>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/convergence.h"
#include "cluster/obs_sink.h"
#include "fault/injector.h"
#include "measure.h"
#include "net/shard_planner.h"
#include "obs/trace.h"
#include "radio/medium.h"
#include "sim/simulator.h"
#include "util/alloc_hook.h"
#include "util/thread_pool.h"
#include "util/thread_role.h"

namespace perfbench {

using namespace manet;
using scenario::RunResult;
using scenario::Scenario;

PlainRun run_plain(const Scenario& s, const std::string& algorithm) {
  const scenario::OptionsFactory factory = scenario::factory_by_name(algorithm);
  PlainRun run;
  double t_start = 0.0;
  std::uint64_t a_start = 0;
  const double t_call = now_s();
  const std::uint64_t a_call = util::heap_alloc_count();
  run.result = scenario::run_scenario(s, factory, [&](scenario::LiveContext&) {
    t_start = now_s();
    a_start = util::heap_alloc_count();
  });
  const double t_end = now_s();
  const std::uint64_t a_end = util::heap_alloc_count();
  run.timing = {t_start - t_call, t_end - t_start, a_start - a_call,
                a_end - a_start};
  return run;
}

namespace {

struct SetupDone {};

}  // namespace

double setup_only(const Scenario& s, const std::string& algorithm) {
  const scenario::OptionsFactory factory = scenario::factory_by_name(algorithm);
  double t_start = 0.0;
  const double t_call = now_s();
  try {
    scenario::run_scenario(s, factory, [&](scenario::LiveContext&) {
      t_start = now_s();
      throw SetupDone{};
    });
  } catch (const SetupDone&) {
    return t_start - t_call;
  }
  throw std::logic_error("setup_only: run_scenario skipped on_start");
}

namespace {

struct LayerTrace {
  LayerClock mobility;
  LayerClock radio;
  LayerClock table;
  LayerClock cluster_beacon;
  LayerClock cluster_hello;
  LayerClock cluster_sink;

  void reset() {
    for (LayerClock* c : {&mobility, &radio, &table, &cluster_beacon,
                          &cluster_hello, &cluster_sink}) {
      c->reset();
    }
  }
};

LayerCost cost_of(const LayerClock& c) {
  return {c.calls.load(std::memory_order_relaxed), c.busy_s()};
}

class TimedMobility final : public mobility::MobilityModel {
 public:
  TimedMobility(std::unique_ptr<mobility::MobilityModel> inner,
                LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  geom::Vec2 position(sim::Time t) MANET_COMMIT_ONLY override {
    Span span(clock_);
    return inner_->position(t);
  }
  geom::Vec2 velocity(sim::Time t) MANET_COMMIT_ONLY override {
    Span span(clock_);
    return inner_->velocity(t);
  }
  // The unroll API is forwarded untimed so shard planners still engage;
  // their workers interpolate leg copies and never call the model.
  bool supports_unroll() const override { return inner_->supports_unroll(); }
  void unroll_to(sim::Time horizon) MANET_COMMIT_ONLY override {
    inner_->unroll_to(horizon);
  }
  void copy_legs(sim::Time from, sim::Time to,
                 std::vector<mobility::MotionLeg>& out) const override {
    inner_->copy_legs(from, to, out);
  }

 private:
  std::unique_ptr<mobility::MobilityModel> inner_;
  LayerClock& clock_;
};

class TimedPropagation final : public radio::PropagationModel {
 public:
  TimedPropagation(std::unique_ptr<radio::PropagationModel> inner,
                   LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  double rx_power_w(const radio::RadioParams& radio, double distance_m,
                    util::Rng* fading) const MANET_ROLE_AGNOSTIC override {
    Span span(clock_);
    return inner_->rx_power_w(radio, distance_m, fading);
  }
  bool stochastic() const override { return inner_->stochastic(); }
  double max_range_m(const radio::RadioParams& radio,
                     double threshold_w) const override {
    return inner_->max_range_m(radio, threshold_w);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<radio::PropagationModel> inner_;
  LayerClock& clock_;
};

class TimedSink final : public cluster::ClusterEventSink {
 public:
  TimedSink(cluster::ClusterEventSink& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}

  void on_role_change(sim::Time t, net::NodeId node, cluster::Role old_role,
                      cluster::Role new_role) MANET_COMMIT_ONLY override {
    Span span(clock_);
    inner_.on_role_change(t, node, old_role, new_role);
  }
  void on_affiliation_change(sim::Time t, net::NodeId node,
                             net::NodeId old_head,
                             net::NodeId new_head) MANET_COMMIT_ONLY override {
    Span span(clock_);
    inner_.on_affiliation_change(t, node, old_head, new_head);
  }

 private:
  cluster::ClusterEventSink& inner_;
  LayerClock& clock_;
};

/// Times the clustering agent and mirrors the node's neighbor-table
/// traffic into a shadow table: Node::beacon() purges right before
/// on_beacon(), Node::receive() records the Hello right before on_hello(),
/// and Node::recover() clears the table of a node whose agent was reset at
/// the crash (nothing touches a dead node's table in between).
class TracedAgent final : public net::Agent {
 public:
  TracedAgent(std::unique_ptr<net::Agent> inner, net::NeighborTable& shadow,
              LayerTrace& trace)
      : inner_(std::move(inner)), shadow_(shadow), trace_(trace) {}

  void on_attach(net::Node& node) MANET_COMMIT_ONLY override {
    inner_->on_attach(node);
  }
  void on_reset(net::Node& node) MANET_COMMIT_ONLY override {
    shadow_.clear();
    inner_->on_reset(node);
  }
  void on_beacon(net::Node& node, net::HelloPacket& out)
      MANET_COMMIT_ONLY override {
    {
      Span span(trace_.table);
      shadow_.purge(node.simulator().now(),
                    node.network().params().neighbor_timeout);
    }
    Span span(trace_.cluster_beacon);
    inner_->on_beacon(node, out);
  }
  void on_hello(net::Node& node, const net::HelloPacket& pkt,
                double rx_power_w) MANET_COMMIT_ONLY override {
    {
      Span span(trace_.table);
      shadow_.on_hello(node.simulator().now(), pkt, rx_power_w);
    }
    Span span(trace_.cluster_hello);
    inner_->on_hello(node, pkt, rx_power_w);
  }
  void on_message(net::Node& node, const net::Message& msg)
      MANET_COMMIT_ONLY override {
    inner_->on_message(node, msg);
  }

 private:
  std::unique_ptr<net::Agent> inner_;
  net::NeighborTable& shadow_;
  LayerTrace& trace_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_entry(const net::NeighborEntry& a, const net::NeighborEntry& b) {
  if (a.id != b.id || !same_bits(a.last_heard, b.last_heard) ||
      !same_bits(a.prev_heard, b.prev_heard) ||
      !same_bits(a.last_rx_w, b.last_rx_w) ||
      !same_bits(a.prev_rx_w, b.prev_rx_w) || a.has_prev != b.has_prev ||
      a.last_seq != b.last_seq || !same_bits(a.weight, b.weight) ||
      a.role != b.role || a.cluster_head != b.cluster_head ||
      a.degree != b.degree || a.extra_weight_count != b.extra_weight_count) {
    return false;
  }
  for (std::size_t i = 0; i < a.extra_weights.size(); ++i) {
    if (!same_bits(a.extra_weights[i], b.extra_weights[i])) {
      return false;
    }
  }
  return true;
}

bool same_table(const net::NeighborTable& a, const net::NeighborTable& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_entry(a.entries()[i], b.entries()[i])) {
      return false;
    }
  }
  return true;
}

/// The observability bundle run_scenario() builds for a metrics-only
/// scenario: the same instruments, registered in the same order, so the
/// traced run's obs::Snapshot is byte-identical.
struct ObsBundle {
  obs::Registry registry;
  obs::NetHooks net_hooks;
  obs::SimHooks sim_hooks;
  obs::AgentHooks agent_hooks;
  obs::FaultHooks fault_hooks;
  obs::EnergyHooks energy_hooks;
  cluster::ObsClusterSink cluster_sink;

  ObsBundle(double warmup, double cascade_window, bool energy_enabled)
      : cluster_sink(registry, warmup, cascade_window, nullptr) {
    sim_hooks.queue_depth = registry.histogram(
        "event_queue.depth",
        {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0});
    net_hooks.beacon_sent = registry.counter("beacon.sent");
    net_hooks.hello_sent = registry.counter("hello.sent");
    net_hooks.hello_delivered = registry.counter("hello.delivered");
    net_hooks.hello_dropped_fading = registry.counter("hello.dropped.fading");
    net_hooks.hello_dropped_loss = registry.counter("hello.dropped.loss");
    net_hooks.hello_dropped_collision =
        registry.counter("hello.dropped.collision");
    net_hooks.neighbor_timeout = registry.counter("neighbor.timeout");
    net_hooks.msg_sent = registry.counter("msg.sent");
    net_hooks.msg_delivered = registry.counter("msg.delivered");
    agent_hooks.cci_deferral = registry.counter("cci.deferral");
    agent_hooks.cci_resolved = registry.counter("cci.resolved");
    fault_hooks.activated = registry.counter("fault.activated");
    fault_hooks.moot = registry.counter("fault.moot");
    fault_hooks.window_expired = registry.counter("fault.window_expired");
    if (energy_enabled) {
      energy_hooks.depleted = registry.counter("energy.depleted");
      energy_hooks.drains = registry.counter("energy.drain");
      energy_hooks.residual_ratio = registry.histogram(
          "energy.residual_ratio", {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0});
    }
  }
};

}  // namespace

TracedRun run_traced(const Scenario& s, const std::string& algorithm) {
  if (s.obs.trace_enabled()) {
    throw std::invalid_argument("run_traced: trace output is not supported");
  }
  const scenario::OptionsFactory factory = scenario::factory_by_name(algorithm);
  LayerTrace trace;
  TracedRun out;

  const double t_call = now_s();
  const std::uint64_t a_call = util::heap_alloc_count();
  util::CommitRoleScope commit_scope;

  sim::Simulator sim;
  util::Rng root(s.seed);
  radio::Medium medium(
      std::make_shared<TimedPropagation>(
          radio::make_propagation(s.propagation, s.pathloss_exponent,
                                  s.shadowing_sigma_db),
          trace.radio),
      radio::RadioParams{}, s.tx_range);

  mobility::FleetParams fleet = s.fleet;
  fleet.duration = s.sim_time;
  const geom::Rect field = mobility::fleet_field(fleet);
  net::NetworkParams net_params = s.net;
  net_params.speed_bound =
      std::max(net_params.speed_bound, fleet.max_speed * 2.0);

  net::Network network(sim, std::move(medium), field, net_params,
                       root.substream("network"));
  std::vector<std::unique_ptr<mobility::MobilityModel>> models =
      mobility::make_fleet(fleet, s.n_nodes, root.substream("mobility"));
  for (auto& m : models) {
    m = std::make_unique<TimedMobility>(std::move(m), trace.mobility);
  }
  network.add_fleet(std::move(models));

  std::unique_ptr<util::ThreadPool> sim_pool;
  std::unique_ptr<net::ShardPlanner> planner;
  const int sim_jobs = net::ShardPlanner::resolve_sim_jobs(s.sim_jobs);
  if (sim_jobs > 1 && net::ShardPlanner::supported(network)) {
    sim_pool =
        std::make_unique<util::ThreadPool>(static_cast<std::size_t>(sim_jobs));
    planner = std::make_unique<net::ShardPlanner>(network, *sim_pool);
    network.enable_sharding(planner.get());
  }

  std::unique_ptr<net::EnergyModel> energy;
  if (s.energy.enabled) {
    energy = std::make_unique<net::EnergyModel>(s.energy, s.n_nodes,
                                                root.substream("energy"));
    network.set_energy(energy.get());
  }

  std::unique_ptr<ObsBundle> bundle;
  if (s.obs.metrics) {
    bundle = std::make_unique<ObsBundle>(
        s.warmup, net_params.broadcast_interval * 1.25, energy != nullptr);
    bundle->cluster_sink.reserve_nodes(s.n_nodes);
    sim.set_hooks(&bundle->sim_hooks);
    network.set_hooks(&bundle->net_hooks);
  }

  cluster::ClusterStats stats(s.warmup);
  stats.reserve_nodes(s.n_nodes);
  cluster::FanoutClusterEventSink fanout(
      {&stats, bundle == nullptr ? nullptr : &bundle->cluster_sink});
  TimedSink sink(bundle == nullptr
                     ? static_cast<cluster::ClusterEventSink&>(stats)
                     : fanout,
                 trace.cluster_sink);
  std::vector<net::NeighborTable> shadow(s.n_nodes);
  std::vector<const cluster::WeightedClusterAgent*> agents;
  agents.reserve(s.n_nodes);
  for (auto& node : network.nodes()) {
    cluster::ClusterOptions opts = factory(&sink);
    if (bundle != nullptr) {
      opts.obs = &bundle->agent_hooks;
    }
    opts.energy = energy.get();
    auto agent = std::make_unique<cluster::WeightedClusterAgent>(opts);
    agents.push_back(agent.get());
    node->set_agent(std::make_unique<TracedAgent>(
        std::move(agent), shadow[node->id()], trace));
  }

  cluster::ClusterSampler sampler(sim, agents);
  sampler.start(s.warmup, s.sample_period, s.sim_time);

  std::unique_ptr<fault::Injector> injector;
  std::unique_ptr<cluster::ConvergenceMonitor> monitor;
  if (!s.faults.empty() || energy != nullptr) {
    fault::Schedule schedule;
    if (!s.faults.empty()) {
      fault::ScheduleSpec spec = s.faults;
      if (spec.begin == 0.0 && spec.end == 0.0) {
        spec.begin = s.warmup;
        spec.end = s.sim_time;
      }
      schedule = fault::make_schedule(spec, s.n_nodes, field,
                                      root.substream("faults"));
    }
    injector = std::make_unique<fault::Injector>(network, std::move(schedule));
    monitor =
        std::make_unique<cluster::ConvergenceMonitor>(sim, network, agents);
    injector->set_on_fault([mon = monitor.get()](const fault::FaultEvent& e) {
      MANET_ASSERT_COMMIT_ROLE();
      mon->note_fault(e.at);
    });
    if (bundle != nullptr) {
      injector->set_hooks(&bundle->fault_hooks);
    }
    if (energy != nullptr) {
      injector->reserve_external(s.n_nodes);
      energy->set_on_depleted(
          [](void* ctx, net::NodeId node, sim::Time t) {
            MANET_ASSERT_COMMIT_ROLE();
            fault::FaultEvent e;
            e.kind = fault::FaultKind::kBatteryDepleted;
            e.at = t;
            e.node = node;
            static_cast<fault::Injector*>(ctx)->inject_now(e);
          },
          injector.get());
      if (bundle != nullptr) {
        energy->set_hooks(&bundle->energy_hooks);
      }
    }
    injector->arm();
    monitor->start(s.warmup, s.sample_period, s.sim_time);
  }

  network.start();

  // The on_start boundary of run_scenario(): set-up ends here.
  const double t_start = now_s();
  const std::uint64_t a_start = util::heap_alloc_count();
  trace.reset();

  sim.run_until(s.sim_time);
  if (planner != nullptr) {
    planner->shutdown();
  }
  stats.finish(s.sim_time);
  if (bundle != nullptr) {
    bundle->cluster_sink.finish(s.sim_time);
  }

  RunResult& r = out.result;
  r.ch_changes = stats.clusterhead_changes();
  r.head_gains = stats.head_gains();
  r.head_losses = stats.head_losses();
  r.reaffiliations = stats.reaffiliations();
  r.mean_head_lifetime = stats.head_lifetimes().mean();
  r.avg_clusters = sampler.num_clusters().mean();
  r.avg_gateways = sampler.num_gateways().mean();
  r.avg_undecided = sampler.num_undecided().mean();
  r.avg_cluster_size = sampler.cluster_sizes().mean();
  r.mean_degree = network.stats().mean_degree();
  r.beacons_sent = network.stats().beacons_sent;
  r.hellos_delivered = network.stats().hellos_delivered;
  r.bytes_sent = network.stats().bytes_sent;
  r.events_executed = sim.events_executed();
  r.final_validation = cluster::validate_clusters(network, agents, s.sim_time);
  if (monitor != nullptr) {
    const cluster::ConvergenceMonitor::Summary sum = monitor->finish(s.sim_time);
    r.faults_injected = sum.faults_observed;
    r.recoveries = sum.recovery.count();
    r.mean_recovery_s = sum.recovery.mean();
    r.max_recovery_s = sum.recovery.empty() ? 0.0 : sum.recovery.max();
    r.unrecovered_disruptions = sum.unrecovered_disruptions;
    r.orphaned_member_seconds = sum.orphaned_member_seconds;
    r.convergence_samples = sum.samples;
    r.violation_samples = sum.violation_samples;
  }
  if (injector != nullptr) {
    r.fault_timeline.reserve(injector->timeline().size());
    for (const auto& applied : injector->timeline()) {
      r.fault_timeline.push_back(applied.event);
    }
  }
  for (const auto* a : agents) {
    r.final_heads += a->role() == cluster::Role::kHead ? 1 : 0;
  }
  if (energy != nullptr) {
    energy->settle_all(s.sim_time);
    r.energy_initial_j = energy->total_initial_j();
    r.energy_residual_j = energy->total_residual_j();
    r.energy_drained_j = energy->total_drained_j();
    r.battery_deaths = energy->deaths();
  }
  {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& [node, tenure] : stats.head_tenure()) {
      sum += tenure;
      sum_sq += tenure * tenure;
    }
    r.head_tenure_fairness =
        sum_sq > 0.0
            ? (sum * sum) / (static_cast<double>(s.n_nodes) * sum_sq)
            : 0.0;
  }
  if (bundle != nullptr) {
    r.metrics = bundle->registry.snapshot();
  }
  const double t_end = now_s();
  const std::uint64_t a_end = util::heap_alloc_count();

  out.timing = {t_start - t_call, t_end - t_start, a_start - a_call,
                a_end - a_start};
  out.mobility = cost_of(trace.mobility);
  out.radio = cost_of(trace.radio);
  out.table = cost_of(trace.table);
  out.cluster_beacon = cost_of(trace.cluster_beacon);
  out.cluster_hello = cost_of(trace.cluster_hello);
  out.cluster_sink = cost_of(trace.cluster_sink);
  if (planner != nullptr) {
    out.planner_speculated = planner->speculated();
    out.planner_committed = planner->committed();
  }
  out.shadow_tables_match = true;
  for (const auto& node : network.nodes()) {
    if (node->alive() && !same_table(node->table(), shadow[node->id()])) {
      out.shadow_tables_match = false;
    }
  }
  return out;
}

}  // namespace perfbench
