#include "routing/cbrp_experiment.h"

#include "util/assert.h"
#include "util/thread_role.h"

namespace manet::routing {

CbrpExperimentResult run_cbrp_experiment(
    const CbrpExperimentParams& params,
    const scenario::OptionsFactory& factory) {
  const auto& sc = params.scenario;
  MANET_CHECK(params.flows > 0 && params.data_interval > 0.0);

  CbrpExperimentResult result;
  std::vector<CbrpAgent*> agents;
  agents.reserve(sc.n_nodes);
  const scenario::AgentFactory make_agent =
      [&](const cluster::ClusterOptions& clustering) {
        CbrpOptions o = params.cbrp;
        o.clustering = clustering;
        o.stats = &result.stats;
        auto agent = std::make_unique<CbrpAgent>(o);
        agents.push_back(agent.get());
        return scenario::NodeAgent{std::move(agent),
                                   &agents.back()->clustering()};
      };

  // Application flows: distinct random pairs, constant bit rate from
  // warm-up (clusters need a moment to form) to the end.
  const auto on_start = [&](scenario::LiveContext& ctx) {
    // Invoked from inside run_scenario, on the run's commit thread.
    MANET_ASSERT_COMMIT_ROLE();
    util::Rng traffic = util::Rng(sc.seed).substream("traffic");
    for (int f = 0; f < params.flows; ++f) {
      const auto src = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
      auto dst = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
      while (dst == src) {
        dst = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
      }
      // Small phase offset so flows do not all fire simultaneously.
      const double phase = traffic.uniform(0.0, params.data_interval);
      for (double t = sc.warmup + phase; t < sc.sim_time;
           t += params.data_interval) {
        ctx.sim.schedule_at(t, [&network = ctx.network, &agents, src, dst,
                                &params] {
          MANET_ASSERT_COMMIT_ROLE();
          agents[src]->send_data(network.node(src), dst,
                                 params.payload_bytes);
        });
      }
    }
  };

  result.run = scenario::run_scenario(sc, factory, on_start, nullptr,
                                      make_agent);
  return result;
}

}  // namespace manet::routing
