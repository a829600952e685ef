// Extension bench: packet-level CBRP routing (§5 / [10]) carrying CBR
// flows over each clustering underlay. Where `routing_overhead` analyzes
// snapshots, this runs the actual protocol — RREQ floods on the cluster
// overlay, source-routed data, RERR recovery — and reports what a network
// operator would measure.
//
//   cbrp_routing [--seeds N] [--time S] [--csv PATH] [--fast] [--jobs N]
#include <iostream>

#include "bench_common.h"
#include "routing/cbrp_experiment.h"

int main(int argc, char** argv) {
  using namespace manet;

  bench::Cli cli(argc, argv, "Extension: packet-level CBRP routing with CBR flows over each clustering underlay.");
  const auto cfg = cli.config();
  cli.finish();

  std::cout << "=== CBRP over the cluster structure (670x670 m, MaxSpeed "
            << "20, PT 0, Tx 200 m, 10 flows @ 1 pkt/5 s, " << cfg.sim_time
            << " s, " << cfg.seeds << " seeds) ===\n\n";

  util::Table table({"underlay", "CS", "delivery", "ctrl/delivered pkt",
                     "RREQ tx", "RERR tx", "disc. latency (ms)",
                     "route hops"});
  std::optional<util::CsvWriter> csv;
  if (!cfg.csv_path.empty()) {
    csv.emplace(cfg.csv_path);
    csv->row({"underlay", "cs", "delivery", "ctrl_per_pkt", "rreq", "rerr",
              "latency_ms", "hops"});
  }

  // (algorithm, seed) grid dispatched through the Runner; canonical-order
  // reduction keeps the table identical to the old serial loop.
  const auto algorithms = scenario::paper_algorithms();
  const auto seeds = static_cast<std::size_t>(cfg.seeds);
  const auto runner = cfg.runner();
  const auto runs = runner.map<routing::CbrpExperimentResult>(
      algorithms.size() * seeds, [&](std::size_t idx) {
        const auto& alg = algorithms[idx / seeds];
        const auto k = idx % seeds;
        routing::CbrpExperimentParams params;
        params.scenario = bench::paper_scenario();
        params.scenario.sim_time = cfg.sim_time;
        params.scenario.tx_range = 200.0;
        params.scenario.seed = 1 + static_cast<std::uint64_t>(k);
        params.flows = 10;
        params.data_interval = 5.0;
        cfg.apply_obs(params.scenario);
        params.scenario.obs.tag = alg.name;  // "{tag}" in --trace-out
        return routing::run_cbrp_experiment(params, alg.factory);
      });

  double delivery_mobic = 0.0, delivery_lid = 0.0;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const auto& alg = algorithms[a];
    util::RunningStats cs, delivery, ctrl, rreq, rerr, latency, hops;
    for (std::size_t k = 0; k < seeds; ++k) {
      const auto& r = runs[a * seeds + k];
      cs.add(static_cast<double>(r.run.ch_changes));
      delivery.add(r.stats.delivery_ratio());
      ctrl.add(r.stats.control_per_delivery());
      rreq.add(static_cast<double>(r.stats.rreq_tx));
      rerr.add(static_cast<double>(r.stats.rerr_tx));
      latency.add(r.stats.discovery_latency.mean() * 1e3);
      hops.add(r.stats.route_hops.mean());
    }
    (alg.name == "mobic" ? delivery_mobic : delivery_lid) = delivery.mean();
    table.add(alg.name, util::Table::fmt(cs.mean(), 0),
              util::Table::fmt(delivery.mean(), 3),
              util::Table::fmt(ctrl.mean(), 2),
              util::Table::fmt(rreq.mean(), 0),
              util::Table::fmt(rerr.mean(), 0),
              util::Table::fmt(latency.mean(), 1),
              util::Table::fmt(hops.mean(), 2));
    if (csv) {
      csv->row_values(alg.name, cs.mean(), delivery.mean(), ctrl.mean(),
                      rreq.mean(), rerr.mean(), latency.mean(), hops.mean());
    }
  }
  table.print(std::cout);
  std::cout << "\nCS = clusterhead changes in the underlay. The §5 thesis: "
               "a stabler underlay should deliver at least as well with "
               "less control traffic.\n";
  if (delivery_mobic < delivery_lid - 0.1) {
    std::cerr << "CBRP CHECK FAILED: MOBIC underlay delivery collapsed\n";
    return 1;
  }
  return 0;
}
