// Ablation A7 — §5's "integrate the mobility metric with a cluster based
// routing protocol": route discovery on top of the cluster structure
// (CBRP-style: only clusterheads and gateways forward RREQs) versus flat
// flooding, under each clustering algorithm.
//
// Reported per algorithm:
//   * control transmissions per discovery (flat vs cluster overlay);
//   * delivery rate of each scheme;
//   * route lifetime: how long the discovered route survives node motion —
//     where clusterhead stability pays off.
//
//   routing_overhead [--seeds N] [--time S] [--csv PATH] [--fast] [--jobs N]
#include <iostream>

#include "bench_common.h"
#include "routing/experiment.h"

int main(int argc, char** argv) {
  using namespace manet;

  bench::Cli cli(argc, argv, "Ablation A7: cluster-overlay route discovery vs flat flooding.");
  const auto cfg = cli.config();
  cli.finish();

  std::cout << "=== Ablation A7: cluster-based route discovery (670x670 m, "
            << "MaxSpeed 20, PT 0, Tx 150 m, " << cfg.sim_time << " s, "
            << cfg.seeds << " seeds) ===\n\n";

  util::Table table({"algorithm", "CS", "tx/discovery (flood)",
                     "tx/discovery (cluster)", "delivery (flood)",
                     "delivery (cluster)", "route life (s, flood)",
                     "route life (s, cluster)", "overlay churn"});
  std::optional<util::CsvWriter> csv;
  if (!cfg.csv_path.empty()) {
    csv.emplace(cfg.csv_path);
    csv->row({"algorithm", "cs", "tx_flood", "tx_cluster", "del_flood",
              "del_cluster", "life_flood", "life_cluster", "overlay_churn"});
  }

  // Fan every (algorithm, seed) run out as an independent job; reduce in
  // canonical order below so the output matches the old serial loop.
  const auto algorithms = scenario::paper_algorithms();
  const auto seeds = static_cast<std::size_t>(cfg.seeds);
  const auto runner = cfg.runner();
  const auto runs = runner.map<routing::RoutingResult>(
      algorithms.size() * seeds, [&](std::size_t idx) {
        const auto& alg = algorithms[idx / seeds];
        const auto k = idx % seeds;
        routing::RoutingExperimentParams params;
        params.scenario = bench::paper_scenario();
        params.scenario.sim_time = cfg.sim_time;
        params.scenario.tx_range = 150.0;
        params.scenario.seed = 1 + static_cast<std::uint64_t>(k);
        cfg.apply_obs(params.scenario);
        params.scenario.obs.tag = alg.name;  // "{tag}" in --trace-out
        return routing::run_routing_experiment(params, alg.factory);
      });

  double overlay_saving_mobic = 0.0;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const auto& alg = algorithms[a];
    util::RunningStats cs, txf, txc, delf, delc, lifef, lifec, churn;
    for (std::size_t k = 0; k < seeds; ++k) {
      const auto& r = runs[a * seeds + k];
      cs.add(static_cast<double>(r.ch_changes));
      txf.add(r.mean_tx_flood);
      txc.add(r.mean_tx_cluster);
      delf.add(r.delivery_flood);
      delc.add(r.delivery_cluster);
      lifef.add(r.mean_route_lifetime_flood);
      lifec.add(r.mean_route_lifetime_cluster);
      churn.add(r.overlay_churn);
    }
    if (alg.name == "mobic") {
      overlay_saving_mobic = 1.0 - txc.mean() / txf.mean();
    }
    table.add(alg.name, util::Table::fmt(cs.mean(), 0),
              util::Table::fmt(txf.mean(), 1), util::Table::fmt(txc.mean(), 1),
              util::Table::fmt(delf.mean(), 2),
              util::Table::fmt(delc.mean(), 2),
              util::Table::fmt(lifef.mean(), 1),
              util::Table::fmt(lifec.mean(), 1),
              util::Table::fmt(churn.mean(), 3));
    if (csv) {
      csv->row_values(alg.name, cs.mean(), txf.mean(), txc.mean(),
                      delf.mean(), delc.mean(), lifef.mean(), lifec.mean(),
                      churn.mean());
    }
  }
  table.print(std::cout);
  std::cout << "\nThe cluster overlay cuts RREQ transmissions by "
            << util::Table::fmt(overlay_saving_mobic * 100.0, 1)
            << "% under MOBIC (the flooding-containment argument of §1/§2); "
               "route lifetime under the stabler clusterheads is the §5 "
               "payoff.\n";
  if (overlay_saving_mobic <= 0.0) {
    std::cerr << "ROUTING CHECK FAILED: overlay does not reduce overhead\n";
    return 1;
  }
  return 0;
}
