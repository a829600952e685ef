// End-to-end CBRP experiment: a fleet of CbrpAgents (clustering underlay +
// packet-level routing) carrying constant-rate application flows between
// random node pairs. Measures what the paper's §5 integration would: data
// delivery ratio, control overhead per delivered packet, discovery latency
// and route length — per clustering algorithm.
#pragma once

#include "routing/cbrp.h"
#include "scenario/scenario.h"

namespace manet::routing {

struct CbrpExperimentParams {
  scenario::Scenario scenario;
  /// Concurrent application flows (random distinct src->dst pairs).
  int flows = 10;
  /// Seconds between packets within each flow.
  double data_interval = 5.0;
  /// Application payload bytes per packet.
  std::size_t payload_bytes = 512;
  CbrpOptions cbrp{};  // clustering is overwritten by `factory` below
};

struct CbrpExperimentResult {
  scenario::RunResult run;  // the underlay run (CS, faults, energy, obs)
  CbrpStats stats;
};

/// Runs the flows through scenario::run_scenario, so every Scenario knob
/// (faults, energy, obs, sim_jobs) applies to CBRP runs too.
CbrpExperimentResult run_cbrp_experiment(
    const CbrpExperimentParams& params,
    const scenario::OptionsFactory& factory);

}  // namespace manet::routing
