// Single-run drivers of the benchmark.
//
// run_plain() is scenario::run_scenario() itself, split at its on_start
// hook into set-up (world assembly) and steady state, for both wall time
// and heap allocations.
//
// run_traced() assembles the same world run_scenario() builds, from the
// same public constructors in the same order, but wraps the virtual seams
// between layers in timing decorators: mobility::MobilityModel,
// radio::PropagationModel, net::Agent and cluster::ClusterEventSink. The
// neighbor-table layer is timed on a shadow net::NeighborTable per node,
// fed by the agent decorator with the same on_hello()/purge() calls the
// node makes on its own table. The decorators only forward, so the traced
// RunResult must equal the untraced one bit for bit; callers check that.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/scenario.h"

namespace perfbench {

/// Host-side cost of one run, split at the on_start boundary.
struct RunTiming {
  double setup_s = 0.0;   // run_scenario call -> on_start
  double steady_s = 0.0;  // on_start -> return
  std::uint64_t setup_allocs = 0;
  std::uint64_t steady_allocs = 0;
};

struct PlainRun {
  manet::scenario::RunResult result;
  RunTiming timing;
};

PlainRun run_plain(const manet::scenario::Scenario& scenario,
                   const std::string& algorithm);

/// World assembly alone: run_scenario() abandoned at its on_start hook.
/// Returns the set-up wall time (call -> on_start).
double setup_only(const manet::scenario::Scenario& scenario,
                  const std::string& algorithm);

/// Calls into one layer during the steady state, and their self time.
struct LayerCost {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
};

struct TracedRun {
  manet::scenario::RunResult result;
  RunTiming timing;
  LayerCost mobility;        // MobilityModel::position/velocity
  LayerCost radio;           // PropagationModel::rx_power_w (all threads)
  LayerCost table;           // shadow NeighborTable::on_hello/purge
  LayerCost cluster_beacon;  // Agent::on_beacon (estimator + election)
  LayerCost cluster_hello;   // Agent::on_hello
  LayerCost cluster_sink;    // ClusterEventSink callbacks
  std::uint64_t planner_speculated = 0;
  std::uint64_t planner_committed = 0;
  /// Every alive node's table equals its shadow at the end of the run.
  bool shadow_tables_match = false;
};

/// Supports every scenario run_plain() does except trace output
/// (Scenario::obs trace level or path set), which the benchmark never uses.
TracedRun run_traced(const manet::scenario::Scenario& scenario,
                     const std::string& algorithm);

}  // namespace perfbench
