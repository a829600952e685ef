#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "measure.h"
#include "scenario/cache.h"
#include "scenario/reporting.h"
#include "scenario/runner.h"
#include "traced_world.h"
#include "util/hash.h"

namespace perfbench {

using namespace manet;
using scenario::RunResult;
using scenario::Scenario;

namespace {

// paper_sweep: the Figure-3 grid. 5 seeds x 11 Tx x 2 algorithms = 110
// cells, so the p90 cell time has 11 cells beyond it.
constexpr int kPaperReplications = 5;
constexpr int kMaxSweepJobs = 4;
// Windows of short operations, timed one by one and reported as the median
// over every window of the run: warm passes after each cold pass, and
// set-up probes after each timed pass or run.
constexpr int kMinWarmPasses = 10;
constexpr double kWarmSeconds = 0.5;
constexpr double kSetupSeconds = 0.4;

// churn_2k: SD_DWCA with batteries and faults at N = 2000, timed serially.
// One untimed twin at kChurnSimJobs intra-run workers must reproduce the
// serial result, and in the traced pass it gives the shard planner's
// counts.
constexpr std::size_t kChurnNodes = 2000;
constexpr double kChurnSimTime = 60.0;
constexpr int kChurnSimJobs = 2;

// Timed repetitions of the single-run workload, and the window of cached
// reruns after each.
constexpr int kMinReps = 3;
constexpr int kMinReruns = 5;
constexpr double kRerunSeconds = 0.1;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Scenario seed of a workload: unrelated inputs for neighbouring --seed
/// values (the sweep uses seed .. seed+4, so raw seeds would overlap).
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed ^ splitmix64(salt)) >> 1;
}

Scenario at_paper_density(std::size_t n, double sim_time, std::uint64_t seed) {
  Scenario s = scenario::paper_scenario();
  s.n_nodes = n;
  const double side = 670.0 * std::sqrt(static_cast<double>(n) / 50.0);
  s.fleet.field = geom::Rect(side, side);
  s.sim_time = sim_time;
  s.seed = seed;
  return s;
}

Scenario churn_scenario(std::uint64_t seed) {
  Scenario s = at_paper_density(kChurnNodes, kChurnSimTime,
                                scenario_seed(seed, 3));
  s.sim_jobs = 1;  // timed serially; see kChurnSimJobs
  // ablation_energy's per-action costs. A node drains about 0.075 W at
  // this density, so capacities of 3.5-7 J leave roughly a third of the
  // batteries empty before the run ends.
  s.energy.enabled = true;
  s.energy.capacity_j = 7.0;
  s.energy.capacity_jitter = 0.5;
  s.energy.idle_drain_w = 0.01;
  s.energy.hello_tx_cost_j = 0.02;
  s.energy.hello_rx_cost_j = 0.005;
  // Network-wide fault rates: about one crash a second (20 s outages), a
  // loss burst every two seconds and a jamming zone every twenty.
  s.faults.crash_rate = 1.0;
  s.faults.mean_downtime = 20.0;
  s.faults.loss_burst_rate = 0.5;
  s.faults.loss_burst_duration = 8.0;
  s.faults.loss_burst_probability = 0.9;
  s.faults.jam_rate = 0.05;
  s.faults.jam_duration = 10.0;
  s.faults.jam_radius = 300.0;
  return s;
}

std::string digest_of(const std::vector<std::string>& cells) {
  util::Fnv64 h;
  for (const auto& c : cells) {
    h.update(c);
  }
  return util::hex64(h.digest());
}

void check(Report& r, const std::string& name, bool ok) {
  for (auto& [n, v] : r.checks) {
    if (n == name) {
      v = v && ok;
      return;
    }
  }
  r.checks.emplace_back(name, ok);
}

/// Records one attempted run or cell and whether it passed `check_name`.
void attempt(Report& r, const std::string& check_name, bool ok) {
  ++r.attempted;
  r.failed += ok ? 0 : 1;
  check(r, check_name, ok);
}

void add(Report& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics.push_back({name, value, unit});
}

/// The timed end-to-end metrics: medians over every set-up call and every
/// rerun, and the calm median of the simulation-rate samples.
void report_timings(Report& r, const std::vector<double>& setup_s,
                    const std::vector<Sample>& sim_rate,
                    const std::vector<double>& rerun_s) {
  add(r, "setup_s", median(setup_s), "s");
  add(r, "sim_s_per_s", calm_median(sim_rate), "sim-s/s");
  add(r, "rerun_s", median(rerun_s), "s");
  std::vector<double> all;
  for (const Sample& s : sim_rate) {
    all.push_back(s.value);
  }
  std::cerr << "perfbench: " << setup_s.size() << " set-up calls, "
            << rerun_s.size() << " reruns, " << sim_rate.size()
            << " rate samples (median of all " << median(all) << ")\n";
}

void add_memory(Report& r, const ProcMemory& mem) {
  add(r, "peak_rss_mb", mem.vm_hwm_mb, "MB");
  add(r, "vm_peak_mb", mem.vm_peak_mb, "MB");
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Appends to `out` the set-up time of each cell of `cells` (world assembly
/// through plain run_scenario(), stopped at on_start), over rounds of all
/// cells for kSetupSeconds, at least one round.
void setup_window(const std::vector<std::pair<Scenario, std::string>>& cells,
                  std::vector<double>& out) {
  const double until = now_s() + kSetupSeconds;
  do {
    for (const auto& [s, alg] : cells) {
      out.push_back(setup_only(s, alg));
    }
  } while (now_s() < until);
}

/// The workload's result-cache directory, under --work-dir and named for
/// this process; removed again when the workload ends.
class CacheDir {
 public:
  explicit CacheDir(const std::string& work_dir)
      : path_(std::filesystem::path(work_dir) /
              ("cache-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~CacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  CacheDir(const CacheDir&) = delete;
  CacheDir& operator=(const CacheDir&) = delete;

  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced world
// ---------------------------------------------------------------------------

/// Sums of TracedRun costs over one round (one run, or the sweep's probe
/// cells) and of the untraced runs paired with it.
struct Round {
  double traced_steady_s = 0.0;
  double plain_steady_s = 0.0;
  double setup_allocs = 0.0;
  double steady_allocs = 0.0;
  LayerCost mobility, radio, table, beacon, hello, sink;
  double events = 0.0;
  double beacons = 0.0;
  double hellos = 0.0;
  double faults = 0.0;
  double deaths = 0.0;
  int runs = 0;

  void add_pair(const PlainRun& plain, const TracedRun& traced) {
    traced_steady_s += traced.timing.steady_s;
    plain_steady_s += plain.timing.steady_s;
    setup_allocs += static_cast<double>(plain.timing.setup_allocs);
    steady_allocs += static_cast<double>(plain.timing.steady_allocs);
    const auto acc = [](LayerCost& a, const LayerCost& b) {
      a.calls += b.calls;
      a.busy_s += b.busy_s;
    };
    acc(mobility, traced.mobility);
    acc(radio, traced.radio);
    acc(table, traced.table);
    acc(beacon, traced.cluster_beacon);
    acc(hello, traced.cluster_hello);
    acc(sink, traced.cluster_sink);
    const RunResult& res = traced.result;
    events += static_cast<double>(res.events_executed);
    beacons += static_cast<double>(res.beacons_sent);
    hellos += static_cast<double>(res.hellos_delivered);
    faults += static_cast<double>(res.faults_injected);
    deaths += static_cast<double>(res.battery_deaths);
    ++runs;
  }
};

/// Runs `cells` as untraced/traced pairs, alternating which side goes
/// first, in rounds until the deadline (at least one round). Checks that
/// each traced RunResult equals its untraced twin, and that the untraced
/// run encodes to `expected` (an empty entry takes the first run's cell).
std::vector<Round> traced_rounds(
    Report& r, const std::vector<std::pair<Scenario, std::string>>& cells,
    std::vector<std::string>& expected, double deadline) {
  std::vector<Round> rounds;
  int order = 0;
  do {
    Round round;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& [sc, alg] = cells[i];
      PlainRun plain;
      TracedRun traced;
      try {
        if (order++ % 2 == 0) {
          plain = run_plain(sc, alg);
          traced = run_traced(sc, alg);
        } else {
          traced = run_traced(sc, alg);
          plain = run_plain(sc, alg);
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: run threw: " << e.what() << "\n";
        attempt(r, "runs_complete", false);
        continue;
      }
      attempt(r, "traced_equals_untraced", traced.result == plain.result);
      check(r, "shadow_tables_match", traced.shadow_tables_match);
      const std::string cell = scenario::encode_cell(plain.result);
      if (expected[i].empty()) {
        expected[i] = cell;
      }
      check(r, "untraced_matches_reference", cell == expected[i]);
      round.add_pair(plain, traced);
    }
    rounds.push_back(round);
  } while (now_s() < deadline);
  return rounds;
}

void add_world_layers(Report& r, const std::vector<Round>& rounds) {
  const auto put = [&](const std::string& name, const std::string& unit,
                       const auto& f) {
    std::vector<double> v;
    for (const Round& x : rounds) {
      v.push_back(f(x));
    }
    add(r, name, median(v), unit);
  };
  const auto busy_sum = [](const Round& x) {
    return x.mobility.busy_s + x.radio.busy_s + x.table.busy_s +
           x.beacon.busy_s + x.hello.busy_s + x.sink.busy_s;
  };
  struct Layer {
    const char* calls;
    const char* busy;
    LayerCost Round::*cost;
  };
  for (const Layer& l : {Layer{"mobility.calls", "mobility.busy_s", &Round::mobility},
                         Layer{"radio.calls", "radio.busy_s", &Round::radio},
                         Layer{"net.table.calls", "net.table.busy_s", &Round::table},
                         Layer{"cluster.beacon_calls", "cluster.beacon_busy_s",
                               &Round::beacon},
                         Layer{"cluster.hello_calls", "cluster.hello_busy_s",
                               &Round::hello},
                         Layer{"cluster.events", "cluster.sink_busy_s", &Round::sink}}) {
    put(l.calls, "count", [&l](const Round& x) {
      return static_cast<double>((x.*l.cost).calls);
    });
    put(l.busy, "s", [&l](const Round& x) { return (x.*l.cost).busy_s; });
  }
  put("scenario.setup_allocs", "count",
      [](const Round& x) { return x.setup_allocs / x.runs; });
  put("sim.events", "count", [](const Round& x) { return x.events; });
  put("sim.steady_allocs_per_event", "allocs/event",
      [](const Round& x) { return safe_ratio(x.steady_allocs, x.events); });
  put("net.rx_per_beacon", "ratio",
      [](const Round& x) { return safe_ratio(x.hellos, x.beacons); });
  put("net.scan_yield", "ratio", [](const Round& x) {
    return safe_ratio(x.hellos, static_cast<double>(x.radio.calls));
  });
  put("fault.injected", "count", [](const Round& x) { return x.faults; });
  put("energy.deaths", "count", [](const Round& x) { return x.deaths; });
  put("sim.residual_s", "s", [&](const Round& x) {
    return std::max(0.0, x.traced_steady_s - busy_sum(x));
  });
  put("trace.coverage", "ratio", [&](const Round& x) {
    return safe_ratio(busy_sum(x), x.traced_steady_s);
  });
  put("trace.overhead_ratio", "ratio", [](const Round& x) {
    return safe_ratio(x.traced_steady_s, x.plain_steady_s);
  });
}

/// The shard planner's counts, from a sharded run (0 when none ran).
void add_planner_layers(Report& r, const TracedRun* sharded) {
  const double speculated =
      sharded != nullptr ? static_cast<double>(sharded->planner_speculated)
                         : 0.0;
  const double committed =
      sharded != nullptr ? static_cast<double>(sharded->planner_committed)
                         : 0.0;
  add(r, "net.planner.speculated", speculated, "count");
  add(r, "net.planner.committed", committed, "count");
  add(r, "net.planner.commit_ratio", safe_ratio(committed, speculated),
      "ratio");
}

void add_runner_layers(Report& r, double p50_ms, double p90_ms, double busy,
                       double hits, double hit_us) {
  add(r, "scenario.runner.cell_p50_ms", p50_ms, "ms");
  add(r, "scenario.runner.cell_p90_ms", p90_ms, "ms");
  add(r, "scenario.runner.busy_ratio", busy, "ratio");
  add(r, "scenario.cache.hits", hits, "count");
  add(r, "scenario.cache.hit_us", hit_us, "us");
}

// ---------------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------------

/// One Runner pass over the grid: every cell's encoded result in canonical
/// (point, algorithm, seed) order, with its status and wall time.
struct SweepPass {
  std::vector<RunResult> results;
  std::vector<std::string> status;  // empty: on_run never saw the cell
  std::vector<double> cell_wall_s;  // computed cells only, completion order
  double wall_s = 0.0;
  double steal_s = 0.0;  // host steal during the pass, all CPUs
  std::size_t hits = 0;
  bool threw = false;
};

scenario::SweepSpec paper_spec(std::uint64_t seed) {
  scenario::SweepSpec spec;
  spec.base = scenario::paper_scenario();
  spec.base.seed = scenario_seed(seed, 1);
  spec.xs = scenario::default_tx_sweep();
  spec.configure = [](Scenario& s, double tx) { s.tx_range = tx; };
  spec.algorithms = scenario::paper_algorithms();
  spec.fields = {{"cs", scenario::field_ch_changes}};
  spec.replications = kPaperReplications;
  return spec;
}

/// Every cell of the grid as the Runner sets it up (seed = base + k), in
/// canonical (point, algorithm, seed) order.
std::vector<std::pair<Scenario, std::string>> grid_cells(
    const scenario::SweepSpec& spec) {
  std::vector<std::pair<Scenario, std::string>> out;
  for (double x : spec.xs) {
    for (const auto& alg : spec.algorithms) {
      for (int k = 0; k < spec.replications; ++k) {
        Scenario s = spec.base;
        spec.configure(s, x);
        s.seed = spec.base.seed + static_cast<std::uint64_t>(k);
        out.emplace_back(s, alg.name);
      }
    }
  }
  return out;
}

/// The grid plus one Runner (and so one thread pool) reused by every pass,
/// over one cache directory that clear_cache() empties for a cold pass.
class PaperSweep {
 public:
  PaperSweep(std::uint64_t seed, std::string cache_dir)
      : spec_(paper_spec(seed)),
        cells_(grid_cells(spec_)),
        cache_dir_(std::move(cache_dir)) {
    scenario::RunnerOptions o;
    o.jobs = std::min(available_cpus(), kMaxSweepJobs);
    o.cache_dir = cache_dir_;
    o.on_run = [this](const scenario::RunRecord& rec) {
      std::size_t alg = 0;
      while (spec_.algorithms[alg].name != rec.algorithm) {
        ++alg;
      }
      const std::size_t i =
          (rec.point_index * spec_.algorithms.size() + alg) *
              static_cast<std::size_t>(spec_.replications) +
          static_cast<std::size_t>(rec.replicate);
      if (rec.result != nullptr) {
        current_->status[i] = rec.status;
        current_->results[i] = *rec.result;
      }
      if (rec.status != "cached") {
        current_->cell_wall_s.push_back(rec.wall_seconds);
      }
    };
    runner_ = std::make_unique<scenario::Runner>(std::move(o));
  }

  int jobs() const { return runner_->jobs(); }
  std::size_t cells() const { return cells_.size(); }
  double sim_seconds() const {
    return static_cast<double>(cells()) * spec_.base.sim_time;
  }

  /// Replicate 0 of every (Tx, algorithm) point: the cells timed for
  /// set-up and traced; probe i is grid cell probe_index(i).
  std::size_t probe_index(std::size_t i) const {
    return i * static_cast<std::size_t>(spec_.replications);
  }
  std::vector<std::pair<Scenario, std::string>> probe_cells() const {
    std::vector<std::pair<Scenario, std::string>> out;
    for (std::size_t i = 0; probe_index(i) < cells_.size(); ++i) {
      out.push_back(cells_[probe_index(i)]);
    }
    return out;
  }

  /// Empties the result cache, so the next pass computes every cell.
  void clear_cache() const { std::filesystem::remove_all(cache_dir_); }

  /// Runs the grid once; only Runner::run() is timed.
  SweepPass run_pass() {
    SweepPass pass;
    pass.results.assign(cells(), RunResult());
    pass.status.assign(cells(), std::string());
    current_ = &pass;
    const double steal0 = host_steal_s();
    const double t0 = now_s();
    try {
      runner_->run(spec_);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: sweep pass threw: " << e.what() << "\n";
      pass.threw = true;
    }
    pass.wall_s = now_s() - t0;
    pass.steal_s = host_steal_s() - steal0;
    current_ = nullptr;
    pass.hits = runner_->cache_stats().hits;
    return pass;
  }

 private:
  scenario::SweepSpec spec_;
  std::vector<std::pair<Scenario, std::string>> cells_;
  std::string cache_dir_;
  SweepPass* current_ = nullptr;  // the pass on_run fills
  std::unique_ptr<scenario::Runner> runner_;
};

/// Checks every cell of `pass` against `reference` and its expected status.
void check_pass(Report& r, const SweepPass& pass,
                const std::vector<RunResult>& reference,
                const std::string& status, const std::string& name) {
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    attempt(r, name,
            !pass.threw && pass.status[i] == status &&
                pass.results[i] == reference[i]);
  }
}

std::vector<std::string> encode_all(const std::vector<RunResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const RunResult& res : results) {
    out.push_back(scenario::encode_cell(res));
  }
  return out;
}

/// A cold pass into an empty cache, then warm passes served from it for
/// kWarmSeconds; the warm cells must all be hits equal to `reference` (the
/// first cold pass when empty).
struct ColdWarm {
  SweepPass cold;
  std::vector<double> warm_s;  // wall time of each warm pass
  std::size_t hits = 0;        // per warm pass
};

ColdWarm cold_then_warm(Report& r, PaperSweep& sweep,
                        std::vector<RunResult>& reference) {
  ColdWarm out;
  sweep.clear_cache();
  out.cold = sweep.run_pass();
  if (reference.empty()) {
    reference = out.cold.results;
  }
  check_pass(r, out.cold, reference, "ok", "cold_pass_repeats");
  const double until = now_s() + kWarmSeconds;
  do {
    const SweepPass warm = sweep.run_pass();
    check_pass(r, warm, reference, "cached", "warm_equals_cold");
    check(r, "warm_all_hits", warm.hits == sweep.cells());
    out.warm_s.push_back(warm.wall_s);
    out.hits = warm.hits;
  } while (out.warm_s.size() < static_cast<std::size_t>(kMinWarmPasses) ||
           now_s() < until);
  return out;
}

Report paper_sweep(const Options& opt) {
  Report r;
  const CacheDir cache(opt.work_dir);
  PaperSweep sweep(opt.seed, cache.path());
  r.jobs = sweep.jobs();
  const auto probes = sweep.probe_cells();
  std::vector<RunResult> reference;

  if (opt.memory) {
    cold_then_warm(r, sweep, reference);
    add_memory(r, read_proc_memory());
    r.digest = digest_of(encode_all(reference));
    return r;
  }

  if (opt.trace) {
    const double deadline = now_s() + opt.seconds;
    const ColdWarm pass = cold_then_warm(r, sweep, reference);
    double busy = 0.0;
    for (double w : pass.cold.cell_wall_s) {
      busy += w;
    }
    add_runner_layers(r, quantile(pass.cold.cell_wall_s, 0.5) * 1e3,
                      quantile(pass.cold.cell_wall_s, 0.9) * 1e3,
                      busy / (sweep.jobs() * pass.cold.wall_s),
                      static_cast<double>(pass.hits),
                      safe_ratio(median(pass.warm_s) * 1e6,
                                 static_cast<double>(pass.hits)));
    // The untraced and traced probe runs must reproduce the sweep's cells.
    std::vector<std::string> probe_ref(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      probe_ref[i] = scenario::encode_cell(reference[sweep.probe_index(i)]);
    }
    add_world_layers(r, traced_rounds(r, probes, probe_ref, deadline));
    add_planner_layers(r, nullptr);
    r.digest = digest_of(encode_all(reference));
    return r;
  }

  // Set-up is timed on the probe cells, one window per iteration below, so
  // that it is sampled across the whole measurement. The first window warms
  // the allocator and is not kept.
  std::vector<double> setup_s, warm_s;
  setup_window(probes, setup_s);
  setup_s.clear();

  const double deadline = now_s() + opt.seconds;
  std::vector<Sample> sim_rate;
  do {
    const ColdWarm pass = cold_then_warm(r, sweep, reference);
    sim_rate.push_back({sweep.sim_seconds() / pass.cold.wall_s,
                        pass.cold.steal_s / pass.cold.wall_s});
    warm_s.insert(warm_s.end(), pass.warm_s.begin(), pass.warm_s.end());
    setup_window(probes, setup_s);
  } while (now_s() < deadline || sim_rate.size() < 2);

  // The sweep must compute what plain run_scenario() computes.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    attempt(r, "sweep_equals_run_scenario",
            run_plain(probes[i].first, probes[i].second).result ==
                reference[sweep.probe_index(i)]);
  }

  report_timings(r, setup_s, sim_rate, warm_s);
  r.digest = digest_of(encode_all(reference));
  return r;
}

// ---------------------------------------------------------------------------
// churn_2k: one run_scenario() call per repetition
// ---------------------------------------------------------------------------

/// Runs `sc` (serial) once more at kChurnSimJobs intra-run workers, traced
/// or not, and checks that the result encodes to `expected`. Returns the
/// traced twin, or nothing when it is untraced or threw.
std::optional<TracedRun> sharded_twin(Report& r, const Scenario& sc,
                                      const std::string& alg, bool traced,
                                      const std::string& expected) {
  Scenario twin = sc;
  twin.sim_jobs = kChurnSimJobs;
  try {
    if (!traced) {
      attempt(r, "sharded_equals_serial",
              scenario::encode_cell(run_plain(twin, alg).result) == expected);
      return std::nullopt;
    }
    TracedRun run = run_traced(twin, alg);
    attempt(r, "sharded_equals_serial",
            scenario::encode_cell(run.result) == expected);
    return run;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: sharded run threw: " << e.what() << "\n";
    attempt(r, "runs_complete", false);
    return std::nullopt;
  }
}

Report single_run(const Options& opt, const Scenario& sc,
                  const std::string& alg) {
  Report r;
  r.sim_jobs = sc.sim_jobs;

  if (opt.trace) {
    std::vector<std::string> expected(1);
    const auto rounds =
        traced_rounds(r, {{sc, alg}}, expected, now_s() + opt.seconds);
    add_runner_layers(r, 0.0, 0.0, 0.0, 0.0, 0.0);
    add_world_layers(r, rounds);
    const auto twin = sharded_twin(r, sc, alg, true, expected[0]);
    add_planner_layers(r, twin ? &*twin : nullptr);
    r.digest = digest_of(expected);
    return r;
  }

  // Warm-up run: checked, not timed. The memory phase stops after it.
  PlainRun warm = run_plain(sc, alg);
  const std::string expected = scenario::encode_cell(warm.result);
  const RunResult first = std::move(warm.result);
  attempt(r, "repetitions_agree", true);
  if (opt.memory) {
    add_memory(r, read_proc_memory());
    r.digest = digest_of({expected});
    return r;
  }

  sharded_twin(r, sc, alg, false, expected);

  // Cached rerun: the same cell served by a Runner from a result cache.
  const CacheDir cache(opt.work_dir);
  scenario::ResultCache(cache.path())
      .store(scenario::cache_cell_filename(sc, alg), first);
  scenario::RunnerOptions o;
  o.jobs = 1;
  o.cache_dir = cache.path();
  const scenario::Runner runner(o);
  const scenario::OptionsFactory factory = scenario::factory_by_name(alg);

  // Timed repetitions, each followed by a window of cached reruns and a
  // set-up window, so that every metric samples the whole measurement.
  std::vector<double> setup_s, rerun_s;
  std::vector<Sample> sim_rate;
  const double deadline = now_s() + opt.seconds;
  int reps = 0;
  do {
    ++reps;
    try {
      const double steal0 = host_steal_s();
      const PlainRun run = run_plain(sc, alg);
      const double steal = host_steal_s() - steal0;
      attempt(r, "repetitions_agree",
              scenario::encode_cell(run.result) == expected);
      sim_rate.push_back(
          {sc.sim_time / run.timing.steady_s,
           steal / (run.timing.setup_s + run.timing.steady_s)});
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run threw: " << e.what() << "\n";
      attempt(r, "runs_complete", false);
    }
    const double until = now_s() + kRerunSeconds;
    int k = 0;
    do {
      const double t0 = now_s();
      const std::vector<RunResult> res =
          runner.replications(sc, factory, 1, alg);
      rerun_s.push_back(now_s() - t0);
      attempt(r, "rerun_equals_run",
              runner.cache_stats().hits == 1 && res.size() == 1 &&
                  res[0] == first);
    } while (++k < kMinReruns || now_s() < until);
    setup_window({{sc, alg}}, setup_s);
  } while (now_s() < deadline || reps < kMinReps);
  if (sim_rate.empty()) {
    throw std::runtime_error("every timed run of the workload threw");
  }

  report_timings(r, setup_s, sim_rate, rerun_s);
  r.digest = digest_of({expected});
  return r;
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

Report run_workload(const Options& opt) {
  if (opt.workload == "paper_sweep") {
    return paper_sweep(opt);
  }
  if (opt.workload == "churn_2k") {
    return single_run(opt, churn_scenario(opt.seed), "sd_dwca");
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::string reference_digest(const std::string& workload, std::uint64_t seed) {
  std::vector<std::pair<Scenario, std::string>> cells;
  if (workload == "paper_sweep") {
    cells = grid_cells(paper_spec(seed));
  } else if (workload == "churn_2k") {
    cells.emplace_back(churn_scenario(seed), "sd_dwca");
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  std::vector<std::string> encoded;
  for (const auto& [s, alg] : cells) {
    encoded.push_back(scenario::encode_cell(
        scenario::run_scenario(s, scenario::factory_by_name(alg))));
  }
  return digest_of(encoded);
}

}  // namespace perfbench
