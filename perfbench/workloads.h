// The benchmark's workloads (see README.md for why each one exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Memory phase: run the untimed warm-up (one run, or the sweep's first
  /// cold and warm passes), then report only peak_rss_mb and vm_peak_mb.
  bool memory = false;
  /// Scratch directory for result caches; left as found.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  /// Named output checks; all must hold.
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;  // runs or sweep cells executed
  std::uint64_t failed = 0;     // of those: threw or failed a check
  /// FNV-1a over the encoded RunResults in canonical order.
  std::string digest;
  int jobs = 1;      // sweep threads (paper_sweep) or 1
  int sim_jobs = 1;  // intra-run workers of the measured runs
};

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

/// Runs one workload; throws std::invalid_argument on an unknown name.
Report run_workload(const Options& options);

/// The digest serial, plain scenario::run_scenario() calls give for a
/// workload's cells; the benchmark records it per seed in digests.json.
std::string reference_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
