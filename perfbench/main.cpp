// perfbench: runs one benchmark workload and prints its measurements as
// one JSON line on stdout. perfbench/run.py builds this binary, adds the
// recorded-digest check and prints the result the benchmark contract asks
// for; run the binary directly only while working on the benchmark:
//
//   perfbench --workload churn_2k --seed 1 --seconds 10 --trace 0
//             --work-dir .bench_build/work
//
// With --memory 1 it runs the workload's memory phase instead (see
// Options::memory); run.py runs that in a process of its own before the
// timed one. With --reference 1 it prints only the workload's reference
// digest (see reference_digest()), which run.py --record-digests stores.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
               "       perfbench --workload NAME --seed N --memory 1 "
               "--work-dir DIR\n"
               "       perfbench --workload NAME --seed N --reference 1\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("non-finite measurement");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_json(const perfbench::Options& opt, const perfbench::Report& r,
                int nproc) {
  std::string out = "{\"workload\":\"" + opt.workload + "\"";
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  out += ",\"provenance\":{\"nproc\":" + std::to_string(nproc) +
         ",\"compiler\":\"" PERFBENCH_COMPILER
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"jobs\":" +
         std::to_string(r.jobs) + ",\"sim_jobs\":" + std::to_string(r.sim_jobs) +
         ",\"seed\":" + std::to_string(opt.seed) + "}";
  out += ",\"digest\":\"" + r.digest + "\"";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"checks\":{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + r.checks[i].first +
           "\":" + (r.checks[i].second ? "true" : "false");
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i > 0 ? ",\"" : "\"") + m.name + "\":{\"value\":" +
           json_number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) {
        return usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--memory") {
      opt.memory = value == "1";
    } else if (flag == "--reference") {
      reference = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) {
    return usage("--workload and --seed are required");
  }
  try {
    if (reference) {
      std::cout << perfbench::reference_digest(opt.workload, opt.seed)
                << std::endl;
      return 0;
    }
    if (opt.work_dir.empty()) {
      return usage("--work-dir is required");
    }
#ifdef M_ARENA_MAX
    if (opt.memory) {
      // One malloc arena, in the memory phase only (no thread exists yet).
      // glibc otherwise gives threads arenas of their own, each reserving
      // 64 MB of address space (128 MB while it is created) on a schedule
      // set by thread timing, which makes vm_peak_mb vary by hundreds of MB
      // between identical runs. The timed phase keeps glibc's defaults.
      mallopt(M_ARENA_MAX, 1);
    }
#endif
    const perfbench::Report report = perfbench::run_workload(opt);
    print_json(opt, report, perfbench::available_cpus());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
