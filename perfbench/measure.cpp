#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Time covered by the spans opened inside the innermost open span on this
// thread.
thread_local std::int64_t t_child_ns = 0;

}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

Span::Span(LayerClock& clock)
    : clock_(clock), start_ns_(now_ns()), outer_child_ns_(t_child_ns) {
  t_child_ns = 0;
}

Span::~Span() {
  const std::int64_t total = now_ns() - start_ns_;
  const std::int64_t self = std::max<std::int64_t>(total - t_child_ns, 0);
  clock_.calls.fetch_add(1, std::memory_order_relaxed);
  clock_.busy_ns.fetch_add(static_cast<std::uint64_t>(self),
                           std::memory_order_relaxed);
  t_child_ns = outer_child_ns_ + total;
}

ProcMemory read_proc_memory() {
  std::ifstream in("/proc/self/status");
  if (!in) {
    throw std::runtime_error("cannot read /proc/self/status");
  }
  ProcMemory mem;
  std::string key;
  while (in >> key) {
    double kb = 0.0;
    if (key == "VmHWM:" && in >> kb) {
      mem.vm_hwm_mb = kb / 1024.0;
    } else if (key == "VmPeak:" && in >> kb) {
      mem.vm_peak_mb = kb / 1024.0;
    }
    std::getline(in, key);
  }
  if (mem.vm_hwm_mb <= 0.0 || mem.vm_peak_mb <= 0.0) {
    throw std::runtime_error("VmHWM/VmPeak missing from /proc/self/status");
  }
  return mem;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu  user nice system idle iowait irq softirq steal ...
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (double& f : field) {
    if (!(in >> f)) {
      return 0.0;
    }
  }
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  return ticks_per_s > 0.0 ? field[7] / ticks_per_s : 0.0;
}

double calm_median(const std::vector<Sample>& samples) {
  std::vector<double> steal;
  steal.reserve(samples.size());
  for (const Sample& s : samples) {
    steal.push_back(s.steal_per_s);
  }
  const double calm = median(steal);
  std::vector<double> kept;
  for (const Sample& s : samples) {
    if (s.steal_per_s <= calm) {
      kept.push_back(s.value);
    }
  }
  return median(kept);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
