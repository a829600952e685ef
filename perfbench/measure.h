// Host-side measurement helpers of the benchmark: wall clock, per-layer
// busy-time accumulators with self-time spans, process memory, and order
// statistics. None of this reaches the simulator's deterministic outputs.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (arbitrary epoch).
double now_s();

/// Count and self time of calls into one layer. Relaxed atomics: the radio
/// layer is also entered from shard-planner worker threads.
struct LayerClock {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  void reset() {
    calls.store(0, std::memory_order_relaxed);
    busy_ns.store(0, std::memory_order_relaxed);
  }
  double busy_s() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) *
           1e-9;
  }
};

/// Times one call into a layer. Spans nest per thread; a span books only
/// its self time (its duration minus the spans opened inside it), so a
/// cluster event sink called from an election is not also counted as
/// election time.
class Span {
 public:
  explicit Span(LayerClock& clock);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock& clock_;
  std::int64_t start_ns_;
  std::int64_t outer_child_ns_;
};

struct ProcMemory {
  double vm_hwm_mb = 0.0;   // peak resident set (VmHWM)
  double vm_peak_mb = 0.0;  // peak virtual size (VmPeak)
};

/// Reads this process's peak memory from /proc/self/status.
ProcMemory read_proc_memory();

/// CPU time the hypervisor kept this machine's vCPUs from running (the
/// steal column of /proc/stat, summed over all CPUs), in seconds; 0 where
/// the kernel does not report it.
double host_steal_s();

/// One timed sample and the host steal rate while it was taken.
struct Sample {
  double value = 0.0;
  double steal_per_s = 0.0;  // stolen CPU seconds per wall second
};

/// Median value of the samples taken while the host stole least: those
/// whose steal rate is at most the median steal rate of all samples. When
/// the host takes CPU time from the VM, a run whose threads meet at
/// barriers or that splits work over every vCPU waits for the stolen one,
/// which measures the host, not the program; when nothing is stolen every
/// sample counts.
double calm_median(const std::vector<Sample>& samples);

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace perfbench
