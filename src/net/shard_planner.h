// Deterministic intra-run parallelism for the Hello broadcast hot path.
//
// One simulation run is inherently a serial (time, seq)-ordered event loop,
// and every golden hash in the test suite pins that order bit-exactly. The
// planner therefore never parallelizes *mutation*; it parallelizes the pure
// part of a broadcast — the candidate scan — speculatively:
//
//   * When a node schedules its jittered broadcast, the planner snapshots
//     the grid-query parameters (exactly the numbers the serial path would
//     compute at fire time) into a per-sender ScanJob and queues it on a
//     per-shard batch. Shards are contiguous `geom::GridIndex` tile blocks
//     (`geom::tile_shard`), so one batch touches one slice of the field.
//   * Worker threads execute batches on the shared `util::ThreadPool`:
//     grid query, exact positions (sampled from planner-owned
//     structure-of-arrays motion-leg tables — workers never touch mobility
//     models or nodes), distances, and, for deterministic media, the
//     received power and threshold verdict, cached per neighbor pair. The
//     result is the candidate list Network::scan would build.
//   * At fire time Network::broadcast consumes the job and runs its one
//     commit loop over the list — the loop serial runs use over their own
//     scan — so every observable side effect (counters, RNG streams,
//     event (time, seq) assignment) is byte-identical to the serial run by
//     construction, for any worker count.
//
// Epoch barriers keep speculation sound: before any shared input mutates
// (grid snapshot refresh/rebuild, node liveness flip), the planner drains
// the pool and bumps its epoch; jobs speculated under an older epoch are
// discarded at commit and the broadcast falls back to the serial scan. Leg
// tables are re-unrolled at a drained barrier roughly once per simulated
// second (no epoch bump needed — positions are unchanged by extension).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/grid_index.h"
#include "geom/vec2.h"
#include "mobility/mobility_model.h"
#include "net/network.h"
#include "net/types.h"
#include "sim/event_queue.h"
#include "util/thread_pool.h"
#include "util/thread_role.h"

namespace manet::net {

class ShardPlanner {
 public:
  /// Cached per-neighbor-pair reception power, keyed by the bit-exact
  /// endpoint positions (hits on paused/static geometry); dropped when the
  /// epoch changes, i.e. at grid-cell-change barriers.
  struct PairCacheEntry {
    std::uint32_t idx = kInvalidNode;
    double sx = 0.0, sy = 0.0;  // sender position
    double rx = 0.0, ry = 0.0;  // receiver position
    double dist = 0.0;
    double rx_power_w = 0.0;
  };

  struct ScanJob {
    NodeId sender = kInvalidNode;
    sim::Time fire_time = -1.0;
    std::uint64_t epoch = 0;
    std::uint32_t shard = 0;
    // Query parameters, frozen at schedule time by Network::scan_radius;
    // valid while the epoch holds.
    geom::Vec2 center;
    double radius = 0.0;
    // Scan results (worker-written, commit-read).
    geom::Vec2 sender_pos;
    std::vector<std::size_t> query;
    std::vector<ScanCandidate> candidates;  // the list Network::scan fills
    std::atomic<int> state{0};
    std::uint64_t cache_epoch = 0;
    std::array<PairCacheEntry, 16> pair_cache;
  };

  ShardPlanner(Network& network, util::ThreadPool& pool);
  ~ShardPlanner() MANET_ROLE_AGNOSTIC;  // post-run serial teardown

  ShardPlanner(const ShardPlanner&) = delete;
  ShardPlanner& operator=(const ShardPlanner&) = delete;

  /// True when every node's mobility model can be unrolled into motion
  /// legs — the precondition for worker-side position sampling.
  static bool supported(const Network& network);

  /// Resolves a --sim-jobs request: 1 = serial, N > 1 = N workers, 0 =
  /// $MANET_SIM_JOBS if set, else the hardware concurrency (at least 1).
  static int resolve_sim_jobs(int requested);

  /// Called at the end of Network::start(): unrolls mobility, builds the
  /// SoA leg tables and alive flags, pre-sizes one job slot per node.
  void on_start() MANET_COMMIT_ONLY;

  /// A jittered broadcast by `sender` was scheduled for `fire_at`:
  /// speculate its candidate scan on the pool.
  void note_pending_broadcast(NodeId sender, sim::Time fire_at)
      MANET_COMMIT_ONLY;

  /// Commit side: the completed (or claimed-and-run-inline) job for
  /// (sender, now), or nullptr when no valid speculation exists and the
  /// caller must run the serial scan. Pair every success with release().
  const ScanJob* try_consume(NodeId sender, sim::Time now) MANET_COMMIT_ONLY;
  void release(const ScanJob* job) MANET_COMMIT_ONLY;

  /// Epoch barrier: drains the pool and invalidates every outstanding
  /// speculation. The network calls it before mutating anything a worker
  /// may read (grid snapshot refresh or rebuild).
  void pre_topology_change() MANET_COMMIT_ONLY;

  /// Liveness barrier: drain, bump the epoch, update the alive flag.
  void note_liveness(NodeId id, bool alive) MANET_COMMIT_ONLY;

  /// End of run: drain the pool and detach from the network (validators
  /// and destructors run strictly serially after this).
  void shutdown() MANET_COMMIT_ONLY;

  std::uint64_t speculated() const { return speculated_; }
  std::uint64_t committed() const { return committed_; }

 private:
  // Job lifecycle. Only the simulation thread moves jobs out of kIdle /
  // kQueued; workers CAS kSubmitted -> kRunning and store kDone / kFailed;
  // the simulation thread may CAS kSubmitted -> kClaimed to run the scan
  // inline instead of waiting.
  static constexpr int kIdle = 0;
  static constexpr int kQueued = 1;
  static constexpr int kSubmitted = 2;
  static constexpr int kRunning = 3;
  static constexpr int kDone = 4;
  static constexpr int kClaimed = 5;
  static constexpr int kFailed = 6;

  static constexpr std::size_t kBatchSize = 8;
  static constexpr sim::Time kHorizonSpan = 1.0;  // unrolled lookahead, sim-s

  // Worker entry points: run on pool threads against the epoch-immutable
  // SoA tables and grid snapshot. MANET_WORKER_SAFE is the root set the
  // manet-lint thread-role rule proves commit-only-free (the commit
  // thread may also call them — the inline-claim path in try_consume).
  void run_scan(ScanJob* job) const MANET_WORKER_SAFE;
  geom::Vec2 sample_position(std::size_t node, sim::Time t) const
      MANET_WORKER_SAFE;
  void refresh_motion(sim::Time now, sim::Time need) MANET_COMMIT_ONLY;
  void flush_shard(std::size_t shard) MANET_COMMIT_ONLY;
  void flush_all() MANET_COMMIT_ONLY;
  void reclaim(ScanJob& job) MANET_COMMIT_ONLY;

  Network& network_;
  util::ThreadPool& pool_;
  std::size_t n_shards_ = 1;
  std::uint64_t epoch_ = 1;
  sim::Time horizon_ = -1.0;

  // Structure-of-arrays motion state, rebuilt at drained barriers and
  // read-only for workers in between: node i's legs occupy
  // [leg_begin_[i], leg_begin_[i + 1]) in the parallel component arrays.
  std::vector<std::uint32_t> leg_begin_;
  std::vector<double> leg_t0_, leg_t1_;
  std::vector<double> leg_x0_, leg_y0_, leg_x1_, leg_y1_;
  std::vector<std::uint8_t> alive_;
  std::vector<mobility::MotionLeg> leg_scratch_;

  std::vector<std::unique_ptr<ScanJob>> jobs_;        // slot per sender
  std::vector<std::vector<ScanJob*>> shard_batches_;  // queued, unsubmitted
  std::uint64_t speculated_ = 0;
  std::uint64_t committed_ = 0;
};

}  // namespace manet::net
