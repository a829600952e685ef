#include "net/shard_planner.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "net/network.h"
#include "net/node.h"
#include "util/assert.h"

namespace manet::net {

ShardPlanner::ShardPlanner(Network& network, util::ThreadPool& pool)
    : network_(network), pool_(pool) {}

ShardPlanner::~ShardPlanner() { shutdown(); }

bool ShardPlanner::supported(const Network& network) {
  if (network.nodes_.empty()) {
    return false;
  }
  for (const auto& node : network.nodes_) {
    if (!node->mobility().supports_unroll()) {
      return false;
    }
  }
  return true;
}

int ShardPlanner::resolve_sim_jobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  // manet-lint note: $MANET_SIM_JOBS mirrors $MANET_JOBS in
  // scenario::Runner — worker count never changes results, only wall time.
  if (const char* env = std::getenv("MANET_SIM_JOBS")) {
    const int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ShardPlanner::on_start() {
  const std::size_t n = network_.nodes_.size();
  MANET_CHECK(n > 0, "shard planner on an empty network");
  MANET_CHECK(supported(network_),
              "shard planner over a mobility model without unroll support");
  n_shards_ = std::max<std::size_t>(
      1, std::min(pool_.size() * 2, network_.grid_.cell_count()));
  alive_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    alive_[i] = network_.nodes_[i]->alive() ? 1 : 0;
  }
  jobs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs_.push_back(std::make_unique<ScanJob>());
    jobs_.back()->query.reserve(64);
    jobs_.back()->candidates.reserve(64);
  }
  shard_batches_.resize(n_shards_);
  for (auto& batch : shard_batches_) {
    batch.reserve(2 * kBatchSize);
  }
  leg_begin_.assign(n + 1, 0);
  const sim::Time now = network_.sim_.now();
  refresh_motion(now, now);
}

void ShardPlanner::refresh_motion(sim::Time now, sim::Time need) {
  // Workers read the leg arrays; drain before touching them. Extending the
  // horizon does NOT invalidate outstanding speculations: every pending
  // fire time is >= now, and the re-unrolled arrays carry bit-identical
  // legs over that range.
  pool_.wait_idle();
  const sim::Time target = std::max(now, need) + kHorizonSpan;
  const std::size_t n = network_.nodes_.size();
  leg_t0_.clear();
  leg_t1_.clear();
  leg_x0_.clear();
  leg_y0_.clear();
  leg_x1_.clear();
  leg_y1_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    leg_begin_[i] = static_cast<std::uint32_t>(leg_t0_.size());
    mobility::MobilityModel& model = network_.nodes_[i]->mobility();
    model.unroll_to(target);
    leg_scratch_.clear();
    model.copy_legs(now, target, leg_scratch_);
    for (const mobility::MotionLeg& leg : leg_scratch_) {
      leg_t0_.push_back(leg.t_begin);
      leg_t1_.push_back(leg.t_end);
      leg_x0_.push_back(leg.from.x);
      leg_y0_.push_back(leg.from.y);
      leg_x1_.push_back(leg.to.x);
      leg_y1_.push_back(leg.to.y);
    }
  }
  leg_begin_[n] = static_cast<std::uint32_t>(leg_t0_.size());
  horizon_ = target;
}

geom::Vec2 ShardPlanner::sample_position(std::size_t node, sim::Time t) const {
  // Same leg-selection and interpolation arithmetic as
  // mobility::LegBasedModel::position(): first leg with t <= t_end, exact
  // endpoint below t_begin, clamped lerp above — bit-identical by
  // construction.
  const std::uint32_t begin = leg_begin_[node];
  const std::uint32_t end = leg_begin_[node + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    if (t <= leg_t1_[k]) {
      const geom::Vec2 from{leg_x0_[k], leg_y0_[k]};
      if (t <= leg_t0_[k]) {
        return from;
      }
      const geom::Vec2 to{leg_x1_[k], leg_y1_[k]};
      const double frac = (t - leg_t0_[k]) / (leg_t1_[k] - leg_t0_[k]);
      return geom::lerp(from, to, std::min(frac, 1.0));
    }
  }
  MANET_CHECK(false, "shard scan sampled node " << node << " at t=" << t
                                                << " beyond the leg horizon");
  return {};
}

void ShardPlanner::run_scan(ScanJob* job) const {
  const sim::Time t = job->fire_time;
  job->sender_pos = sample_position(job->sender, t);
  job->query.clear();
  network_.grid_.query_radius(job->center, job->radius, job->query);
  job->candidates.clear();
  if (job->cache_epoch != job->epoch) {
    // A grid or liveness barrier passed since this sender's last scan:
    // cells may have changed, drop the pair cache.
    for (PairCacheEntry& e : job->pair_cache) {
      e.idx = kInvalidNode;
    }
    job->cache_epoch = job->epoch;
  }
  const radio::Medium& medium = network_.medium_;
  const bool deterministic = !network_.stochastic_medium_;
  for (const std::size_t idx : job->query) {
    if (idx == job->sender || alive_[idx] == 0) {
      continue;
    }
    const geom::Vec2 rx_pos = sample_position(idx, t);
    ScanCandidate c;
    c.idx = static_cast<std::uint32_t>(idx);
    c.x = rx_pos.x;
    c.y = rx_pos.y;
    // Stochastic media draw fading from the sender's RNG at commit, in
    // serial order; their scan precomputes only the geometry.
    PairCacheEntry& e = job->pair_cache[idx % job->pair_cache.size()];
    const bool hit = deterministic && e.idx == c.idx &&
                     e.sx == job->sender_pos.x && e.sy == job->sender_pos.y &&
                     e.rx == rx_pos.x && e.ry == rx_pos.y;
    c.dist = hit ? e.dist : geom::distance(job->sender_pos, rx_pos);
    if (c.dist > medium.max_delivery_range_m()) {
      continue;
    }
    if (deterministic) {
      if (hit) {
        c.rx_power_w = e.rx_power_w;
      } else {
        // Deterministic media ignore the fading RNG, so the median power
        // IS the received power (as in Network::add_candidate).
        c.rx_power_w = medium.median_rx_power_w(c.dist);
        e = {c.idx,    job->sender_pos.x, job->sender_pos.y, rx_pos.x,
             rx_pos.y, c.dist,            c.rx_power_w};
      }
      c.delivered = c.rx_power_w >= medium.rx_threshold_w() ? 1 : 0;
    }
    job->candidates.push_back(c);
  }
}

void ShardPlanner::note_pending_broadcast(NodeId sender, sim::Time fire_at) {
  if (!network_.snapshot_valid_) {
    return;  // before the first grid refresh there is nothing to scan
  }
  if (fire_at > horizon_) {
    refresh_motion(network_.sim_.now(), fire_at);
  }
  ScanJob& job = *jobs_[sender];
  if (job.state.load(std::memory_order_acquire) != kIdle) {
    // A stale speculation (its broadcast never fired — the node died, or a
    // degenerate double beacon) still owns the slot; free it first.
    reclaim(job);
  }
  job.sender = sender;
  job.fire_time = fire_at;
  job.epoch = epoch_;
  // The serial scan's radius, evaluated at the fire time: valid while no
  // grid refresh intervenes — and a refresh bumps the epoch, which
  // discards this job at commit.
  job.center = network_.snapshot_[sender];
  job.radius = network_.scan_radius(fire_at);
  job.shard = static_cast<std::uint32_t>(
      geom::tile_shard(network_.grid_.cell_index(job.center),
                       network_.grid_.cell_count(), n_shards_));
  job.state.store(kQueued, std::memory_order_relaxed);
  shard_batches_[job.shard].push_back(&job);
  ++speculated_;
  if (shard_batches_[job.shard].size() >= kBatchSize) {
    flush_shard(job.shard);
  }
}

void ShardPlanner::flush_shard(std::size_t shard) {
  std::vector<ScanJob*>& batch = shard_batches_[shard];
  if (batch.empty()) {
    return;
  }
  for (ScanJob* job : batch) {
    job->state.store(kSubmitted, std::memory_order_release);
  }
  // The closure copies the (small) pointer list: std::function needs a
  // copyable callable, and the batch vector must keep its capacity.
  pool_.submit([this, jobs = batch] {
    for (ScanJob* job : jobs) {
      int expected = kSubmitted;
      if (!job->state.compare_exchange_strong(expected, kRunning,
                                              std::memory_order_acq_rel)) {
        continue;  // claimed inline by the simulation thread
      }
      bool ok = true;
      try {
        run_scan(job);
      } catch (...) {
        ok = false;  // never let a worker exception escape the pool
      }
      job->state.store(ok ? kDone : kFailed, std::memory_order_release);
    }
  });
  batch.clear();
}

void ShardPlanner::flush_all() {
  for (std::size_t shard = 0; shard < shard_batches_.size(); ++shard) {
    flush_shard(shard);
  }
}

const ShardPlanner::ScanJob* ShardPlanner::try_consume(NodeId sender,
                                                       sim::Time now) {
  ScanJob& job = *jobs_[sender];
  if (job.state.load(std::memory_order_acquire) == kIdle) {
    return nullptr;
  }
  if (job.fire_time != now || job.epoch != epoch_) {
    if (job.fire_time <= now) {
      reclaim(job);  // stale: a barrier invalidated it, or it never fired
    }
    return nullptr;
  }
  if (job.state.load(std::memory_order_acquire) == kQueued) {
    // Its cohort fires around now as well: hand every queued batch to the
    // workers before committing this one.
    flush_all();
  }
  int expected = kSubmitted;
  if (job.state.compare_exchange_strong(expected, kClaimed,
                                        std::memory_order_acq_rel)) {
    // No worker picked it up yet — scanning inline beats waiting.
    run_scan(&job);
    ++committed_;
    return &job;
  }
  // A worker owns the scan; yield until it lands.
  for (;;) {
    const int s = job.state.load(std::memory_order_acquire);
    if (s == kDone) {
      break;
    }
    if (s == kFailed) {
      job.state.store(kIdle, std::memory_order_relaxed);
      return nullptr;
    }
    std::this_thread::yield();
  }
  ++committed_;
  return &job;
}

void ShardPlanner::release(const ScanJob* job) {
  jobs_[job->sender]->state.store(kIdle, std::memory_order_relaxed);
}

void ShardPlanner::reclaim(ScanJob& job) {
  for (;;) {
    const int s = job.state.load(std::memory_order_acquire);
    switch (s) {
      case kIdle:
        return;
      case kQueued: {
        std::vector<ScanJob*>& batch = shard_batches_[job.shard];
        batch.erase(std::remove(batch.begin(), batch.end(), &job),
                    batch.end());
        job.state.store(kIdle, std::memory_order_relaxed);
        return;
      }
      case kSubmitted: {
        int expected = kSubmitted;
        if (job.state.compare_exchange_strong(expected, kClaimed,
                                              std::memory_order_acq_rel)) {
          job.state.store(kIdle, std::memory_order_relaxed);
          return;
        }
        break;  // lost the race to a worker; re-read
      }
      case kRunning:
        std::this_thread::yield();
        break;
      default:  // kDone / kFailed / kClaimed
        job.state.store(kIdle, std::memory_order_relaxed);
        return;
    }
  }
}

void ShardPlanner::pre_topology_change() {
  // Drain so no worker reads the grid or snapshot mid-mutation, then bump
  // the epoch: every speculation computed against the old state dies at
  // commit. Jobs still queued are left in their batches — their scans run
  // against consistent (new) state and are discarded the same way.
  pool_.wait_idle();
  ++epoch_;
}

void ShardPlanner::note_liveness(NodeId id, bool alive) {
  if (alive_.empty()) {
    return;  // before on_start(): nothing speculated yet
  }
  pool_.wait_idle();
  ++epoch_;
  alive_[id] = alive ? 1 : 0;
}

void ShardPlanner::shutdown() {
  pool_.wait_idle();
  for (auto& job : jobs_) {
    job->state.store(kIdle, std::memory_order_relaxed);
  }
  for (auto& batch : shard_batches_) {
    batch.clear();
  }
  if (network_.planner_ == this) {
    network_.planner_ = nullptr;
  }
}

}  // namespace manet::net
