// A mobile node: identity + mobility + radio state + neighbor table + the
// attached protocol agent. The node owns its beacon timer; the Network owns
// the nodes and the shared medium.
#pragma once

#include <memory>

#include "mobility/mobility_model.h"
#include "net/agent.h"
#include "net/neighbor_table.h"
#include "net/types.h"
#include "sim/timer.h"
#include "util/rng.h"
#include "util/thread_role.h"

namespace manet::net {

class Network;

class Node {
 public:
  Node(NodeId id, std::unique_ptr<mobility::MobilityModel> mobility,
       util::Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  // position()/velocity() advance the mobility model's leg window, so
  // they are commit-only; workers read positions from the shard
  // planner's immutable SoA leg tables instead (net/shard_planner.h).
  geom::Vec2 position(sim::Time t) MANET_COMMIT_ONLY {
    return mobility_->position(t);
  }
  geom::Vec2 velocity(sim::Time t) MANET_COMMIT_ONLY {
    return mobility_->velocity(t);
  }

  /// The mobility model itself (shard planners unroll it into leg tables).
  mobility::MobilityModel& mobility() { return *mobility_; }
  const mobility::MobilityModel& mobility() const { return *mobility_; }

  NeighborTable& table() { return table_; }
  const NeighborTable& table() const { return table_; }

  /// The attached protocol; must be set before the network starts.
  void set_agent(std::unique_ptr<Agent> agent);
  Agent* agent() { return agent_.get(); }

  Network& network();
  sim::Simulator& simulator();

  /// Per-node RNG substreams (fading draws, beacon jitter).
  util::Rng& rng() { return rng_; }

  /// Changes the beacon interval from the next beacon on (the §5
  /// mobility-adaptive extension). Must be called after start().
  void set_beacon_period(double period) MANET_COMMIT_ONLY;
  double beacon_period() const;

  std::uint32_t beacons_sent() const { return seq_; }
  std::uint32_t hellos_received() const { return hellos_received_; }

  /// Alive once start() ran; dead nodes neither beacon nor receive
  /// (failure-injection hooks).
  bool alive() const { return alive_; }
  void fail() MANET_COMMIT_ONLY;
  void recover() MANET_COMMIT_ONLY;

 private:
  friend class Network;

  /// Wires the node to its network and starts the beacon timer with the
  /// given initial phase.
  void start(Network& network, sim::Time first_beacon_at) MANET_COMMIT_ONLY;

  void beacon() MANET_COMMIT_ONLY;
  /// Fills an outgoing Hello (scratch or pooled fallback packet) and lets
  /// the agent write its advertisement.
  void fill_hello(HelloPacket& pkt) MANET_COMMIT_ONLY;
  /// The reception prelude shared by Hellos and Messages: dead nodes hear
  /// nothing, listening drains the battery (which may kill the node), and
  /// an arrival inside the collision window is destroyed. True when the
  /// frame survives.
  bool admit_arrival(sim::Time now, bool hello) MANET_COMMIT_ONLY;
  void receive(const HelloPacket& pkt, double rx_power_w) MANET_COMMIT_ONLY;
  void receive_message(const Message& msg) MANET_COMMIT_ONLY;

  NodeId id_;
  std::unique_ptr<mobility::MobilityModel> mobility_;
  util::Rng rng_;
  NeighborTable table_;
  std::unique_ptr<Agent> agent_;
  Network* network_ = nullptr;
  std::unique_ptr<sim::PeriodicTimer> beacon_timer_;
  // Reused outgoing-Hello buffer: the neighbor list keeps its capacity
  // across beacons, so the steady-state beacon path never allocates. The
  // jittered broadcast is scheduled within params.per_beacon_jitter (a few
  // ms) while beacons are at least an interval apart, so one buffer
  // suffices; `beacon_in_flight_` guards the degenerate overlap.
  HelloPacket scratch_pkt_;
  bool beacon_in_flight_ = false;
  std::uint32_t seq_ = 0;
  std::uint32_t hellos_received_ = 0;
  bool alive_ = false;
  // Collision-model state: time of the most recent arrival (captured or
  // not).
  sim::Time last_rx_time_ = 0.0;
  bool seen_rx_ = false;
};

}  // namespace manet::net
