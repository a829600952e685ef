#include "net/node.h"

#include "net/energy.h"
#include "net/network.h"
#include "util/assert.h"
#include "util/logging.h"

namespace manet::net {

Node::Node(NodeId id, std::unique_ptr<mobility::MobilityModel> mobility,
           util::Rng rng)
    : id_(id), mobility_(std::move(mobility)), rng_(std::move(rng)) {
  MANET_CHECK(id_ != kInvalidNode, "reserved node id");
  MANET_CHECK(mobility_ != nullptr, "node needs a mobility model");
}

void Node::set_agent(std::unique_ptr<Agent> agent) {
  MANET_CHECK(agent != nullptr);
  agent_ = std::move(agent);
}

Network& Node::network() {
  MANET_CHECK(network_ != nullptr, "node not attached to a network");
  return *network_;
}

sim::Simulator& Node::simulator() { return network().simulator(); }

void Node::start(Network& network, sim::Time first_beacon_at) {
  MANET_CHECK(network_ == nullptr, "node started twice");
  MANET_CHECK(agent_ != nullptr, "node " << id_ << " has no agent");
  network_ = &network;
  alive_ = true;
  agent_->on_attach(*this);
  beacon_timer_ = std::make_unique<sim::PeriodicTimer>(
      network.simulator(), [this] { beacon(); });
  beacon_timer_->start(first_beacon_at,
                       network.params().broadcast_interval);
}

void Node::set_beacon_period(double period) {
  MANET_CHECK(beacon_timer_ != nullptr, "set_beacon_period() before start()");
  beacon_timer_->set_period(period);
}

double Node::beacon_period() const {
  MANET_CHECK(beacon_timer_ != nullptr, "beacon_period() before start()");
  return beacon_timer_->period();
}

void Node::fail() {
  alive_ = false;
  if (beacon_timer_ != nullptr) {
    beacon_timer_->stop();
  }
  if (network_ != nullptr) {
    network_->note_liveness(id_, false);
  }
  if (network_ != nullptr && agent_ != nullptr) {
    agent_->on_reset(*this);  // a crash loses protocol state
  }
}

void Node::recover() {
  MANET_CHECK(network_ != nullptr, "recover() before start()");
  if (alive_) {
    return;
  }
  alive_ = true;
  network_->note_liveness(id_, true);
  table_.clear();  // stale state is gone after an outage (capacity kept)
  const double jitter =
      rng_.uniform(0.0, network_->params().broadcast_interval);
  beacon_timer_->start(simulator().now() + jitter,
                       network_->params().broadcast_interval);
}

void Node::beacon() {
  if (!alive_) {
    return;
  }
  util::ScopedSimNode failure_context(id_);
  const sim::Time now = simulator().now();
  network_->note_neighbor_timeouts(
      table_.purge(now, network_->params().neighbor_timeout));

  // Transmitting a Hello costs battery; the drain can empty it, in which
  // case the depletion fault has already failed this node and the beacon
  // never makes it to the air.
  if (EnergyModel* energy = network_->energy(); energy != nullptr) {
    energy->drain_hello_tx(id_, now);
    if (!alive_) {
      return;
    }
  }

  // The previous jittered broadcast still pending means the beacon period
  // has been pushed below the jitter window; fall back to a pooled one-off
  // packet so the in-flight one is not overwritten. Never taken at sane
  // configs, and never speculated on (the sender's scan slot is busy).
  if (beacon_in_flight_) {
    HelloPacket* pkt = network_->acquire_hello();
    fill_hello(*pkt);
    simulator().schedule_in(
        rng_.uniform(0.0, network_->params().per_beacon_jitter),
        [this, pkt]() {
          MANET_ASSERT_COMMIT_ROLE();
          if (alive_) {
            network_->broadcast(*this, *pkt);
          }
          network_->release_hello(pkt);
        });
    return;
  }

  // Steady-state path: reuse the scratch packet.
  fill_hello(scratch_pkt_);

  // Small per-beacon jitter desynchronizes beacons that drifted into phase
  // (the stagger is fixed at start; this models clock wobble).
  const double jitter = network_->params().per_beacon_jitter;
  if (jitter > 0.0) {
    beacon_in_flight_ = true;
    const double delay = rng_.uniform(0.0, jitter);
    // schedule_in resolves to now + delay exactly; the planner speculates
    // the candidate scan for that fire time while other events execute.
    network_->note_pending_broadcast(id_, now + delay);
    simulator().schedule_in(delay, [this]() {
      MANET_ASSERT_COMMIT_ROLE();
      beacon_in_flight_ = false;
      if (alive_) {
        network_->broadcast(*this, scratch_pkt_);
      }
    });
  } else {
    network_->broadcast(*this, scratch_pkt_);
  }
}

void Node::fill_hello(HelloPacket& pkt) {
  // The field values a fresh HelloPacket carries; the agent overwrites its
  // advertisement.
  pkt.sender = id_;
  pkt.seq = ++seq_;
  pkt.weight = 0.0;
  pkt.role = AdvertRole::kUndecided;
  pkt.cluster_head = kInvalidNode;
  pkt.extra_weight_count = 0;
  table_.ids_into(pkt.neighbors);
  agent_->on_beacon(*this, pkt);
}

bool Node::admit_arrival(sim::Time now, bool hello) {
  if (!alive_) {
    return false;
  }
  // Receiving costs battery whether or not the frame survives the collision
  // check below (the radio listened either way). A battery emptied here
  // fails the node before the frame is processed.
  if (EnergyModel* energy = network_->energy(); energy != nullptr) {
    if (hello) {
      energy->drain_hello_rx(id_, now);
    } else {
      energy->drain_msg_rx(id_, now);
    }
    if (!alive_) {
      return false;
    }
  }
  // Simplified MAC collision model, shared by Hellos and Messages: an
  // arrival overlapping the previous one (within the collision window) is
  // destroyed. The first frame is assumed captured; the newcomer is lost
  // but still occupies the medium.
  const double window = network_->params().collision_window;
  if (window > 0.0 && seen_rx_ && now - last_rx_time_ < window) {
    last_rx_time_ = now;
    network_->note_collision();
    return false;
  }
  last_rx_time_ = now;
  seen_rx_ = true;
  return true;
}

void Node::receive(const HelloPacket& pkt, double rx_power_w) {
  util::ScopedSimNode failure_context(id_);
  const sim::Time now = simulator().now();
  if (!admit_arrival(now, /*hello=*/true)) {
    return;
  }
  ++hellos_received_;
  table_.on_hello(now, pkt, rx_power_w);
  agent_->on_hello(*this, pkt, rx_power_w);
}

void Node::receive_message(const Message& msg) {
  util::ScopedSimNode failure_context(id_);
  if (admit_arrival(simulator().now(), /*hello=*/false)) {
    agent_->on_message(*this, msg);
  }
}

}  // namespace manet::net
