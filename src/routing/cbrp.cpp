#include "routing/cbrp.h"

#include <algorithm>

#include "net/network.h"
#include "util/assert.h"

namespace manet::routing {

namespace {

template <typename T>
net::Message make_message(int kind, net::NodeId dst, T body,
                          std::size_t bytes) {
  net::Message msg;
  msg.dst = dst;
  msg.kind = kind;
  msg.body = std::make_shared<const T>(std::move(body));
  msg.bytes = bytes;
  return msg;
}

template <typename T>
const T& body_of(const net::Message& msg) {
  MANET_ASSERT(msg.body != nullptr);
  return *static_cast<const T*>(msg.body.get());
}

}  // namespace

CbrpAgent::CbrpAgent(const CbrpOptions& options)
    : options_(options), cluster_(options.clustering) {
  MANET_CHECK(options_.max_path_hops >= 2, "max_path_hops too small");
  MANET_CHECK(options_.discovery_timeout > 0.0);
  MANET_CHECK(options_.pending_queue_limit > 0);
}

void CbrpAgent::on_attach(net::Node& node) {
  self_ = node.id();
  cluster_.on_attach(node);
}

void CbrpAgent::on_reset(net::Node& node) {
  cluster_.on_reset(node);
  routes_.clear();
  seen_rreqs_.clear();
  pending_.clear();
  discovering_.clear();
}

void CbrpAgent::on_beacon(net::Node& node, net::HelloPacket& out) {
  cluster_.on_beacon(node, out);
}

void CbrpAgent::on_hello(net::Node& node, const net::HelloPacket& pkt,
                         double rx_power_w) {
  cluster_.on_hello(node, pkt, rx_power_w);
}

std::vector<net::NodeId> CbrpAgent::cached_route(net::NodeId target) const {
  const auto it = routes_.find(target);
  return it == routes_.end() ? std::vector<net::NodeId>{} : it->second;
}

void CbrpAgent::send_data(net::Node& node, net::NodeId target,
                          std::size_t bytes) {
  MANET_CHECK(target != self_, "send_data to self");
  if (!node.alive()) {
    return;  // a crashed or depleted host runs no application
  }
  if (options_.stats != nullptr) {
    ++options_.stats->data_sent;
  }
  const auto route = routes_.find(target);
  if (route != routes_.end()) {
    Data data;
    data.path = route->second;
    data.hop_index = 0;
    data.bytes = bytes;
    forward_data(node, data);
    return;
  }
  auto& queue = pending_[target];
  if (queue.size() < options_.pending_queue_limit) {
    queue.push_back(bytes);
  } else if (options_.stats != nullptr) {
    ++options_.stats->data_dropped;  // buffer overflow
  }
  start_discovery(node, target);
}

void CbrpAgent::start_discovery(net::Node& node, net::NodeId target) {
  const sim::Time now = node.simulator().now();
  const auto inflight = discovering_.find(target);
  if (inflight != discovering_.end() &&
      now - inflight->second < options_.discovery_timeout) {
    return;  // a discovery is already pending; don't storm
  }
  discovering_[target] = now;
  if (options_.stats != nullptr) {
    ++options_.stats->discoveries_started;
  }
  Rreq rreq;
  rreq.id = next_rreq_id_++;
  rreq.origin = self_;
  rreq.target = target;
  rreq.started_at = now;
  rreq.path = {self_};
  seen_rreqs_.insert({self_, rreq.id});
  if (options_.stats != nullptr) {
    ++options_.stats->rreq_tx;
  }
  node.network().send(node, make_message(kRreq, net::kInvalidNode, rreq,
                                         control_bytes(1)));
}

void CbrpAgent::on_message(net::Node& node, const net::Message& msg) {
  switch (msg.kind) {
    case kRreq:
      handle_rreq(node, body_of<Rreq>(msg));
      break;
    case kRrep:
      handle_rrep(node, body_of<Rrep>(msg));
      break;
    case kData:
      handle_data(node, body_of<Data>(msg));
      break;
    case kRerr:
      handle_rerr(node, body_of<Rerr>(msg));
      break;
    default:
      MANET_CHECK(false, "unknown CBRP message kind " << msg.kind);
  }
}

void CbrpAgent::handle_rreq(net::Node& node, const Rreq& rreq) {
  if (!seen_rreqs_.insert({rreq.origin, rreq.id}).second) {
    return;  // duplicate
  }
  Rreq mine = rreq;
  mine.path.push_back(self_);

  if (self_ == rreq.target) {
    // Found: answer with a source-routed RREP walking back to the origin.
    Rrep rrep;
    rrep.id = rreq.id;
    rrep.started_at = rreq.started_at;
    rrep.path = mine.path;
    rrep.hop_index = rrep.path.size() - 1;
    handle_rrep(node, rrep);  // treat ourselves as the current holder
    return;
  }
  if (mine.path.size() >= options_.max_path_hops) {
    return;  // TTL exceeded
  }
  // The cluster overlay: only heads and gateways relay RREQs (plus the
  // origin, which already broadcast).
  const auto role = cluster_.role();
  const bool forwards =
      role == cluster::Role::kHead || cluster_.is_gateway();
  if (!forwards) {
    return;
  }
  if (options_.stats != nullptr) {
    ++options_.stats->rreq_tx;
  }
  node.network().send(
      node, make_message(kRreq, net::kInvalidNode, mine,
                         control_bytes(mine.path.size())));
}

void CbrpAgent::handle_rrep(net::Node& node, const Rrep& rrep) {
  MANET_ASSERT(!rrep.path.empty());
  if (rrep.hop_index == 0) {
    MANET_ASSERT(rrep.path.front() == self_);
    // Discovery complete at the origin.
    const net::NodeId target = rrep.path.back();
    routes_[target] = rrep.path;
    discovering_.erase(target);
    if (options_.stats != nullptr) {
      ++options_.stats->discoveries_succeeded;
      options_.stats->discovery_latency.add(node.simulator().now() -
                                            rrep.started_at);
      options_.stats->route_hops.add(
          static_cast<double>(rrep.path.size() - 1));
    }
    flush_pending(node, target);
    return;
  }
  // Forward one hop toward the origin.
  Rrep next = rrep;
  --next.hop_index;
  const net::NodeId next_hop = next.path[next.hop_index];
  if (options_.stats != nullptr) {
    ++options_.stats->rrep_tx;
  }
  node.network().send(node, make_message(kRrep, next_hop, next,
                                         control_bytes(next.path.size())));
  // A lost RREP simply lets the discovery time out; the origin retries on
  // the next application send.
}

void CbrpAgent::flush_pending(net::Node& node, net::NodeId target) {
  const auto it = pending_.find(target);
  if (it == pending_.end()) {
    return;
  }
  // Take both out first: a failed hop erases the route, and a send that
  // empties the battery resets this agent mid-loop.
  const std::deque<std::size_t> queue = std::move(it->second);
  pending_.erase(it);
  Data data;
  data.path = routes_.at(target);
  for (const std::size_t bytes : queue) {
    data.bytes = bytes;
    forward_data(node, data);
  }
}

void CbrpAgent::forward_data(net::Node& node, const Data& data) {
  MANET_ASSERT(data.hop_index + 1 < data.path.size());
  Data next = data;
  ++next.hop_index;
  const net::NodeId next_hop = next.path[next.hop_index];
  if (options_.stats != nullptr) {
    ++options_.stats->data_tx;
  }
  const std::size_t ok = node.network().send(
      node, make_message(kData, next_hop, next, 24 + data.bytes));
  if (ok > 0) {
    return;
  }
  // Link broke: drop the packet and walk a RERR back to the origin so it
  // re-discovers.
  if (options_.stats != nullptr) {
    ++options_.stats->data_dropped;
  }
  if (!node.alive()) {
    return;  // the transmission emptied our battery; nobody to warn
  }
  const net::NodeId target = data.path.back();
  if (data.hop_index == 0) {
    // We *are* the origin: invalidate immediately.
    routes_.erase(target);
    return;
  }
  Rerr rerr;
  rerr.path = data.path;
  rerr.hop_index = data.hop_index;
  rerr.target = target;
  handle_rerr(node, rerr);
}

void CbrpAgent::handle_data(net::Node& node, const Data& data) {
  MANET_ASSERT(data.hop_index < data.path.size());
  MANET_ASSERT(data.path[data.hop_index] == self_);
  if (self_ == data.path.back()) {
    if (options_.stats != nullptr) {
      ++options_.stats->data_delivered;
    }
    return;
  }
  forward_data(node, data);
}

void CbrpAgent::handle_rerr(net::Node& node, const Rerr& rerr) {
  MANET_ASSERT(rerr.hop_index < rerr.path.size());
  if (rerr.path[rerr.hop_index] == self_ && rerr.hop_index == 0) {
    routes_.erase(rerr.target);  // origin: drop the stale route
    return;
  }
  Rerr next = rerr;
  --next.hop_index;
  const net::NodeId next_hop = next.path[next.hop_index];
  if (options_.stats != nullptr) {
    ++options_.stats->rerr_tx;
  }
  const std::size_t ok = node.network().send(
      node, make_message(kRerr, next_hop, next, control_bytes(0)));
  if (ok == 0 && options_.stats != nullptr) {
    // The error report itself was lost; the origin will find out when its
    // next data packet dies at the same break.
  }
  (void)ok;
}

}  // namespace manet::routing
