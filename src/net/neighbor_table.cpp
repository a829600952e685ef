#include "net/neighbor_table.h"

#include <algorithm>

#include "util/assert.h"

namespace manet::net {

namespace {

// First entry with id >= `id` in a vector sorted by id.
std::vector<NeighborEntry>::iterator lower_bound_id(
    std::vector<NeighborEntry>& entries, NodeId id) {
  return std::lower_bound(entries.begin(), entries.end(), id,
                          [](const NeighborEntry& e, NodeId target) {
                            return e.id < target;
                          });
}

}  // namespace

void NeighborTable::on_hello(sim::Time t, const HelloPacket& pkt,
                             double rx_w) {
  MANET_CHECK(pkt.sender != kInvalidNode, "hello without sender");
  MANET_CHECK(rx_w > 0.0, "non-positive rx power");
  auto it = lower_bound_id(entries_, pkt.sender);
  if (it == entries_.end() || it->id != pkt.sender) {
    it = entries_.insert(it, NeighborEntry{});
    it->id = pkt.sender;
  } else {
    MANET_ASSERT(t >= it->last_heard, "hello from the past");
    it->prev_heard = it->last_heard;
    it->prev_rx_w = it->last_rx_w;
    it->has_prev = true;
  }
  it->last_heard = t;
  it->last_rx_w = rx_w;
  it->last_seq = pkt.seq;
  it->weight = pkt.weight;
  it->role = pkt.role;
  it->cluster_head = pkt.cluster_head;
  it->extra_weights = pkt.extra_weights;
  it->extra_weight_count = pkt.extra_weight_count;
  it->degree = static_cast<std::uint16_t>(
      std::min<std::size_t>(pkt.neighbors.size(), 0xFFFF));
}

std::size_t NeighborTable::purge(sim::Time t, double timeout) {
  const auto stale = [t, timeout](const NeighborEntry& e) {
    return e.last_heard < t - timeout;
  };
  const auto first = std::remove_if(entries_.begin(), entries_.end(), stale);
  const auto dropped = static_cast<std::size_t>(entries_.end() - first);
  entries_.erase(first, entries_.end());
  return dropped;
}

bool NeighborTable::erase(NodeId id) {
  const auto it = lower_bound_id(entries_, id);
  if (it == entries_.end() || it->id != id) {
    return false;
  }
  entries_.erase(it);
  return true;
}

const NeighborEntry* NeighborTable::find(NodeId id) const {
  return const_cast<NeighborTable*>(this)->find_mutable(id);
}

NeighborEntry* NeighborTable::find_mutable(NodeId id) {
  const auto it = lower_bound_id(entries_, id);
  return (it == entries_.end() || it->id != id) ? nullptr : &*it;
}

void NeighborTable::ids_into(std::vector<NodeId>& out) const {
  out.clear();
  for (const NeighborEntry& e : entries_) {
    out.push_back(e.id);
  }
}

std::vector<NodeId> NeighborTable::ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  ids_into(out);
  return out;
}

}  // namespace manet::net
