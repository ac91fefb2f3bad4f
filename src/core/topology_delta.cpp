#include "core/topology_delta.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mrwsn::core {

namespace {

constexpr const char* kOutOfGrid = "node position is outside the spatial grid's range";

std::vector<geom::Point> live_positions(const net::Network& network) {
  std::vector<geom::Point> points;
  points.reserve(network.num_nodes());
  for (const net::Node& node : network.nodes()) points.push_back(node.position);
  return points;
}

}  // namespace

TopologyDelta::TopologyDelta(net::Network* network,
                             PhysicalInterferenceModel* model)
    : network_(network),
      model_(model),
      // Cell size = nominal-power decode reach: radius queries touch ~9
      // cells until power churn inflates the radius. (+inf on a shadowed
      // network, which the checks below reject.)
      grid_(network->reach(network->phy().tx_power_watt(),
                           network->decode_threshold_watt())) {
  MRWSN_REQUIRE(network_ != nullptr && model_ != nullptr,
                "topology delta needs a network and its model");
  MRWSN_REQUIRE(&model_->network() == network_,
                "the model must be built over the mutated network");
  MRWSN_REQUIRE(!network_->has_shadowing(),
                "incremental repair does not support shadowed networks "
                "(unbounded gains defeat grid-based link discovery)");
  MRWSN_REQUIRE(network_->decode_threshold_watt() > 0.0,
                "rate table admits links at any distance");
  const std::vector<geom::Point> positions = live_positions(*network_);
  for (const geom::Point& p : positions)
    MRWSN_REQUIRE(grid_.indexes(p), kOutOfGrid);
  grid_.build(positions);
  max_power_watt_ = network_->phy().tx_power_watt();
  for (net::NodeId id = 0; id < network_->num_nodes(); ++id) {
    max_power_watt_ = std::max(max_power_watt_, network_->node_tx_power(id));
    if (!network_->node(id).alive) grid_.remove(id);
  }
}

double TopologyDelta::discovery_radius() const {
  return network_->reach(max_power_watt_, network_->decode_threshold_watt());
}

void TopologyDelta::refresh_incident(net::NodeId node, ModelRepair* repair) {
  // Copy the id lists: refresh_link may append to them (new links), and we
  // only want the pre-existing incident set here.
  const std::vector<net::LinkId> out = network_->links_from(node);
  const std::vector<net::LinkId> in = network_->links_to(node);
  for (const net::LinkId id : out) {
    const net::Link& link = network_->link(id);
    network_->refresh_link(link.tx, link.rx);
    repair->links.push_back(id);
  }
  for (const net::LinkId id : in) {
    const net::Link& link = network_->link(id);
    network_->refresh_link(link.tx, link.rx);
    repair->links.push_back(id);
  }
}

void TopologyDelta::discover_new_links(net::NodeId node, ModelRepair* repair) {
  std::vector<std::size_t> neighbors;
  grid_.neighbors_within(network_->node(node).position, discovery_radius(),
                         &neighbors);
  for (const std::size_t other : neighbors) {
    if (other == node) continue;
    if (!network_->find_link(node, other)) {
      if (const auto refresh = network_->refresh_link(node, other))
        repair->links.push_back(refresh->id);
    }
    if (!network_->find_link(other, node)) {
      if (const auto refresh = network_->refresh_link(other, node))
        repair->links.push_back(refresh->id);
    }
  }
}

ModelRepair TopologyDelta::move_node(net::NodeId node, geom::Point position) {
  MRWSN_REQUIRE(network_->node(node).alive, "cannot move a departed node");
  MRWSN_REQUIRE(grid_.indexes(position), kOutOfGrid);
  network_->set_position(node, position);
  grid_.move(node, position);

  ModelRepair repair;
  repair.nodes.push_back(node);
  // Every incident link changed (length, and the power its endpoints
  // deliver to every other link's receiver); pairs that newly came into
  // range gain a link. Pairs that fell OUT of range are incident links, so
  // the refresh pass kills them — no old-position query needed.
  refresh_incident(node, &repair);
  discover_new_links(node, &repair);
  repair.normalize();
  model_->repair(repair);
  return repair;
}

ModelRepair TopologyDelta::set_power(net::NodeId node, double tx_power_watt) {
  MRWSN_REQUIRE(network_->node(node).alive, "cannot re-power a departed node");
  network_->set_node_tx_power(node, tx_power_watt);
  max_power_watt_ = std::max(max_power_watt_, tx_power_watt);

  ModelRepair repair;
  repair.nodes.push_back(node);
  // Power of `node` enters the SINR math only as "power delivered BY
  // node" — signal of its outgoing links and interference it casts. Links
  // into the node keep their signal and interference sums, but any link
  // pair involving an outgoing link is affected.
  const std::vector<net::LinkId> out = network_->links_from(node);
  for (const net::LinkId id : out) {
    const net::Link& link = network_->link(id);
    network_->refresh_link(link.tx, link.rx);
    repair.links.push_back(id);
  }
  // A power increase can pull new receivers into decode range (a decrease
  // only kills existing links, which the refresh above already handled).
  std::vector<std::size_t> neighbors;
  grid_.neighbors_within(network_->node(node).position, discovery_radius(),
                         &neighbors);
  for (const std::size_t other : neighbors) {
    if (other == node || network_->find_link(node, other)) continue;
    if (const auto refresh = network_->refresh_link(node, other))
      repair.links.push_back(refresh->id);
  }
  repair.normalize();
  model_->repair(repair);
  return repair;
}

ModelRepair TopologyDelta::set_rate(net::LinkId link, phy::RateIndex cap) {
  network_->set_rate_cap(link, cap);
  ModelRepair repair;
  // No received power changed — only the usable couple set of this link.
  repair.links.push_back(link);
  repair.normalize();
  model_->repair(repair);
  return repair;
}

ModelRepair TopologyDelta::add_node(geom::Point position) {
  MRWSN_REQUIRE(grid_.indexes(position), kOutOfGrid);
  const net::NodeId node = network_->add_node(position);
  grid_.insert(node, position);

  ModelRepair repair;
  repair.nodes.push_back(node);
  repair.nodes_added = true;
  discover_new_links(node, &repair);
  repair.normalize();
  model_->repair(repair);
  return repair;
}

ModelRepair TopologyDelta::remove_node(net::NodeId node) {
  MRWSN_REQUIRE(network_->node(node).alive, "node already departed");
  network_->set_node_alive(node, false);
  grid_.remove(node);

  ModelRepair repair;
  repair.nodes.push_back(node);
  refresh_incident(node, &repair);
  repair.normalize();
  model_->repair(repair);
  return repair;
}

}  // namespace mrwsn::core
