#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mrwsn::net {

Network::Network(std::vector<geom::Point> positions, phy::PhyModel phy)
    : Network(std::move(positions), std::move(phy), phy::Shadowing(0.0, 0)) {}

Network::Network(std::vector<geom::Point> positions, phy::PhyModel phy,
                 phy::Shadowing shadowing)
    : phy_(std::move(phy)) {
  if (shadowing.sigma_db() > 0.0) shadowing_ = shadowing;
  MRWSN_REQUIRE(!positions.empty(), "a network needs at least one node");
  nodes_.reserve(positions.size());
  for (NodeId id = 0; id < positions.size(); ++id)
    nodes_.push_back(Node{id, positions[id]});

  const std::size_t n = nodes_.size();
  node_power_.assign(n, phy_.tx_power_watt());
  links_from_.assign(n, {});
  links_to_.assign(n, {});

  // Every node is at nominal power here, so a pair beyond the nominal
  // decode reach cannot decode any rate and its power is never computed.
  // Shadowed networks sweep every pair (reach is +inf).
  const double reach_m = reach(phy_.tx_power_watt(), decode_threshold_watt());
  const double reach_sq = reach_m * reach_m;
  for (NodeId tx = 0; tx < n; ++tx) {
    for (NodeId rx = 0; rx < n; ++rx) {
      if (tx == rx ||
          geom::distance_sq(nodes_[tx].position, nodes_[rx].position) > reach_sq)
        continue;
      // Link existence and its lone rate follow the (possibly shadowed)
      // received power: Eq. 1 with zero interference.
      const double pr = received_power(tx, rx);
      const auto rate = phy_.rates().max_supported(pr, phy_.sinr(pr, 0.0));
      if (!rate) continue;
      Link link;
      link.id = links_.size();
      link.tx = tx;
      link.rx = rx;
      link.length_m = geom::distance(nodes_[tx].position, nodes_[rx].position);
      link.best_rate_alone = *rate;
      link.best_mbps_alone = phy_.rates()[*rate].mbps;
      links_from_[tx].push_back(link.id);
      links_to_[rx].push_back(link.id);
      links_.push_back(link);
    }
  }
}

void Network::check_node(NodeId id) const {
  MRWSN_REQUIRE(id < nodes_.size(), "node id out of range");
}

const Node& Network::node(NodeId id) const {
  check_node(id);
  return nodes_[id];
}

const Link& Network::link(LinkId id) const {
  MRWSN_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

std::optional<LinkId> Network::find_link(NodeId tx, NodeId rx) const {
  check_node(tx);
  check_node(rx);
  for (const LinkId id : links_from_[tx])
    if (links_[id].rx == rx) return id;
  return std::nullopt;
}

const std::vector<LinkId>& Network::links_from(NodeId node) const {
  check_node(node);
  return links_from_[node];
}

const std::vector<LinkId>& Network::links_to(NodeId node) const {
  check_node(node);
  return links_to_[node];
}

double Network::distance(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  return geom::distance(nodes_[a].position, nodes_[b].position);
}

double Network::received_power(NodeId from, NodeId at) const {
  const double gain = shadowing_ ? shadowing_->gain(from, at) : 1.0;
  // Per-node power scales the pathloss-model power (which assumes the
  // radio's nominal transmit power) linearly.
  const double scale = node_power_[from] / phy_.tx_power_watt();
  return gain * scale * phy_.received_power(distance(from, at));
}

void Network::fill_received_power(std::vector<double>& table) const {
  const std::size_t n = nodes_.size();
  table.resize(n * n);
  const double nominal = phy_.tx_power_watt();
  // Square tiles on and above the diagonal; tile (I, J) writes its cells
  // and their mirror in tile (J, I), so tasks never share a cell and only
  // share cache lines along tile edges.
  constexpr std::size_t kTile = 64;
  const std::size_t blocks = (n + kTile - 1) / kTile;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  tiles.reserve(blocks * (blocks + 1) / 2);
  for (std::size_t bi = 0; bi < blocks; ++bi)
    for (std::size_t bj = bi; bj < blocks; ++bj) tiles.emplace_back(bi, bj);
  util::parallel_for(tiles.size(), [&](std::size_t t) {
    const auto [bi, bj] = tiles[t];
    const std::size_t a_end = std::min(n, (bi + 1) * kTile);
    const std::size_t b_end = std::min(n, (bj + 1) * kTile);
    for (NodeId a = bi * kTile; a < a_end; ++a) {
      for (NodeId b = std::max(a, bj * kTile); b < b_end; ++b) {
        // The same expression as received_power(), evaluated once for
        // both directions.
        const double pr = phy_.received_power(
            geom::distance(nodes_[a].position, nodes_[b].position));
        const double gain = shadowing_ ? shadowing_->gain(a, b) : 1.0;
        table[a * n + b] = gain * (node_power_[a] / nominal) * pr;
        table[b * n + a] = gain * (node_power_[b] / nominal) * pr;
      }
    }
  });
}

double Network::decode_threshold_watt() const {
  double threshold = 0.0;
  for (const phy::Rate& rate : phy_.rates().rates()) {
    const double need = std::max(rate.rx_sensitivity_watt,
                                 rate.sinr_min_linear * phy_.noise_watt());
    if (threshold == 0.0 || need < threshold) threshold = need;
  }
  return threshold;
}

double Network::reach(double tx_power_watt, double min_power_watt) const {
  if (shadowing_ || !(min_power_watt > 0.0))
    return std::numeric_limits<double>::infinity();
  return phy_.path_loss().range_for_power(tx_power_watt, min_power_watt) *
         (1.0 + 1e-6);
}

void Network::set_position(NodeId id, geom::Point position) {
  check_node(id);
  nodes_[id].position = position;
}

void Network::set_node_tx_power(NodeId id, double tx_power_watt) {
  check_node(id);
  MRWSN_REQUIRE(std::isfinite(tx_power_watt) && tx_power_watt > 0.0,
                "node tx power must be finite and positive");
  node_power_[id] = tx_power_watt;
}

double Network::node_tx_power(NodeId id) const {
  check_node(id);
  return node_power_[id];
}

NodeId Network::add_node(geom::Point position) {
  const NodeId id = nodes_.size();
  nodes_.push_back(Node{id, position});
  node_power_.push_back(phy_.tx_power_watt());
  links_from_.emplace_back();
  links_to_.emplace_back();
  return id;
}

void Network::set_node_alive(NodeId id, bool alive) {
  check_node(id);
  nodes_[id].alive = alive;
}

void Network::set_rate_cap(LinkId id, phy::RateIndex cap) {
  MRWSN_REQUIRE(id < links_.size(), "link id out of range");
  MRWSN_REQUIRE(cap < phy_.rates().size(), "rate cap out of range");
  links_[id].rate_cap = cap;
}

std::optional<Network::LinkRefresh> Network::refresh_link(NodeId tx,
                                                          NodeId rx) {
  check_node(tx);
  check_node(rx);
  MRWSN_REQUIRE(tx != rx, "a link needs distinct endpoints");

  // Same decodability rule as the constructor — but a dead endpoint kills
  // the link regardless of signal.
  std::optional<phy::RateIndex> rate;
  if (nodes_[tx].alive && nodes_[rx].alive) {
    const double pr = received_power(tx, rx);
    rate = phy_.rates().max_supported(pr, phy_.sinr(pr, 0.0));
  }

  const std::optional<LinkId> existing = find_link(tx, rx);
  if (!existing) {
    if (!rate) return std::nullopt;
    Link link;
    link.id = links_.size();
    link.tx = tx;
    link.rx = rx;
    link.length_m = distance(tx, rx);
    link.best_rate_alone = *rate;
    link.best_mbps_alone = phy_.rates()[*rate].mbps;
    links_from_[tx].push_back(link.id);
    links_to_[rx].push_back(link.id);
    links_.push_back(link);
    return LinkRefresh{link.id, /*created=*/true, /*changed=*/true};
  }

  Link& link = links_[*existing];
  const Link before = link;
  link.length_m = distance(tx, rx);
  link.alive = rate.has_value();
  if (rate) {
    link.best_rate_alone = *rate;
    link.best_mbps_alone = phy_.rates()[*rate].mbps;
  } else {
    link.best_mbps_alone = 0.0;
  }
  const bool changed = link.alive != before.alive ||
                       link.length_m != before.length_m ||
                       link.best_rate_alone != before.best_rate_alone ||
                       link.best_mbps_alone != before.best_mbps_alone;
  return LinkRefresh{link.id, /*created=*/false, changed};
}

}  // namespace mrwsn::net
