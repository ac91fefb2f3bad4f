#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geom/point.hpp"
#include "phy/phy_model.hpp"
#include "phy/shadowing.hpp"

namespace mrwsn::net {

using NodeId = std::size_t;
using LinkId = std::size_t;

/// A radio node at a position. `alive` is false once the node has left the
/// network (churn); dead nodes keep their id so link and node ids stay
/// stable across the whole mutation history.
struct Node {
  NodeId id = 0;
  geom::Point position;
  bool alive = true;
};

/// A directed wireless link. A link exists iff its receiver can decode at
/// least the lowest rate when the transmitter sends alone (Eq. 1 with zero
/// interference). Under topology churn a link that falls out of range (or
/// loses an endpoint) keeps its id with `alive == false`, and is revived in
/// place when the pair becomes decodable again — ids are append-only.
struct Link {
  LinkId id = 0;
  NodeId tx = 0;
  NodeId rx = 0;
  double length_m = 0.0;
  bool alive = true;
  phy::RateIndex best_rate_alone = 0;  ///< index of the fastest lone rate
  double best_mbps_alone = 0.0;        ///< its Mbps value; 0 when dead
  /// Fastest rate index this link may use (rate indices are fastest-first,
  /// so `rate_cap = 0` means unrestricted). Set by rate-adaptation churn
  /// (core::TopologyDelta::set_rate); interference semantics clamp the
  /// link's usable and concurrent rates to indices >= rate_cap.
  phy::RateIndex rate_cap = 0;
};

/// A network: node placement + physical layer + every directed link the
/// PHY admits. This is the substrate every higher layer works on.
///
/// The network is immutable under normal operation; the dynamic-topology
/// surface below (set_position/add_node/... + refresh_link) is driven
/// exclusively by core::TopologyDelta, which keeps the derived state of
/// every interference model built on top consistent with each mutation.
class Network {
 public:
  Network(std::vector<geom::Point> positions, phy::PhyModel phy);

  /// With log-normal shadowing: every received power (signal, interference
  /// and carrier sensing alike) is scaled by the pair's shadowing gain, and
  /// link existence/rates are derived from the shadowed power.
  Network(std::vector<geom::Point> positions, phy::PhyModel phy,
          phy::Shadowing shadowing);

  const phy::PhyModel& phy() const { return phy_; }
  bool has_shadowing() const { return shadowing_.has_value(); }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }

  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }

  /// The link from `tx` to `rx`, if one has ever been admitted (it may be
  /// dead — check link(id).alive). Scans the out-links of `tx`.
  std::optional<LinkId> find_link(NodeId tx, NodeId rx) const;

  /// Links whose transmitter is `node` (alive and dead alike).
  const std::vector<LinkId>& links_from(NodeId node) const;

  /// Links whose receiver is `node` (alive and dead alike).
  const std::vector<LinkId>& links_to(NodeId node) const;

  /// Euclidean distance between two nodes in metres.
  double distance(NodeId a, NodeId b) const;

  /// Received power at node `at` from a transmission by node `from`, at
  /// `from`'s per-node transmit power.
  double received_power(NodeId from, NodeId at) const;

  /// received_power(from, at) for every ordered node pair, written into
  /// `table` (resized to num_nodes()^2, row-major by `from`). Bit-identical
  /// to calling received_power per pair, at one path-loss and shadowing
  /// evaluation per unordered pair: distance and shadowing gain are
  /// symmetric, and only the per-node power scale differs between the two
  /// directions. Fans out over util::parallel_for; every cell has exactly
  /// one writer.
  void fill_received_power(std::vector<double>& table) const;

  /// Weakest received power at which some rate decodes with no
  /// interference (Eq. 1 alone): max(sensitivity, SINR_min x noise),
  /// minimized over the rate table.
  double decode_threshold_watt() const;

  /// Farthest distance at which a transmission at `tx_power_watt` still
  /// arrives with at least `min_power_watt`, padded by one part in 10^6 so
  /// that pow's rounding never decides which side of it a pair falls on:
  /// every pair farther apart receives less. +inf when the network is
  /// shadowed (its gains are unbounded) or `min_power_watt` is not
  /// positive. The strongest power with decode_threshold_watt() bounds
  /// link discovery.
  double reach(double tx_power_watt, double min_power_watt) const;

  // --- Dynamic-topology surface (see class comment) -----------------------

  /// Move a node. Does NOT touch links: the caller must refresh_link every
  /// pair whose decodability or length the move can change (TopologyDelta
  /// localizes that set with a geom::SpatialGrid).
  void set_position(NodeId id, geom::Point position);

  /// Per-node transmit power in watts (defaults to the PHY's radio power).
  /// Affects every transmission from the node — link rates, interference,
  /// and carrier sensing alike. Caller refreshes outgoing links.
  void set_node_tx_power(NodeId id, double tx_power_watt);
  double node_tx_power(NodeId id) const;

  /// Append a node (id = previous num_nodes()). No links until the caller
  /// refreshes the pairs the new node can reach.
  NodeId add_node(geom::Point position);

  /// Mark a node dead/alive. Caller refreshes incident links (refresh_link
  /// kills links with a dead endpoint).
  void set_node_alive(NodeId id, bool alive);

  /// Cap a link's fastest usable rate (0 = unrestricted).
  void set_rate_cap(LinkId id, phy::RateIndex cap);

  /// Outcome of refresh_link: which link was touched and whether anything
  /// observable changed.
  struct LinkRefresh {
    LinkId id = 0;
    bool created = false;  ///< a brand-new id was appended
    bool changed = false;  ///< alive/rate/length differ from before
  };

  /// Re-derive the (tx, rx) link from current positions, powers, and
  /// liveness: updates length and lone rate, kills a link whose receiver
  /// can no longer decode (or whose endpoint died), revives one that can
  /// again, and creates the link if the pair is decodable but never had an
  /// id. Returns nullopt when the pair has no link before or after.
  std::optional<LinkRefresh> refresh_link(NodeId tx, NodeId rx);

 private:
  void check_node(NodeId id) const;

  std::vector<Node> nodes_;
  phy::PhyModel phy_;
  std::optional<phy::Shadowing> shadowing_;
  std::vector<double> node_power_;  // per-node tx power, watts
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> links_from_;        // by tx node
  std::vector<std::vector<LinkId>> links_to_;          // by rx node
};

}  // namespace mrwsn::net
