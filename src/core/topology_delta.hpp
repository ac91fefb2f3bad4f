#pragma once

#include <cstddef>
#include <vector>

#include "core/interference.hpp"
#include "geom/point.hpp"
#include "geom/spatial_grid.hpp"
#include "net/network.hpp"

namespace mrwsn::core {

/// Incremental topology repair under churn: the mutation API that keeps a
/// net::Network and the PhysicalInterferenceModel built over it consistent
/// through node moves, power changes, rate adaptation, and join/leave —
/// without rebuilding either.
///
/// Localization is exact, not approximate: the pairwise interferes relation
/// for links a, b depends only on the received powers among the four
/// endpoints {a.tx, a.rx, b.tx, b.rx}, so a mutation of node u affects
/// precisely the links incident to u. Those are refreshed in place
/// (net::Network::refresh_link — stable ids, dead links revive rather than
/// re-number), while a geom::SpatialGrid discovers the pairs that newly
/// came into decode range and must gain a link. The resulting ModelRepair
/// summary drives PhysicalInterferenceModel::repair (rx-power rows and
/// columns, conflict-matrix patching, pricing-memo invalidation)
/// and is returned to the caller so AdmissionEngine can repair its
/// background master the same way.
///
/// The differential churn fuzz suite holds every operation to exact parity:
/// after each mutation the repaired model must answer all queries
/// identically to a from-scratch model over the mutated network.
///
/// Not supported with log-normal shadowing: shadowing gains are unbounded,
/// so no finite discovery radius could guarantee the "every decodable pair
/// has a link" invariant.
///
/// Callers must serialize mutations against concurrent model queries
/// (AdmissionEngine takes its topology lock around these calls).
class TopologyDelta {
 public:
  /// Both pointees are borrowed and must outlive the delta. `model` must
  /// have been built over `*network`.
  TopologyDelta(net::Network* network, PhysicalInterferenceModel* model);

  /// Move a live node. Refreshes every incident link (some may die, some
  /// revive, rates change) and creates links for pairs that came into
  /// range. A position the spatial grid cannot index (non-finite, or a cell
  /// index beyond 32 bits) is rejected before anything changes.
  ModelRepair move_node(net::NodeId node, geom::Point position);

  /// Change a node's transmit power. Affects its outgoing links' rates and
  /// the interference it casts on everyone else.
  ModelRepair set_power(net::NodeId node, double tx_power_watt);

  /// Cap a link's fastest usable rate (rate adaptation; 0 = unrestricted).
  ModelRepair set_rate(net::LinkId link, phy::RateIndex cap);

  /// Join: append a node and link it to every pair in decode range. The new
  /// node's id is the last entry of the returned ModelRepair::nodes. The
  /// position is checked as in move_node.
  ModelRepair add_node(geom::Point position);

  /// Leave: mark the node dead; every incident link dies with it (the ids
  /// survive, so a later re-join of the same id is possible via the
  /// network surface, and engine columns can be revalidated by id).
  ModelRepair remove_node(net::NodeId node);

  const net::Network& network() const { return *network_; }

 private:
  /// Conservative link-discovery radius: net::Network::reach of the
  /// strongest transmit power seen so far at the weakest decodable power.
  double discovery_radius() const;

  /// Refresh every link incident to `node` into `repair->links`.
  void refresh_incident(net::NodeId node, ModelRepair* repair);

  /// Create links for decodable pairs between `node` and grid neighbors
  /// that have no link yet (both directions).
  void discover_new_links(net::NodeId node, ModelRepair* repair);

  net::Network* network_;
  PhysicalInterferenceModel* model_;
  geom::SpatialGrid grid_;
  double max_power_watt_;  // strongest per-node tx power seen
};

}  // namespace mrwsn::core
