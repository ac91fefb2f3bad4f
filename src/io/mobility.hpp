#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "net/network.hpp"
#include "phy/rate.hpp"

namespace mrwsn::io {

/// A mobility trace as stored on disk: an ordered list of churn events
/// replayed against a base scenario's topology (waypoint moves, transmit
/// power changes, rate-cap adaptation, node join/leave). The format is
/// line-oriented text, same conventions as scenario files:
///
///   # comments and blank lines are ignored
///   move <node> <x> <y>        (waypoint: the node relocates)
///   power <node> <tx_watt>     (new transmit power, watts, finite, > 0)
///   rate <tx> <rx> <cap>       (cap the tx->rx link's fastest usable rate
///                               index; 0 = unrestricted)
///   join <x> <y>               (a new node appears at the next dense id)
///   leave <node>               (the node departs; its links die)
///
/// Node and link references are validated at REPLAY time against the
/// evolving network (a trace file cannot know how many joins precede an
/// event); the parser validates shape, arity, and value ranges only
/// (coordinates and powers must be finite).
struct MobilityTrace {
  struct Event {
    enum class Kind { kMove, kPower, kRate, kJoin, kLeave };
    Kind kind = Kind::kMove;
    net::NodeId node = 0;         ///< move / power / leave
    geom::Point position{};       ///< move / join
    double tx_power_watt = 0.0;   ///< power
    net::NodeId tx = 0;           ///< rate: link named by its endpoints
    net::NodeId rx = 0;           ///< rate
    phy::RateIndex rate_cap = 0;  ///< rate
  };

  std::vector<Event> events;
};

/// Parse a mobility trace; throws PreconditionError on malformed input.
MobilityTrace parse_mobility(const std::string& text);

/// Serialize to the same format (round-trips through parse_mobility).
std::string serialize_mobility(const MobilityTrace& trace);

/// Read a mobility trace from disk; throws PreconditionError when the file
/// cannot be opened.
MobilityTrace load_mobility(const std::string& path);

}  // namespace mrwsn::io
