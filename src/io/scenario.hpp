#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "net/network.hpp"
#include "net/path.hpp"

namespace mrwsn::io {

/// A scenario as stored on disk: node placement, optional shadowing,
/// existing (background) flows given as node paths, and flow requests to
/// route/admit. The format is line-oriented text:
///
///   # comments and blank lines are ignored
///   node <id> <x> <y>          (ids must be dense, starting at 0)
///   shadowing <sigma_db> <seed>
///   flow <demand_mbps> <n0> <n1> ... <nk>
///   request <src> <dst> <demand_mbps>
struct ScenarioFile {
  struct FlowSpec {
    double demand_mbps = 0.0;
    std::vector<net::NodeId> nodes;
  };
  struct Request {
    net::NodeId src = 0;
    net::NodeId dst = 0;
    double demand_mbps = 0.0;
  };

  std::vector<geom::Point> positions;
  double shadowing_sigma_db = 0.0;
  std::uint64_t shadowing_seed = 0;
  std::vector<FlowSpec> flows;
  std::vector<Request> requests;
};

/// Parse a scenario document; throws PreconditionError on malformed input.
ScenarioFile parse_scenario(const std::string& text);

/// The numeric check every scenario encoding applies once decoded: the
/// shadowing sigma must be finite and >= 0, node coordinates finite, flow
/// and request demands finite and >= 0, and every flow node and request
/// endpoint a declared node id.
/// Throws PreconditionError naming the first offending field.
void check_scenario_values(const ScenarioFile& scenario);

/// Serialize to the same format (round-trips through parse_scenario).
std::string serialize_scenario(const ScenarioFile& scenario);

/// Read a scenario file from disk; throws PreconditionError when the file
/// cannot be opened.
ScenarioFile load_scenario(const std::string& path);

/// Build the network for a scenario (the paper's PHY, plus the scenario's
/// shadowing when sigma > 0).
net::Network build_network(const ScenarioFile& scenario);

/// Resolve the scenario's background flows against a built network;
/// throws PreconditionError if some flow path is not connected.
std::vector<net::Flow> build_flows(const ScenarioFile& scenario,
                                   const net::Network& network);

}  // namespace mrwsn::io
