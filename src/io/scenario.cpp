#include "io/scenario.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/scenario_blob.hpp"
#include "io/text_tokens.hpp"
#include "phy/phy_model.hpp"
#include "phy/shadowing.hpp"
#include "util/error.hpp"

namespace mrwsn::io {

using detail::parse_double;
using detail::parse_u64;
using detail::tokenize;

ScenarioFile parse_scenario(const std::string& text) {
  ScenarioFile scenario;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& kind = tokens[0];
    auto fail = [&](const std::string& why) -> void {
      throw PreconditionError("scenario line " + std::to_string(line_no) + ": " +
                              why);
    };

    if (kind == "node") {
      if (tokens.size() != 4) fail("expected: node <id> <x> <y>");
      const std::uint64_t id = parse_u64(tokens[1], "node id");
      if (id != scenario.positions.size())
        fail("node ids must be dense and in order");
      scenario.positions.push_back(
          {parse_double(tokens[2], "x"), parse_double(tokens[3], "y")});
    } else if (kind == "shadowing") {
      if (tokens.size() != 3) fail("expected: shadowing <sigma_db> <seed>");
      scenario.shadowing_sigma_db = parse_double(tokens[1], "sigma");
      scenario.shadowing_seed = parse_u64(tokens[2], "seed");
    } else if (kind == "flow") {
      if (tokens.size() < 4) fail("expected: flow <demand> <n0> <n1> ...");
      ScenarioFile::FlowSpec flow;
      flow.demand_mbps = parse_double(tokens[1], "flow demand");
      for (std::size_t i = 2; i < tokens.size(); ++i)
        flow.nodes.push_back(parse_u64(tokens[i], "flow node"));
      scenario.flows.push_back(std::move(flow));
    } else if (kind == "request") {
      if (tokens.size() != 4) fail("expected: request <src> <dst> <demand>");
      scenario.requests.push_back(
          ScenarioFile::Request{parse_u64(tokens[1], "src"),
                                parse_u64(tokens[2], "dst"),
                                parse_double(tokens[3], "request demand")});
    } else {
      fail("unknown directive '" + kind + "'");
    }
  }
  MRWSN_REQUIRE(!scenario.positions.empty(), "scenario declares no nodes");
  check_scenario_values(scenario);
  return scenario;
}

void check_scenario_values(const ScenarioFile& scenario) {
  const auto fail = [](const std::string& item, std::size_t index,
                       const char* field, double value, const char* rule) {
    std::ostringstream message;
    message << "scenario " << item << ' ' << index << ": " << field
            << " must be " << rule << ", got " << value;
    throw PreconditionError(message.str());
  };
  const double sigma = scenario.shadowing_sigma_db;
  if (!std::isfinite(sigma) || sigma < 0.0) {
    std::ostringstream message;
    message << "scenario shadowing: sigma must be finite and >= 0, got "
            << sigma;
    throw PreconditionError(message.str());
  }
  for (std::size_t id = 0; id < scenario.positions.size(); ++id) {
    const geom::Point& p = scenario.positions[id];
    if (!std::isfinite(p.x)) fail("node", id, "x", p.x, "finite");
    if (!std::isfinite(p.y)) fail("node", id, "y", p.y, "finite");
  }
  const auto check_demand = [&](const std::string& item, std::size_t index,
                                double demand) {
    if (!std::isfinite(demand) || demand < 0.0)
      fail(item, index, "demand", demand, "finite and >= 0");
  };
  const std::size_t node_count = scenario.positions.size();
  const auto check_node = [&](const std::string& item, std::size_t index,
                              const char* field, net::NodeId node) {
    if (node >= node_count) {
      std::ostringstream message;
      message << "scenario " << item << ' ' << index << ": " << field
              << " must be a node id below " << node_count << ", got " << node;
      throw PreconditionError(message.str());
    }
  };
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    check_demand("flow", i, scenario.flows[i].demand_mbps);
    for (const net::NodeId node : scenario.flows[i].nodes)
      check_node("flow", i, "node", node);
  }
  for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
    check_demand("request", i, scenario.requests[i].demand_mbps);
    check_node("request", i, "src", scenario.requests[i].src);
    check_node("request", i, "dst", scenario.requests[i].dst);
  }
}

std::string serialize_scenario(const ScenarioFile& scenario) {
  std::ostringstream os;
  os << "# mrwsn scenario\n";
  for (std::size_t id = 0; id < scenario.positions.size(); ++id)
    os << "node " << id << ' ' << scenario.positions[id].x << ' '
       << scenario.positions[id].y << '\n';
  if (scenario.shadowing_sigma_db > 0.0)
    os << "shadowing " << scenario.shadowing_sigma_db << ' '
       << scenario.shadowing_seed << '\n';
  for (const auto& flow : scenario.flows) {
    os << "flow " << flow.demand_mbps;
    for (net::NodeId node : flow.nodes) os << ' ' << node;
    os << '\n';
  }
  for (const auto& request : scenario.requests)
    os << "request " << request.src << ' ' << request.dst << ' '
       << request.demand_mbps << '\n';
  return os.str();
}

ScenarioFile load_scenario(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  MRWSN_REQUIRE(file.good(), "cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  // Binary scenario blobs (io/scenario_blob.hpp) are accepted wherever a
  // text scenario is: the magic cannot collide with a text directive.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  if (is_scenario_blob({bytes, text.size()}))
    return read_scenario_blob({bytes, text.size()});
  return parse_scenario(text);
}

net::Network build_network(const ScenarioFile& scenario) {
  if (scenario.shadowing_sigma_db > 0.0) {
    return net::Network(
        scenario.positions, phy::PhyModel::paper_default(),
        phy::Shadowing(scenario.shadowing_sigma_db, scenario.shadowing_seed));
  }
  return net::Network(scenario.positions, phy::PhyModel::paper_default());
}

std::vector<net::Flow> build_flows(const ScenarioFile& scenario,
                                   const net::Network& network) {
  std::vector<net::Flow> flows;
  flows.reserve(scenario.flows.size());
  for (const auto& spec : scenario.flows) {
    flows.push_back(
        net::Flow{net::Path::from_nodes(network, spec.nodes), spec.demand_mbps});
  }
  return flows;
}

}  // namespace mrwsn::io
