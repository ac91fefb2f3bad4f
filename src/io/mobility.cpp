#include "io/mobility.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/text_tokens.hpp"
#include "util/error.hpp"

namespace mrwsn::io {

using detail::parse_double;
using detail::parse_u64;
using detail::tokenize;

namespace {

bool finite(geom::Point p) { return std::isfinite(p.x) && std::isfinite(p.y); }

}  // namespace

MobilityTrace parse_mobility(const std::string& text) {
  MobilityTrace trace;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& kind = tokens[0];
    auto fail = [&](const std::string& why) -> void {
      throw PreconditionError("mobility line " + std::to_string(line_no) +
                              ": " + why);
    };

    MobilityTrace::Event event;
    if (kind == "move") {
      if (tokens.size() != 4) fail("expected: move <node> <x> <y>");
      event.kind = MobilityTrace::Event::Kind::kMove;
      event.node = parse_u64(tokens[1], "node id");
      event.position = {parse_double(tokens[2], "x"),
                        parse_double(tokens[3], "y")};
      if (!finite(event.position)) fail("coordinates must be finite");
    } else if (kind == "power") {
      if (tokens.size() != 3) fail("expected: power <node> <tx_watt>");
      event.kind = MobilityTrace::Event::Kind::kPower;
      event.node = parse_u64(tokens[1], "node id");
      event.tx_power_watt = parse_double(tokens[2], "tx power");
      if (!(std::isfinite(event.tx_power_watt) && event.tx_power_watt > 0.0))
        fail("tx power must be finite and positive");
    } else if (kind == "rate") {
      if (tokens.size() != 4) fail("expected: rate <tx> <rx> <cap>");
      event.kind = MobilityTrace::Event::Kind::kRate;
      event.tx = parse_u64(tokens[1], "link tx");
      event.rx = parse_u64(tokens[2], "link rx");
      if (event.tx == event.rx) fail("a link needs distinct endpoints");
      event.rate_cap =
          static_cast<phy::RateIndex>(parse_u64(tokens[3], "rate cap"));
    } else if (kind == "join") {
      if (tokens.size() != 3) fail("expected: join <x> <y>");
      event.kind = MobilityTrace::Event::Kind::kJoin;
      event.position = {parse_double(tokens[1], "x"),
                        parse_double(tokens[2], "y")};
      if (!finite(event.position)) fail("coordinates must be finite");
    } else if (kind == "leave") {
      if (tokens.size() != 2) fail("expected: leave <node>");
      event.kind = MobilityTrace::Event::Kind::kLeave;
      event.node = parse_u64(tokens[1], "node id");
    } else {
      fail("unknown directive '" + kind + "'");
    }
    trace.events.push_back(event);
  }
  return trace;
}

std::string serialize_mobility(const MobilityTrace& trace) {
  std::ostringstream os;
  os << "# mrwsn mobility trace\n";
  for (const MobilityTrace::Event& event : trace.events) {
    switch (event.kind) {
      case MobilityTrace::Event::Kind::kMove:
        os << "move " << event.node << ' ' << event.position.x << ' '
           << event.position.y << '\n';
        break;
      case MobilityTrace::Event::Kind::kPower:
        os << "power " << event.node << ' ' << event.tx_power_watt << '\n';
        break;
      case MobilityTrace::Event::Kind::kRate:
        os << "rate " << event.tx << ' ' << event.rx << ' '
           << static_cast<std::uint64_t>(event.rate_cap) << '\n';
        break;
      case MobilityTrace::Event::Kind::kJoin:
        os << "join " << event.position.x << ' ' << event.position.y << '\n';
        break;
      case MobilityTrace::Event::Kind::kLeave:
        os << "leave " << event.node << '\n';
        break;
    }
  }
  return os.str();
}

MobilityTrace load_mobility(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  MRWSN_REQUIRE(file.good(), "cannot open mobility trace: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_mobility(buffer.str());
}

}  // namespace mrwsn::io
