#include "io/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/admission_engine.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"
#include "util/error.hpp"

namespace mrwsn::io {
namespace {

// Golden waypoint trace exercising every directive kind once.
constexpr const char* kGoldenTrace = R"(# mrwsn mobility trace
# node 3 wanders off and comes back; node 4 departs for good
move 3 215 20
power 5 0.2
join 120 60
rate 0 1 2
leave 4
move 3 205 -10
)";

TEST(Mobility, ParsesGoldenTrace) {
  const MobilityTrace trace = parse_mobility(kGoldenTrace);
  using Kind = MobilityTrace::Event::Kind;
  ASSERT_EQ(trace.events.size(), 6u);

  EXPECT_EQ(trace.events[0].kind, Kind::kMove);
  EXPECT_EQ(trace.events[0].node, 3u);
  EXPECT_DOUBLE_EQ(trace.events[0].position.x, 215.0);
  EXPECT_DOUBLE_EQ(trace.events[0].position.y, 20.0);

  EXPECT_EQ(trace.events[1].kind, Kind::kPower);
  EXPECT_EQ(trace.events[1].node, 5u);
  EXPECT_DOUBLE_EQ(trace.events[1].tx_power_watt, 0.2);

  EXPECT_EQ(trace.events[2].kind, Kind::kJoin);
  EXPECT_DOUBLE_EQ(trace.events[2].position.x, 120.0);
  EXPECT_DOUBLE_EQ(trace.events[2].position.y, 60.0);

  EXPECT_EQ(trace.events[3].kind, Kind::kRate);
  EXPECT_EQ(trace.events[3].tx, 0u);
  EXPECT_EQ(trace.events[3].rx, 1u);
  EXPECT_EQ(trace.events[3].rate_cap, 2u);

  EXPECT_EQ(trace.events[4].kind, Kind::kLeave);
  EXPECT_EQ(trace.events[4].node, 4u);

  EXPECT_EQ(trace.events[5].kind, Kind::kMove);
  EXPECT_DOUBLE_EQ(trace.events[5].position.y, -10.0);
}

TEST(Mobility, RoundTripsThroughSerializer) {
  const MobilityTrace trace = parse_mobility(kGoldenTrace);
  const std::string text = serialize_mobility(trace);
  const MobilityTrace again = parse_mobility(text);
  ASSERT_EQ(again.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const MobilityTrace::Event& a = trace.events[i];
    const MobilityTrace::Event& b = again.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_DOUBLE_EQ(a.position.x, b.position.x) << "event " << i;
    EXPECT_DOUBLE_EQ(a.position.y, b.position.y) << "event " << i;
    EXPECT_DOUBLE_EQ(a.tx_power_watt, b.tx_power_watt) << "event " << i;
    EXPECT_EQ(a.tx, b.tx) << "event " << i;
    EXPECT_EQ(a.rx, b.rx) << "event " << i;
    EXPECT_EQ(a.rate_cap, b.rate_cap) << "event " << i;
  }
  // Serialization is a fixed point: serializing the re-parse is identical.
  EXPECT_EQ(serialize_mobility(again), text);
}

TEST(Mobility, IgnoresCommentsAndBlankLines) {
  const MobilityTrace trace =
      parse_mobility("\n# a comment\n\nleave 2\n   \n# bye\n");
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, MobilityTrace::Event::Kind::kLeave);
  EXPECT_EQ(trace.events[0].node, 2u);
}

TEST(Mobility, RejectsMalformedTraces) {
  // Wrong arity, one per directive.
  EXPECT_THROW(parse_mobility("move 1 2\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("power 1\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("rate 0 1\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("join 5\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("leave\n"), PreconditionError);
  // Value constraints.
  EXPECT_THROW(parse_mobility("power 1 0\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("power 1 -0.5\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("rate 2 2 1\n"), PreconditionError);
  // Non-finite coordinates and powers never reach a replay.
  EXPECT_THROW(parse_mobility("move 1 nan 5\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("move 1 5 -inf\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("join inf 0\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("power 1 inf\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("power 1 nan\n"), PreconditionError);
  // Unparsable numbers and trailing junk.
  EXPECT_THROW(parse_mobility("move x 1 2\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("move 1 2.0zz 3\n"), PreconditionError);
  EXPECT_THROW(parse_mobility("leave -1\n"), PreconditionError);
  // Unknown directive.
  EXPECT_THROW(parse_mobility("teleport 1 2 3\n"), PreconditionError);
  // The line number names the offender.
  try {
    parse_mobility("move 0 1 2\nwarp 9\n");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Mobility, LoadRejectsMissingFile) {
  EXPECT_THROW(load_mobility("/nonexistent/mobility/trace.txt"),
               PreconditionError);
}

// --- Integration: replaying a trace through AdmissionEngine -------------

core::ModelRepair apply(core::TopologyDelta& delta, const net::Network& net,
                        const MobilityTrace::Event& event) {
  using Kind = MobilityTrace::Event::Kind;
  switch (event.kind) {
    case Kind::kMove:
      return delta.move_node(event.node, event.position);
    case Kind::kPower:
      return delta.set_power(event.node, event.tx_power_watt);
    case Kind::kRate:
      return delta.set_rate(*net.find_link(event.tx, event.rx),
                            event.rate_cap);
    case Kind::kJoin:
      return delta.add_node(event.position);
    case Kind::kLeave:
      return delta.remove_node(event.node);
  }
  throw PreconditionError("corrupt event kind");
}

/// Replaying join/move/leave through the engine's incremental repair path
/// must publish one epoch per event, and every epoch's background LP must
/// match a cold engine rebuilt from scratch over the mutated network
/// (per-epoch shadow verification, same check `mrwsn mobility --verify on`
/// performs).
TEST(MobilityReplay, EngineEpochsMatchColdRebuilds) {
  net::Network network(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  core::TopologyDelta delta(&network, &model);

  core::AdmissionEngine engine(model);
  const std::vector<net::LinkId> bg_path = {*network.find_link(0, 1),
                                            *network.find_link(1, 2)};
  engine.add_background({bg_path, 0.5});
  engine.snapshot();
  const std::uint64_t first_epoch = engine.epoch();

  const MobilityTrace trace = parse_mobility(kGoldenTrace);
  ASSERT_EQ(trace.events.size(), 6u);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const MobilityTrace::Event& event = trace.events[i];
    const std::uint64_t epoch = engine.apply_topology_delta(
        [&] { return apply(delta, network, event); });
    ASSERT_EQ(epoch, first_epoch + i + 1) << "one epoch per event";

    // Shadow verification: cold engine over a fresh model of the mutated
    // network, same background, must agree to LP tolerance.
    const core::PhysicalInterferenceModel fresh(network);
    core::AdmissionEngine cold(fresh);
    cold.add_background({bg_path, 0.5});
    EXPECT_EQ(engine.background_feasible(), cold.background_feasible())
        << "event " << i;
    const double a = engine.background_airtime();
    const double b = cold.background_airtime();
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << "event " << i;
    } else {
      EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(b))) << "event " << i;
    }

    // And the repaired engine answers queries like the cold one.
    const std::vector<net::LinkId> query_path = {*network.find_link(2, 3)};
    const core::AdmissionAnswer warm = engine.query(query_path, 0.25);
    const core::AdmissionAnswer shadow = cold.query(query_path, 0.25);
    EXPECT_EQ(warm.admitted, shadow.admitted) << "event " << i;
    EXPECT_NEAR(warm.available_mbps, shadow.available_mbps, 1e-6)
        << "event " << i;
  }
  EXPECT_EQ(engine.stats().topology_repairs, trace.events.size());
}

/// A finite position whose grid cell does not fit the 32-bit-per-axis cell
/// key (or a non-finite position or power, from a library caller that
/// skips the parser) is rejected before the network or the grid changes.
TEST(MobilityReplay, UnindexablePositionsAreRejectedBeforeAnyChange) {
  net::Network network(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  core::TopologyDelta delta(&network, &model);
  const geom::Point before = network.node(1).position;
  const std::size_t links = network.links().size();
  for (const geom::Point bad : {geom::Point{1e300, 5.0}, geom::Point{5.0, -1e15},
                                geom::Point{std::nan(""), 5.0}}) {
    EXPECT_THROW(delta.move_node(1, bad), PreconditionError);
    EXPECT_THROW(delta.add_node(bad), PreconditionError);
  }
  EXPECT_THROW(delta.set_power(1, HUGE_VAL), PreconditionError);
  EXPECT_EQ(network.node(1).position.x, before.x);
  EXPECT_EQ(network.node(1).position.y, before.y);
  EXPECT_EQ(network.num_nodes(), 6u);
  EXPECT_EQ(network.links().size(), links);
  // The delta still works afterwards.
  const core::ModelRepair repair = delta.move_node(1, {75.0, 5.0});
  EXPECT_FALSE(repair.links.empty());
}

}  // namespace
}  // namespace mrwsn::io
