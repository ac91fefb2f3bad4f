// Binary scenario blob: text<->blob round-trip equality, rejection of
// truncated/wrong-magic/wrong-version inputs, and an endianness-locked
// byte layout (a handcrafted little-endian image must decode on any host
// and match the writer bit for bit).
#include "io/scenario_blob.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <string>

#include "geom/topology.hpp"
#include "io/scenario.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::io {
namespace {

/// The seed scenario family the text format grew up on: a generated
/// connected placement plus flows, requests, and (for some) shadowing.
std::vector<ScenarioFile> seed_scenarios() {
  std::vector<ScenarioFile> scenarios;
  {
    ScenarioFile chain;
    chain.positions = geom::chain(5, 70.0);
    chain.flows.push_back({2.5, {0, 1, 2}});
    chain.flows.push_back({1.0, {2, 3, 4}});
    chain.requests.push_back({0, 4, 1.5});
    scenarios.push_back(std::move(chain));
  }
  {
    Rng rng(7);
    ScenarioFile random;
    random.positions =
        geom::connected_random_rectangle(12, 400.0, 600.0, 140.0, rng);
    random.shadowing_sigma_db = 4.0;
    random.shadowing_seed = 99;
    random.flows.push_back({3.25, {0, 3, 7}});
    random.requests.push_back({1, 11, 2.0});
    random.requests.push_back({5, 2, 0.75});
    scenarios.push_back(std::move(random));
  }
  {
    ScenarioFile minimal;
    minimal.positions.push_back({-12.5, 1e-3});
    scenarios.push_back(std::move(minimal));
  }
  return scenarios;
}

void expect_equal(const ScenarioFile& a, const ScenarioFile& b) {
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x);
    EXPECT_EQ(a.positions[i].y, b.positions[i].y);
  }
  EXPECT_EQ(a.shadowing_sigma_db, b.shadowing_sigma_db);
  EXPECT_EQ(a.shadowing_seed, b.shadowing_seed);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].demand_mbps, b.flows[i].demand_mbps);
    EXPECT_EQ(a.flows[i].nodes, b.flows[i].nodes);
  }
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].src, b.requests[i].src);
    EXPECT_EQ(a.requests[i].dst, b.requests[i].dst);
    EXPECT_EQ(a.requests[i].demand_mbps, b.requests[i].demand_mbps);
  }
}

TEST(ScenarioBlob, RoundTripsEverySeedScenario) {
  for (const ScenarioFile& scenario : seed_scenarios()) {
    const std::vector<std::uint8_t> blob = write_scenario_blob(scenario);
    ASSERT_TRUE(is_scenario_blob(blob));
    expect_equal(scenario, read_scenario_blob(blob));
  }
}

TEST(ScenarioBlob, MatchesTextFormatThroughBothPaths) {
  // text -> ScenarioFile -> blob -> ScenarioFile must equal the direct
  // text parse: the blob is a lossless alternate encoding, not a cousin.
  for (const ScenarioFile& scenario : seed_scenarios()) {
    const ScenarioFile via_text = parse_scenario(serialize_scenario(scenario));
    const ScenarioFile via_blob =
        read_scenario_blob(write_scenario_blob(via_text));
    expect_equal(via_text, via_blob);
  }
}

TEST(ScenarioBlob, RejectsTruncationAtEveryPrefix) {
  ScenarioFile scenario;
  scenario.positions = geom::chain(3, 70.0);
  scenario.flows.push_back({1.0, {0, 1, 2}});
  scenario.requests.push_back({0, 2, 0.5});
  const std::vector<std::uint8_t> blob = write_scenario_blob(scenario);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_THROW(
        read_scenario_blob(std::span(blob.data(), cut)),
        PreconditionError)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_NO_THROW(read_scenario_blob(blob));
}

TEST(ScenarioBlob, RejectsTrailingBytes) {
  ScenarioFile scenario;
  scenario.positions = geom::chain(2, 70.0);
  std::vector<std::uint8_t> blob = write_scenario_blob(scenario);
  blob.push_back(0);
  EXPECT_THROW(read_scenario_blob(blob), PreconditionError);
}

TEST(ScenarioBlob, RejectsWrongMagicAndVersion) {
  ScenarioFile scenario;
  scenario.positions = geom::chain(2, 70.0);
  std::vector<std::uint8_t> blob = write_scenario_blob(scenario);

  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(is_scenario_blob(bad_magic));
  EXPECT_THROW(read_scenario_blob(bad_magic), PreconditionError);

  std::vector<std::uint8_t> bad_version = blob;
  bad_version[4] = 0x7F;  // version little-endian low byte
  EXPECT_THROW(read_scenario_blob(bad_version), PreconditionError);
}

TEST(ScenarioBlob, RejectsOversizedDeclaredCounts) {
  // A header declaring more items than the payload holds must fail the
  // count validation before any allocation, not crash on a huge reserve.
  ScenarioFile scenario;
  scenario.positions = geom::chain(2, 70.0);
  std::vector<std::uint8_t> blob = write_scenario_blob(scenario);
  for (int i = 0; i < 8; ++i) blob[8 + i] = 0xFF;  // node_count = 2^64-1
  EXPECT_THROW(read_scenario_blob(blob), PreconditionError);
}

TEST(ScenarioBlob, RejectsNonFiniteCoordinatesAndBadDemands) {
  // The writer stores any double or id; the reader applies the same value
  // check as the text loader, so a blob cannot smuggle in what text rejects.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScenarioFile base;
  base.positions = geom::chain(2, 70.0);
  base.flows.push_back({1.0, {0, 1}});
  base.requests.push_back({0, 1, 1.0});
  const auto expect_rejected = [](const ScenarioFile& scenario,
                                  const std::string& field) {
    try {
      read_scenario_blob(write_scenario_blob(scenario));
      ADD_FAILURE() << "loaded a blob with a bad " << field;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const double bad : {nan, inf, -inf}) {
    ScenarioFile scenario = base;
    scenario.positions[1].x = bad;
    expect_rejected(scenario, "node 1: x");
    scenario = base;
    scenario.positions[0].y = bad;
    expect_rejected(scenario, "node 0: y");
  }
  for (const double bad : {nan, inf, -3.0}) {
    ScenarioFile scenario = base;
    scenario.flows[0].demand_mbps = bad;
    expect_rejected(scenario, "flow 0: demand");
    scenario = base;
    scenario.requests[0].demand_mbps = bad;
    expect_rejected(scenario, "request 0: demand");
  }
  for (const double bad : {nan, inf, -4.0}) {
    ScenarioFile scenario = base;
    scenario.shadowing_sigma_db = bad;
    expect_rejected(scenario, "shadowing: sigma");
  }
  for (const net::NodeId bad : {net::NodeId{2}, net::NodeId{99},
                                std::numeric_limits<net::NodeId>::max()}) {
    ScenarioFile scenario = base;
    scenario.flows[0].nodes[1] = bad;
    expect_rejected(scenario, "flow 0: node");
    scenario = base;
    scenario.requests[0].src = bad;
    expect_rejected(scenario, "request 0: src");
    scenario = base;
    scenario.requests[0].dst = bad;
    expect_rejected(scenario, "request 0: dst");
  }
  expect_equal(base, read_scenario_blob(write_scenario_blob(base)));
}

TEST(ScenarioBlob, DecodesAHandcraftedLittleEndianImage) {
  // Byte-level layout lock: one node at (1.5, -2.0), sigma 0, seed 9,
  // one request 0 -> 0 at 0.25 Mbps. Assembled by hand, little-endian.
  const auto le64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::vector<std::uint8_t> bytes = {0x4D, 0x52, 0x57, 0x42,   // "MRWB"
                                     0x01, 0x00, 0x00, 0x00};  // version 1
  le64(bytes, 1);                                   // node_count
  le64(bytes, 0);                                   // flow_count
  le64(bytes, 1);                                   // request_count
  le64(bytes, std::bit_cast<std::uint64_t>(0.0));   // shadowing sigma
  le64(bytes, 9);                                   // shadowing seed
  le64(bytes, std::bit_cast<std::uint64_t>(1.5));   // node x
  le64(bytes, std::bit_cast<std::uint64_t>(-2.0));  // node y
  le64(bytes, 0);                                   // request src
  le64(bytes, 0);                                   // request dst
  le64(bytes, std::bit_cast<std::uint64_t>(0.25));  // request demand

  const ScenarioFile decoded = read_scenario_blob(bytes);
  ASSERT_EQ(decoded.positions.size(), 1u);
  EXPECT_EQ(decoded.positions[0].x, 1.5);
  EXPECT_EQ(decoded.positions[0].y, -2.0);
  EXPECT_EQ(decoded.shadowing_seed, 9u);
  ASSERT_EQ(decoded.requests.size(), 1u);
  EXPECT_EQ(decoded.requests[0].demand_mbps, 0.25);

  // And the writer must produce exactly this image back.
  EXPECT_EQ(write_scenario_blob(decoded), bytes);
}

TEST(ScenarioBlob, LoadScenarioSniffsBlobFiles) {
  ScenarioFile scenario;
  scenario.positions = geom::chain(4, 70.0);
  scenario.requests.push_back({0, 3, 1.0});
  const std::string path = ::testing::TempDir() + "/sniffed.mrwb";
  save_scenario_blob(scenario, path);
  expect_equal(scenario, load_scenario(path));
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ScenarioBlob, HashIsStableAndContentSensitive) {
  ScenarioFile scenario;
  scenario.positions = geom::chain(4, 70.0);
  const std::uint64_t base = scenario_hash(scenario);
  EXPECT_EQ(base, scenario_hash(scenario));

  ScenarioFile moved = scenario;
  moved.positions[1].x += 1e-9;
  EXPECT_NE(base, scenario_hash(moved));

  ScenarioFile with_request = scenario;
  with_request.requests.push_back({0, 3, 1.0});
  EXPECT_NE(base, scenario_hash(with_request));
}

}  // namespace
}  // namespace mrwsn::io
