#include "phy/sinr_edges.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "geom/point.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "phy/propagation.hpp"
#include "phy/rate.hpp"
#include "phy/shadowing.hpp"

namespace mrwsn::phy {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// All eight 802.11a rates, calibrated like the paper's four-rate subset:
/// eight SINR edges per link and caps 0..7.
PhyModel eight_rate_phy() {
  return PhyModel::calibrated({{54.0, 59.0, 24.56},
                               {48.0, 66.0, 24.05},
                               {36.0, 79.0, 18.80},
                               {24.0, 97.0, 17.04},
                               {18.0, 119.0, 10.79},
                               {12.0, 133.0, 9.03},
                               {9.0, 146.0, 7.78},
                               {6.0, 158.0, 6.02}});
}

/// What the table must answer: max(phy.max_rate(S, I), cap).
std::optional<RateIndex> expected_rate(const PhyModel& phy, double signal,
                                       RateIndex cap, double interference) {
  const auto rate = phy.max_rate(signal, interference);
  if (!rate) return rate;
  return std::max(*rate, cap);
}

/// Interference probes around every rate's exact SINR edge S / thr - N:
/// the edge itself and ±1..4 ulps, ±1e-9 and ±1e-8 relative (the stored
/// margin and ten times it), plus no interference and infinite
/// interference. Negative values are dropped (interference is a power).
std::vector<double> interference_probes(const PhyModel& phy, double signal) {
  std::vector<double> probes = {0.0, kInf};
  for (const Rate& rate : phy.rates().rates()) {
    const double edge = signal / rate.sinr_min_linear - phy.noise_watt();
    double up = edge, down = edge;
    probes.push_back(edge);
    for (int ulp = 1; ulp <= 4; ++ulp) {
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
      probes.push_back(up);
      probes.push_back(down);
    }
    for (const double rel : {1e-9, 1e-8}) {
      probes.push_back(edge * (1.0 + rel));
      probes.push_back(edge * (1.0 - rel));
    }
  }
  probes.erase(std::remove_if(probes.begin(), probes.end(),
                              [](double i) { return !(i >= 0.0); }),
               probes.end());
  return probes;
}

/// Signals at each rate's sensitivity and one ulp either side, plus one
/// far above the fastest rate's and one far below the slowest rate's.
std::vector<double> signal_probes(const PhyModel& phy) {
  std::vector<double> signals;
  for (const Rate& rate : phy.rates().rates()) {
    const double s = rate.rx_sensitivity_watt;
    signals.push_back(s);
    signals.push_back(std::nextafter(s, kInf));
    signals.push_back(std::nextafter(s, 0.0));
  }
  signals.push_back(phy.rates()[0].rx_sensitivity_watt * 50.0);
  signals.push_back(phy.rates().rates().back().rx_sensitivity_watt * 0.5);
  return signals;
}

/// Every lookup of a table holding (signal, cap) for every cap agrees with
/// PhyModel::max_rate, and so do decodes() and the band around each answer
/// at every probe it holds. (A probe inside a rate's margin gets a band
/// that need not hold the probe itself.)
void expect_table_matches(const PhyModel& phy, double signal) {
  SinrEdgeTable table(phy);
  const std::size_t num_rates = phy.rates().size();
  for (RateIndex cap = 0; cap < num_rates; ++cap)
    EXPECT_EQ(table.add(signal, cap), cap);
  const std::vector<double> probes = interference_probes(phy, signal);
  for (RateIndex cap = 0; cap < num_rates; ++cap) {
    SCOPED_TRACE(::testing::Message() << "signal " << signal << " cap " << cap);
    for (const double interference : probes) {
      SCOPED_TRACE(::testing::Message() << "interference " << interference);
      const auto want = expected_rate(phy, signal, cap, interference);
      EXPECT_EQ(table.rate(cap, interference), want);
      EXPECT_EQ(table.decodes(cap, interference), want.has_value());
      const RateBand band = table.band(cap, interference);
      EXPECT_EQ(band.rate, want);
      for (const double other : probes) {
        if (!band.holds(other)) continue;
        EXPECT_EQ(band.rate, expected_rate(phy, signal, cap, other))
            << "band [" << band.lo << ", " << band.hi << "] at " << other;
      }
    }
  }
}

TEST(SinrEdgeTable, MatchesMaxRateAtEveryEdgePaperPhy) {
  const PhyModel phy = PhyModel::paper_default();
  for (const double signal : signal_probes(phy)) expect_table_matches(phy, signal);
}

TEST(SinrEdgeTable, MatchesMaxRateAtEveryEdgeEightRates) {
  const PhyModel phy = eight_rate_phy();
  ASSERT_EQ(phy.rates().size(), 8u);
  for (const double signal : signal_probes(phy)) expect_table_matches(phy, signal);
}

TEST(SinrEdgeTable, MatchesMaxRateWithTiedThresholds) {
  // Two rates share one SINR threshold, so inside their common margin
  // max_rate may answer the faster one, which a cap between them rules
  // out.
  const PhyModel phy(PathLoss(4.0),
                     RateTable({{54.0, 10.0, 1e-9},
                                {36.0, 10.0, 5e-10},
                                {6.0, 2.0, 1e-10}}),
                     0.1, 1e-11, 1e-11);
  for (const double signal : signal_probes(phy)) expect_table_matches(phy, signal);
}

TEST(SinrEdgeTable, MatchesMaxRateOnShadowedLink) {
  // A shadowed link's signal is the path loss scaled by the pair's gain,
  // so it lands between the calibrated sensitivities.
  const net::Network network({{0.0, 0.0}, {90.0, 0.0}, {40.0, 60.0}},
                             PhyModel::paper_default(), Shadowing(6.0, 11));
  ASSERT_GT(network.num_links(), 0u);
  const net::Link& link = network.link(0);
  const double signal = network.received_power(link.tx, link.rx);
  EXPECT_NE(signal, network.phy().received_power(geom::distance(
                        network.node(link.tx).position,
                        network.node(link.rx).position)));
  expect_table_matches(network.phy(), signal);
}

TEST(SinrEdgeTable, UnheardLinkNeverDecodes) {
  const PhyModel phy = PhyModel::paper_default();
  SinrEdgeTable table(phy);
  table.add(phy.rates().rates().back().rx_sensitivity_watt * 0.5, 0);
  EXPECT_EQ(table.rate(0, 0.0), std::nullopt);
  EXPECT_FALSE(table.decodes(0, 0.0));
  const RateBand band = table.band(0, 0.0);
  EXPECT_EQ(band.rate, std::nullopt);
  EXPECT_TRUE(band.holds(0.0));
  EXPECT_TRUE(band.holds(kInf));
}

}  // namespace
}  // namespace mrwsn::phy
