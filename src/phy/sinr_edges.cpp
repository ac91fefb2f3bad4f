#include "phy/sinr_edges.hpp"

#include <algorithm>

namespace mrwsn::phy {

SinrEdgeTable::SinrEdgeTable(const PhyModel& phy)
    : phy_(&phy), num_rates_(phy.rates().size()) {}

std::size_t SinrEdgeTable::add(double signal_watt, RateIndex cap) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const RateTable& rates = phy_->rates();
  RateIndex first_heard = num_rates_;
  for (RateIndex r = num_rates_; r-- > 0;) {
    if (signal_watt < rates[r].rx_sensitivity_watt) break;
    first_heard = r;
  }
  // Interference at which the SINR meets rate r's threshold, moved by a
  // relative kMargin towards `side`.
  const auto edge = [&](RateIndex r, double side) {
    return signal_watt / rates[r].sinr_min_linear * (1.0 + side * kMargin) -
           phy_->noise_watt();
  };
  for (RateIndex r = 0; r < num_rates_; ++r) {
    const bool heard = r >= first_heard;
    edges_.push_back(heard ? edge(r, -1.0) : -kInf);
    edges_.push_back(heard ? edge(r, +1.0) : -kInf);
  }
  signal_.push_back(signal_watt);
  first_.push_back(std::max(cap, first_heard));
  return first_.size() - 1;
}

std::optional<RateIndex> SinrEdgeTable::exact(std::size_t link,
                                              double interference) const {
  const auto rate = phy_->max_rate(signal_[link], interference);
  if (!rate) return rate;
  // max_rate answers only sensitivity-cleared rates, so clamping by the
  // first usable rate is clamping by the cap.
  return std::max(*rate, first_[link]);
}

RateBand SinrEdgeTable::band(std::size_t link, double interference) const {
  const double* edge = edges(link);
  RateBand band;
  band.rate = rate(link, interference);
  if (!band.rate) {
    band.lo = edge[2 * (num_rates_ - 1) + 1];
    band.hi = std::numeric_limits<double>::infinity();
    return band;
  }
  const RateIndex r = *band.rate;
  band.hi = edge[2 * r];
  band.lo = r == first_[link] ? -std::numeric_limits<double>::infinity()
                              : edge[2 * (r - 1) + 1];
  return band;
}

}  // namespace mrwsn::phy
