#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "phy/phy_model.hpp"
#include "phy/rate.hpp"

namespace mrwsn::phy {

/// An interference range [lo, hi] at one link's receiver over which
/// SinrEdgeTable::rate answers `rate` (nullopt: the link cannot decode).
/// The empty default range holds nothing.
struct RateBand {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::optional<RateIndex> rate;

  bool holds(double interference) const {
    return interference >= lo && interference <= hi;
  }
};

/// The rate a set of links decodes at under a given interference, answered
/// from per-link SINR edges instead of PhyModel::max_rate's division and
/// rate walk.
///
/// max_rate(S, I) picks the fastest rate whose sensitivity S meets and
/// whose SINR threshold S / (N + I) meets. Thresholds and sensitivities only
/// fall with the rate, so both tests pass on a suffix of the table, and
/// rate r's SINR test passes exactly while I stays below its edge
/// S / thr_r - N. The table stores, per link and rate, that edge moved a
/// relative kMargin inward ("clears": r certainly decodes at or below it)
/// and outward ("fails": r certainly does not decode above it) — far more
/// than the few ulps of rounding in the edge and in PhyModel::sinr — and
/// −inf for both when the link's signal misses r's sensitivity. It also
/// stores the first usable rate, max(rate cap, first sensitivity-cleared
/// rate). A lookup walks the edges from there and asks PhyModel::max_rate
/// only when the interference falls between a rate's two edges, so every
/// answer equals max(phy.max_rate(S, I), cap).
class SinrEdgeTable {
 public:
  SinrEdgeTable() = default;
  explicit SinrEdgeTable(const PhyModel& phy);

  /// Append a link whose own signal arrives at `signal_watt` and whose
  /// rate is capped at `cap` (smaller index = faster); returns its index.
  std::size_t add(double signal_watt, RateIndex cap);

  /// max(phy.max_rate(signal, interference), cap), or nullopt when the
  /// link cannot decode under `interference` watts.
  std::optional<RateIndex> rate(std::size_t link, double interference) const {
    const double* edge = edges(link);
    for (RateIndex r = first_[link]; r < num_rates_; ++r) {
      if (interference <= edge[2 * r]) return r;
      if (interference <= edge[2 * r + 1]) return exact(link, interference);
    }
    return std::nullopt;
  }

  /// rate(link, interference).has_value(), by one compare against the
  /// slowest rate's edges outside their margin.
  bool decodes(std::size_t link, double interference) const {
    const double* slowest = edges(link) + 2 * (num_rates_ - 1);
    if (interference <= slowest[0]) return true;
    if (interference > slowest[1]) return false;
    return exact(link, interference).has_value();
  }

  /// The band around rate(link, interference): the answer holds while the
  /// interference stays at or below the answer's clears edge and above
  /// the next faster rate's fails edge (no lower end at the first usable
  /// rate). An unusable link stays so above the slowest rate's fails edge.
  RateBand band(std::size_t link, double interference) const;

 private:
  /// Relative distance of the stored edges from the exact SINR boundary.
  static constexpr double kMargin = 1e-9;

  const double* edges(std::size_t link) const {
    return &edges_[link * 2 * num_rates_];
  }

  std::optional<RateIndex> exact(std::size_t link, double interference) const;

  const PhyModel* phy_ = nullptr;
  std::size_t num_rates_ = 0;
  std::vector<double> signal_;     ///< by link
  std::vector<RateIndex> first_;   ///< by link: first usable rate
  std::vector<double> edges_;      ///< [link * 2R + 2r]: clears, then fails
};

}  // namespace mrwsn::phy
