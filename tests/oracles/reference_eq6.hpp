#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/available_bandwidth.hpp"

namespace mrwsn::core {

/// Test-only oracles: the paper's LPs built over every maximal independent
/// set of the link universe (InterferenceModel::maximal_independent_sets,
/// exponential in the universe size) and solved once with lp::solve. The
/// library solves both by column generation; the differential suites hold
/// it to these.

/// Eq. 6 for `new_paths` jointly under `objective` (max-min as the
/// lexicographic floor pass, then the sum with the floor pinned).
/// `num_independent_sets` is |M-hat|; no pricing ran, so `colgen` is
/// left default.
JointBandwidthResult reference_joint_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective);

/// Single-path Eq. 6: reference_joint_bandwidth of {new_path} under
/// kMaxSum (no shadow prices).
AvailableBandwidthResult reference_path_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const net::LinkId> new_path);

/// Minimize Σλ subject to delivering `link_demand_mbps` (indexed by link
/// id) on the links of `universe`. nullopt when a demanded link carries no
/// rate, so no airtime delivers the demands.
std::optional<AirtimeSchedule> reference_min_airtime_schedule(
    const InterferenceModel& model, std::span<const net::LinkId> universe,
    std::span<const double> link_demand_mbps);

}  // namespace mrwsn::core
