#pragma once

#include <span>
#include <vector>

#include "core/available_bandwidth.hpp"
#include "net/network.hpp"

namespace mrwsn::core {

/// Per-node channel idle ratios (Section 4's λ_idle), derived from an
/// optimal schedule rather than from on-air measurement.
struct IdleResult {
  /// True when the background demands are schedulable (Σλ <= 1).
  bool feasible = false;
  /// Total airtime Σλ of the minimum-airtime schedule.
  double total_airtime = 0.0;
  /// λ_idle per node id; 1 means the node never senses a busy channel.
  std::vector<double> node_idle;
};

/// λ_idle for every node under `schedule`: during a scheduled slot a node
/// senses busy when it transmits or receives itself, or when the
/// cumulative power it receives from all concurrently scheduled
/// transmitters reaches the carrier-sense threshold. Feasible iff the
/// schedule's total airtime is at most 1.
IdleResult idle_ratios(const net::Network& network,
                       const AirtimeSchedule& schedule);

/// idle_ratios() under the minimum-airtime schedule of the background
/// flows, solved by a throwaway AdmissionEngine. A long-lived caller reads
/// its own engine's background_schedule() instead.
///
/// This is the "oracle" counterpart of the carrier-sensing measurement the
/// paper's distributed nodes perform; mac::ParallelCsmaSimulator provides
/// the measured counterpart (compared in the idle-measurement ablation).
IdleResult schedule_idle_ratios(const net::Network& network,
                                const InterferenceModel& model,
                                std::span<const LinkFlow> background);

}  // namespace mrwsn::core
