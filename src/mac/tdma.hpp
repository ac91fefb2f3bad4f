#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/schedule.hpp"
#include "mac/csma.hpp"
#include "net/network.hpp"

namespace mrwsn::mac {

/// TDMA execution parameters.
struct TdmaParams {
  double frame_s = 0.02;          ///< period τ of the repeating schedule
  double phy_overhead_s = 20e-6;  ///< preamble + PLCP header per frame
  std::size_t payload_bits = 8192;
  std::size_t queue_limit = 500;  ///< per-link queue (frames)
};

/// Executes an Eq. 6 LP schedule as a periodic TDMA frame in virtual
/// time: every ScheduledSet becomes a slot of length time_share · frame_s
/// in which exactly its member links transmit, back to back, at their
/// scheduled rates. Packets flow hop by hop along configured flows.
///
/// This turns the paper's standing assumption — "a global optimal link
/// scheduling exists" — into an executable artifact: if the LP says a
/// flow set is feasible, the TDMA executor must deliver each flow's
/// demand packet by packet (up to per-packet PHY overhead), where a
/// contention MAC (ParallelCsmaSimulator) generally cannot.
///
/// Transmissions never fail here: the interference model already certified
/// every slot's concurrent set (verify_schedule is called on input).
class TdmaSimulator {
 public:
  TdmaSimulator(const net::Network& network,
                const core::InterferenceModel& model,
                std::vector<core::ScheduledSet> schedule, TdmaParams params,
                std::uint64_t seed);
  ~TdmaSimulator();

  TdmaSimulator(const TdmaSimulator&) = delete;
  TdmaSimulator& operator=(const TdmaSimulator&) = delete;

  /// Add a CBR flow along a contiguous link path.
  void add_flow(std::vector<net::LinkId> path_links, double demand_mbps);

  /// Run for warmup + duration simulated seconds; statistics cover the
  /// final `duration_s`. node_idle in the report is derived from the
  /// schedule geometry (a node is busy in a slot when it transmits,
  /// receives, or senses the slot's transmitters).
  SimReport run(double duration_s, double warmup_s = 0.1);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrwsn::mac
