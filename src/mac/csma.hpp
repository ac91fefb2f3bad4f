#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrwsn::mac {

/// IEEE 802.11 DCF-style timing and framing parameters (defaults follow
/// 802.11a OFDM timing).
struct MacParams {
  double slot_time_s = 9e-6;
  double sifs_s = 16e-6;
  double difs_s = 34e-6;      ///< SIFS + 2 slots
  unsigned cw_min = 15;       ///< initial contention window (slots)
  unsigned cw_max = 1023;
  unsigned retry_limit = 7;   ///< drops the frame after this many failures
  double phy_overhead_s = 20e-6;  ///< preamble + PLCP header per frame
  double ack_duration_s = 32e-6;  ///< ACK airtime incl. preamble
  std::size_t payload_bits = 8192;  ///< 1024-byte data frames
  std::size_t queue_limit = 200;    ///< per-node interface queue (frames)

  /// RTS/CTS virtual carrier sensing: the exchange becomes
  /// RTS -> SIFS -> CTS -> SIFS -> DATA -> SIFS -> ACK, and every third
  /// node that decodes the RTS or CTS (received power above the base
  /// rate's sensitivity) defers via NAV until the exchange ends — the
  /// classic hidden-terminal countermeasure, bought with control-frame
  /// overhead. Off by default.
  bool enable_rts_cts = false;
  double rts_duration_s = 28e-6;
  double cts_duration_s = 28e-6;

  /// ARF-style per-link rate adaptation: after `arf_down_after`
  /// consecutive failures the link steps one rate down; after
  /// `arf_up_after` consecutive successes it probes one rate up (never
  /// past what the link's received power supports). Off by default: each
  /// link then always uses its maximum lone rate.
  bool enable_arf = false;
  unsigned arf_up_after = 10;
  unsigned arf_down_after = 2;
};

/// Per-flow outcome of a simulation run (measurement window only).
struct FlowStats {
  double offered_mbps = 0.0;    ///< configured demand
  double delivered_mbps = 0.0;  ///< end-to-end goodput
  std::uint64_t generated_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;  ///< retry-limit or queue-overflow drops
  double mean_latency_s = 0.0;  ///< source-to-destination, delivered packets
  double p95_latency_s = 0.0;
  double max_latency_s = 0.0;
};

/// Everything a run reports.
struct SimReport {
  double measured_s = 0.0;          ///< measurement window length
  std::vector<double> node_idle;    ///< carrier-sensed idle ratio per node
  std::vector<FlowStats> flows;
  std::uint64_t data_transmissions = 0;
  std::uint64_t failed_receptions = 0;   ///< DATA frames lost to SINR/collision
  std::uint64_t control_failures = 0;    ///< RTS/CTS frames lost (RTS/CTS mode)
};

}  // namespace mrwsn::mac
