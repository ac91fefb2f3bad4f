#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mac/csma.hpp"
#include "mac/partition.hpp"
#include "net/network.hpp"

namespace mrwsn::mac {

/// Sharding knobs for the region-parallel simulator.
///
/// None of these change results except latency_s, which is part of the
/// *model*: the parallel simulator charges a uniform sense latency on every
/// cross-node effect (signal sensed, NAV heard, frame handed to the next
/// hop), which is what gives every region a guaranteed lookahead.
/// grid/thread choices are pure performance knobs — SimReport is
/// bit-identical across all of them. (The interaction floor below which a
/// signal is not propagated is a fixed constant of the simulator.)
struct ShardParams {
  std::size_t grid_x = 0;  ///< 0: auto-size cells by carrier-sense range
  std::size_t grid_y = 0;
  /// 0: util::configured_threads(); capped at the region count.
  std::size_t threads = 0;

  /// Uniform latency charged on every cross-node effect, applied alike
  /// inside and across regions; also the conservative lookahead window.
  /// Default is DIFS-scale: two slots + a SIFS of sensing/decode latency.
  double latency_s = 34e-6;

  /// The preset for small topologies (chains, hidden-terminal layouts,
  /// `mrwsn simulate`): a single 1x1 region, which the worker pool runs
  /// on the calling thread alone, and latency_s = 1 us, the air
  /// propagation time across the paper PHY's 281 m carrier-sense range
  /// (281 m / c ~ 0.94 us).
  static ShardParams one_region() {
    ShardParams shard;
    shard.grid_x = 1;
    shard.grid_y = 1;
    shard.latency_s = 1e-6;
    return shard;
  }
};

/// The packet-level CSMA/CA (802.11 DCF) simulator over a net::Network:
/// carrier sensing against the PHY's carrier-sense threshold, DIFS +
/// binary exponential backoff, DATA/ACK, SINR-based reception with
/// cumulative interference, optional RTS/CTS NAV and ARF, multihop
/// forwarding along configured flow paths, and per-node busy/idle
/// accounting. Its role is Section 4's *measured* channel idle ratio: an
/// on-air counterpart to core::schedule_idle_ratios. It does not reproduce
/// the LP's optimal schedules (DCF cannot; that gap is the paper's
/// Scenario I observation).
///
/// The model is a message-passing simulation in which every cross-node
/// effect arrives `latency_s` after its cause. Nodes are partitioned into
/// spatial-grid regions, each with its own event queue; regions run in
/// parallel inside conservative lookahead windows of latency_s and
/// exchange time-stamped messages at window barriers. Small topologies
/// use ShardParams::one_region().
///
/// Determinism: every event carries an intrinsic (class, origin, sequence)
/// key and queues order events by (time, key), so the execution order —
/// and therefore SimReport, bit for bit — is independent of the grid shape
/// and thread count. See DESIGN.md §11.
class ParallelCsmaSimulator {
 public:
  ParallelCsmaSimulator(const net::Network& network, MacParams params,
                        ShardParams shard, std::uint64_t seed);
  ~ParallelCsmaSimulator();

  ParallelCsmaSimulator(const ParallelCsmaSimulator&) = delete;
  ParallelCsmaSimulator& operator=(const ParallelCsmaSimulator&) = delete;

  /// Add a CBR flow along a contiguous link path with the given demand.
  void add_flow(std::vector<net::LinkId> path_links, double demand_mbps);

  /// Run for `warmup_s + duration_s` simulated seconds; statistics cover
  /// the final `duration_s`. May be called once per simulator. Events are
  /// processed on the half-open interval [0, warmup_s + duration_s).
  SimReport run(double duration_s, double warmup_s = 0.5);

  /// Threads that run the regions, the caller included: ShardParams::
  /// threads (or util::configured_threads()) capped at the region count.
  std::size_t workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrwsn::mac
