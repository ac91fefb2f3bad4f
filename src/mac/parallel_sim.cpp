#include "mac/parallel_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>

#include "mac/event_queue.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mrwsn::mac {

namespace {

constexpr EventId kNoEvent = std::numeric_limits<EventId>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/// Signals weaker than this fraction of the noise floor are not propagated
/// at all (they could never move a carrier-sense or SINR decision by a
/// measurable amount). Bounds per-transmission fan-out on large
/// topologies; identical for every partitioning.
constexpr double kInteractionFloor = 0.01;

/// Same-timestamp class order (EventKey::klass). Evaluations run before
/// simultaneous signal edges (a signal arriving exactly when a frame ends
/// does not interfere with it), signal edges before frame starts (a frame
/// registration must see its own signal already in the receiver's view),
/// and those before timers and traffic arrivals.
constexpr std::uint32_t kEvalClass = 0;
constexpr std::uint32_t kSignalClass = 1;
constexpr std::uint32_t kStartClass = 2;
constexpr std::uint32_t kTimerClass = 3;
constexpr std::uint32_t kArrivalClass = 4;

enum class MsgType : std::uint8_t {
  kSignalOn,    ///< a transmission becomes audible at `target`
  kSignalOff,   ///< it stops being audible (may carry a NAV reservation)
  kFrameStart,  ///< a tracked frame (DATA/RTS/CTS) addressed to `target`
  kAckArrive,   ///< the receiver's ACK reached the transmitter
};

enum class FrameKind : std::uint8_t { kData, kRts, kCts };

/// A time-stamped cross-node effect. Sized so that {owner pointer,
/// Message} fits SmallFn's inline buffer: applying a message never
/// allocates. Field reuse by type:
///   kSignalOn:   a = received power at target
///   kSignalOff:  a = NAV reservation end (0 = none), b = received power
///   kFrameStart: a = created_at (DATA) / planned DATA airtime (RTS),
///                b = received signal power; link/flow/hop/rate as named
struct Message {
  double effect_s = 0.0;
  double a = 0.0;
  double b = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t origin = 0;
  std::uint32_t target = 0;
  std::uint32_t link = 0;
  std::uint32_t flow = 0;
  std::uint32_t hop = 0;
  MsgType type = MsgType::kSignalOn;
  FrameKind kind = FrameKind::kData;
  std::uint8_t rate = 0;
};
static_assert(sizeof(Message) + sizeof(void*) <= SmallFn::kInlineBytes,
              "message handlers must fit the inline callback buffer");

std::uint32_t class_of(MsgType type) {
  switch (type) {
    case MsgType::kSignalOn:
    case MsgType::kSignalOff:
      return kSignalClass;
    case MsgType::kFrameStart:
      return kStartClass;
    case MsgType::kAckArrive:
      return kEvalClass;
  }
  return kTimerClass;
}

/// Per-region, per-flow tallies, merged commutatively (integers) or after
/// sorting (latencies) so the merge order never shows in the report.
struct FlowTally {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::vector<double> latencies_s;
};

/// The conservative-synchronization runtime of the sharded simulator: one
/// EventQueue per region, a persistent worker pool of at most one worker
/// per region (a spare worker would only spin at every barrier), and
/// double-buffered per-(src,dst) outboxes exchanged at window barriers.
///
/// The lookahead invariant: every message's effect time is at least its
/// emission time + latency, and windows are at most `latency` long, so a
/// message emitted inside window [w, wend) takes effect at or after wend —
/// delivering at the *next* window's start can never be late. Windows are
/// half-open (EventQueue::run_before), so an event landing exactly on a
/// barrier always executes after it, in full (time, key) order against the
/// messages the barrier delivered — which is what makes results identical
/// for every grid shape.
///
/// Owner must provide:
///   std::uint32_t target_region(const Message&) const;
///   void handle(const Message&);
template <typename Owner>
class ShardCore {
 public:
  ShardCore(Owner& owner, std::size_t regions, std::size_t threads,
            double latency_s)
      : owner_(owner),
        regions_(regions),
        latency_(latency_s),
        pool_(std::min(threads == 0 ? util::configured_threads() : threads,
                       regions)),
        queues_(regions),
        outbox_(regions * regions),
        min_emit_(regions, {kInf, kInf}),
        next_times_(regions, kInf) {
    MRWSN_REQUIRE(latency_ > 0.0, "cross-node latency must be positive");
    task_ = [this](std::size_t worker) {
      const auto [lo, hi] = pool_.block(worker, regions_);
      for (std::size_t r = lo; r < hi; ++r) run_region(r);
    };
  }

  std::size_t regions() const { return regions_; }
  std::size_t workers() const { return pool_.size(); }
  EventQueue& queue_of(std::size_t region) { return queues_[region]; }
  double now_of(std::size_t region) const { return queues_[region].now(); }

  /// Schedule `msg` into its destination region's queue. Only safe from
  /// the destination region's own task (or serial phases).
  void apply(const Message& msg) {
    Owner* owner = &owner_;
    const Message m = msg;
    queues_[owner_.target_region(m)].schedule_at(
        m.effect_s, EventKey{class_of(m.type), m.origin, m.seq},
        [owner, m] { owner->handle(m); });
  }

  /// Emit `msg` from region `src`'s task: applied directly when the
  /// destination is local, else parked in the outbox for delivery at the
  /// next window barrier. Both paths produce the same event key and
  /// effect time, so locality never shows in the execution order.
  void post(std::uint32_t src, const Message& msg) {
    const std::uint32_t dst = owner_.target_region(msg);
    if (dst == src) {
      apply(msg);
      return;
    }
    outbox_[src * regions_ + dst][parity_].push_back(msg);
    min_emit_[src][parity_] = std::min(min_emit_[src][parity_], msg.effect_s);
  }

  /// Advance every region through the half-open interval [cursor,
  /// boundary), window by window, jumping idle gaps (the minimum over all
  /// pending event and in-flight message times bounds the next window
  /// start from below).
  void run_to(double boundary) {
    while (cursor_ < boundary) {
      wend_ = std::min(cursor_ + latency_, boundary);
      parity_ = window_ & 1;
      pool_.run(task_);
      ++window_;
      double tnext = kInf;
      for (std::size_t r = 0; r < regions_; ++r) {
        tnext = std::min(tnext, next_times_[r]);
        tnext = std::min(tnext, min_emit_[r][parity_]);
      }
      cursor_ = std::max(wend_, std::min(tnext, boundary));
    }
  }

 private:
  void run_region(std::size_t r) {
    min_emit_[r][parity_] = kInf;
    // Deliver messages parked during the previous window (opposite
    // parity), in fixed source-region order: deterministic, and already
    // parallel across destinations because each task drains its own row.
    for (std::size_t src = 0; src < regions_; ++src) {
      std::vector<Message>& box = outbox_[src * regions_ + r][parity_ ^ 1];
      for (const Message& m : box) apply(m);
      box.clear();
    }
    queues_[r].run_before(wend_);
    next_times_[r] = queues_[r].next_time();
  }

  Owner& owner_;
  std::size_t regions_;
  double latency_;
  util::WorkerPool pool_;
  std::vector<EventQueue> queues_;
  std::vector<std::array<std::vector<Message>, 2>> outbox_;  // [src*R+dst]
  std::vector<std::array<double, 2>> min_emit_;              // by src region
  std::vector<double> next_times_;                           // by region
  std::function<void(std::size_t)> task_;
  std::uint64_t window_ = 0;
  std::size_t parity_ = 0;
  double cursor_ = 0.0;
  double wend_ = 0.0;
};

/// Per-node RNG stream: draws are tied to the drawing node, not to global
/// event order, so any partitioning sees the same sequences.
Rng node_stream(std::uint64_t seed, std::uint64_t n) {
  return Rng(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (n + 1))).next());
}

struct FlowSpec {
  std::vector<net::LinkId> links;
  double demand_mbps = 0.0;
  double arrival_interval_s = 0.0;
};

void check_flow_path(const net::Network& network,
                     const std::vector<net::LinkId>& path, double demand) {
  MRWSN_REQUIRE(!path.empty(), "a flow needs at least one link");
  MRWSN_REQUIRE(demand > 0.0, "flow demand must be positive");
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    MRWSN_REQUIRE(network.link(path[i]).rx == network.link(path[i + 1]).tx,
                  "flow links must form a contiguous path");
  }
}

/// Merge per-region tallies into FlowStats. Integer sums commute;
/// latencies are concatenated in region order and sorted, so the merged
/// statistics are independent of the partitioning.
std::vector<FlowStats> merge_flow_tallies(
    const std::vector<FlowSpec>& flows,
    std::vector<std::vector<FlowTally>>& tallies, double duration_s,
    std::size_t payload_bits) {
  std::vector<FlowStats> out;
  out.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    FlowStats stats;
    stats.offered_mbps = flows[f].demand_mbps;
    std::vector<double> latencies;
    for (std::vector<FlowTally>& region : tallies) {
      stats.generated_packets += region[f].generated;
      stats.delivered_packets += region[f].delivered;
      stats.dropped_packets += region[f].dropped;
      latencies.insert(latencies.end(), region[f].latencies_s.begin(),
                       region[f].latencies_s.end());
    }
    stats.delivered_mbps = static_cast<double>(stats.delivered_packets) *
                           static_cast<double>(payload_bits) /
                           (duration_s * 1e6);
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      double sum = 0.0;
      for (double l : latencies) sum += l;
      stats.mean_latency_s = sum / static_cast<double>(latencies.size());
      stats.p95_latency_s = latencies[(latencies.size() - 1) * 95 / 100];
      stats.max_latency_s = latencies.back();
    }
    out.push_back(stats);
  }
  return out;
}

GridPartition resolve_partition(const net::Network& network,
                                const ShardParams& shard) {
  if (shard.grid_x == 0 || shard.grid_y == 0)
    return auto_grid_partition(network);
  return make_grid_partition(network, shard.grid_x, shard.grid_y);
}

}  // namespace

// ===================================================================
// ParallelCsmaSimulator
// ===================================================================

struct ParallelCsmaSimulator::Impl {
  struct Packet {
    std::uint32_t flow = 0;
    std::uint32_t hop = 0;
    double created_at = 0.0;
  };

  /// A frame in flight towards this node, awaiting its end-of-frame
  /// evaluation. max_interference is maintained incrementally from the
  /// node's signal view as new signals arrive.
  struct Reception {
    std::uint32_t from = 0;
    FrameKind kind = FrameKind::kData;
    std::uint32_t link = 0;
    std::uint8_t rate = 0;
    bool corrupted = false;
    Packet packet;
    double planned_data_s = 0.0;  ///< RTS only
    double signal_watt = 0.0;
    double max_interference_watt = 0.0;
  };

  enum class MacState { kIdle, kContending, kTransmitting, kAwaitingAck };

  struct NodeState {
    std::deque<Packet> queue;
    MacState state = MacState::kIdle;
    unsigned cw = 0;
    unsigned retries = 0;
    int backoff_slots = -1;  ///< -1: not drawn for the current frame
    EventId timer = kNoEvent;           ///< DIFS+backoff countdown
    EventId response_timer = kNoEvent;  ///< CTS/ACK timeout
    double countdown_started = 0.0;
    bool sensed_busy = false;
    double nav_until = 0.0;
    double busy_accum = 0.0;
    double busy_since = -1.0;
    /// Incremental channel view: sum of currently audible foreign
    /// signals. Reset to exactly 0 when the count drains so float drift
    /// cannot accumulate across quiet periods.
    double view_power = 0.0;
    std::uint32_t view_count = 0;
    std::uint32_t own_on_air = 0;  ///< own frames on the air (any kind)
    std::vector<Reception> pending;
    std::uint64_t seq = 0;  ///< event-key sequence for this origin
    Rng rng{0};
  };

  struct ArfState {
    phy::RateIndex rate = 0;
    unsigned successes = 0;
    unsigned failures = 0;
  };

  struct Neighbor {
    std::uint32_t node = 0;
    double power = 0.0;  ///< received power at `node` from the row's owner
  };

  struct RegionStats {
    std::uint64_t data_transmissions = 0;
    std::uint64_t failed_receptions = 0;
    std::uint64_t control_failures = 0;
  };

  const net::Network& network;
  MacParams params;
  ShardParams shard;
  std::uint64_t seed;
  GridPartition part;
  ShardCore<Impl> core;

  std::vector<FlowSpec> flows;
  std::vector<NodeState> nodes;
  std::vector<ArfState> arf;               // by link id; owner: link.tx
  std::vector<double> link_rx_power;       // by link id
  std::vector<double> rate_airtime;        // DATA airtime by rate index
  std::vector<Neighbor> neighbors;         // CSR payload
  std::vector<std::uint32_t> neighbor_start;  // CSR offsets, size N+1
  std::vector<std::vector<FlowTally>> tallies;  // [region][flow]
  std::vector<RegionStats> stats;               // [region]
  double base_sensitivity = 0.0;
  double cs_threshold = 0.0;
  double measure_start = 0.0;
  bool ran = false;

  Impl(const net::Network& net, MacParams p, ShardParams s, std::uint64_t sd)
      : network(net),
        params(p),
        shard(s),
        seed(sd),
        part(resolve_partition(net, s)),
        core(*this, part.num_regions(), s.threads, s.latency_s) {
    const std::size_t n = network.num_nodes();
    nodes.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes[i].cw = params.cw_min;
      nodes[i].rng = node_stream(seed, i);
    }
    arf.resize(network.num_links());
    link_rx_power.resize(network.num_links());
    for (net::LinkId id = 0; id < network.num_links(); ++id) {
      arf[id].rate = network.link(id).best_rate_alone;
      link_rx_power[id] =
          network.received_power(network.link(id).tx, network.link(id).rx);
    }
    const phy::RateTable& rates = network.phy().rates();
    rate_airtime.resize(rates.size());
    for (phy::RateIndex r = 0; r < rates.size(); ++r) {
      rate_airtime[r] = params.phy_overhead_s +
                        static_cast<double>(params.payload_bits) /
                            (rates[r].mbps * 1e6);
    }
    base_sensitivity = rates.rates().back().rx_sensitivity_watt;
    cs_threshold = network.phy().cs_threshold_watt();
    stats.resize(part.num_regions());

    // Interaction neighborhoods: everyone whose view a transmission by
    // `i` can measurably move. Identical for every partitioning, so the
    // cutoff never breaks determinism.
    const double floor_watt = kInteractionFloor * network.phy().noise_watt();
    // A pair beyond the sender's reach at that floor provably falls below
    // it, so its power is never computed.
    neighbor_start.assign(n + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      neighbor_start[i] = static_cast<std::uint32_t>(neighbors.size());
      const double reach_m = network.reach(network.node_tx_power(i), floor_watt);
      const double reach_sq = reach_m * reach_m;
      const geom::Point origin = network.node(i).position;
      for (std::uint32_t m = 0; m < n; ++m) {
        if (m == i ||
            geom::distance_sq(origin, network.node(m).position) > reach_sq)
          continue;
        const double power = network.received_power(i, m);
        if (power >= floor_watt)
          neighbors.push_back(Neighbor{m, power});
      }
    }
    neighbor_start[n] = static_cast<std::uint32_t>(neighbors.size());
  }

  // ------------------------------------------------------- shard glue
  std::uint32_t target_region(const Message& msg) const {
    return part.region_of_node[msg.target];
  }

  double now_at(std::uint32_t n) const {
    return core.now_of(part.region_of_node[n]);
  }

  EventQueue& queue_at(std::uint32_t n) {
    return core.queue_of(part.region_of_node[n]);
  }

  RegionStats& stats_at(std::uint32_t n) {
    return stats[part.region_of_node[n]];
  }

  FlowTally& tally_at(std::uint32_t n, std::uint32_t flow) {
    return tallies[part.region_of_node[n]][flow];
  }

  // ------------------------------------------------------- emissions
  void emit_signal_on(std::uint32_t n, double now) {
    const double effect = now + shard.latency_s;
    const std::uint32_t src = part.region_of_node[n];
    for (std::uint32_t i = neighbor_start[n]; i < neighbor_start[n + 1]; ++i) {
      Message msg;
      msg.type = MsgType::kSignalOn;
      msg.effect_s = effect;
      msg.origin = n;
      msg.seq = nodes[n].seq++;
      msg.target = neighbors[i].node;
      msg.a = neighbors[i].power;
      core.post(src, msg);
    }
  }

  /// `nav_until` > 0 reserves the channel at third parties that can
  /// decode the ending frame (power above the base rate's sensitivity);
  /// `exclude` (the addressed peer) never gets the reservation.
  void emit_signal_off(std::uint32_t n, double now, double nav_until,
                       std::uint32_t exclude) {
    const double effect = now + shard.latency_s;
    const std::uint32_t src = part.region_of_node[n];
    for (std::uint32_t i = neighbor_start[n]; i < neighbor_start[n + 1]; ++i) {
      const Neighbor& nb = neighbors[i];
      Message msg;
      msg.type = MsgType::kSignalOff;
      msg.effect_s = effect;
      msg.origin = n;
      msg.seq = nodes[n].seq++;
      msg.target = nb.node;
      msg.b = nb.power;
      if (nav_until > 0.0 && nb.node != exclude &&
          nb.power >= base_sensitivity) {
        msg.a = nav_until;
      }
      core.post(src, msg);
    }
  }

  void emit_frame_start(std::uint32_t n, double now, FrameKind kind,
                        std::uint32_t rx, std::uint32_t link,
                        std::uint8_t rate, double a, const Packet* packet) {
    Message msg;
    msg.type = MsgType::kFrameStart;
    msg.kind = kind;
    msg.effect_s = now + shard.latency_s;
    msg.origin = n;
    msg.seq = nodes[n].seq++;
    msg.target = rx;
    msg.link = link;
    msg.rate = rate;
    msg.a = a;
    msg.b = power_between(n, rx);
    if (packet != nullptr) {
      msg.flow = packet->flow;
      msg.hop = packet->hop;
      msg.a = packet->created_at;
    }
    core.post(part.region_of_node[n], msg);
  }

  /// Received power at `to` from `from` — the cached neighborhood value
  /// when present (bit-identical to what SignalOn/Off deliver), the PHY
  /// directly for sub-floor pairs.
  double power_between(std::uint32_t from, std::uint32_t to) const {
    const Neighbor* lo = neighbors.data() + neighbor_start[from];
    const Neighbor* hi = neighbors.data() + neighbor_start[from + 1];
    const Neighbor* it = std::lower_bound(
        lo, hi, to,
        [](const Neighbor& nb, std::uint32_t node) { return nb.node < node; });
    if (it != hi && it->node == to) return it->power;
    return network.received_power(from, to);
  }

  // ------------------------------------------------------- rate logic
  phy::RateIndex current_rate(net::LinkId link) const {
    return params.enable_arf ? arf[link].rate
                             : network.link(link).best_rate_alone;
  }

  void arf_on_success(net::LinkId link) {
    if (!params.enable_arf) return;
    ArfState& state = arf[link];
    state.failures = 0;
    if (++state.successes >= params.arf_up_after) {
      state.successes = 0;
      if (state.rate > network.link(link).best_rate_alone) --state.rate;
    }
  }

  void arf_on_failure(net::LinkId link) {
    if (!params.enable_arf) return;
    ArfState& state = arf[link];
    state.successes = 0;
    if (++state.failures >= params.arf_down_after) {
      state.failures = 0;
      if (state.rate + 1 < network.phy().rates().size()) ++state.rate;
    }
  }

  const net::Link& head_link(std::uint32_t n) const {
    const Packet& packet = nodes[n].queue.front();
    return network.link(flows[packet.flow].links[packet.hop]);
  }

  double data_airtime(net::LinkId link) const {
    return rate_airtime[current_rate(link)];
  }

  // --------------------------------------------------- channel sensing
  /// Re-derive the node's busy flag after anything that feeds it changed;
  /// on an edge, account busy time and freeze/resume the backoff.
  void evaluate(std::uint32_t n) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    const bool busy = node.state == MacState::kTransmitting ||
                      node.own_on_air > 0 || now < node.nav_until ||
                      node.view_power >= cs_threshold;
    if (busy == node.sensed_busy) return;
    node.sensed_busy = busy;
    if (busy) {
      node.busy_since = now;
    } else if (node.busy_since >= 0.0) {
      node.busy_accum += now - node.busy_since;
      node.busy_since = -1.0;
    }
    if (node.state != MacState::kContending) return;
    if (busy) {
      freeze_countdown(n);
    } else if (node.timer == kNoEvent) {
      start_countdown(n);
    }
  }

  void set_nav(std::uint32_t n, double until) {
    NodeState& node = nodes[n];
    if (until <= node.nav_until) return;
    node.nav_until = until;
    queue_at(n).schedule_at(until, EventKey{kTimerClass, n, node.seq++},
                            [this, n] { evaluate(n); });
  }

  /// Own transmission begins: it corrupts anything this node was
  /// receiving and pins the channel busy.
  void start_own_transmission(std::uint32_t n) {
    NodeState& node = nodes[n];
    ++node.own_on_air;
    for (Reception& rec : node.pending) rec.corrupted = true;
    evaluate(n);
  }

  // ----------------------------------------------------- MAC machine
  void maybe_start_contention(std::uint32_t n) {
    NodeState& node = nodes[n];
    if (node.state != MacState::kIdle || node.queue.empty()) return;
    node.state = MacState::kContending;
    if (node.backoff_slots < 0)
      node.backoff_slots = static_cast<int>(node.rng.uniform_int(0, node.cw));
    if (!node.sensed_busy) start_countdown(n);
  }

  void start_countdown(std::uint32_t n) {
    NodeState& node = nodes[n];
    MRWSN_ASSERT(node.state == MacState::kContending,
                 "countdown outside contention");
    const double now = now_at(n);
    node.countdown_started = now;
    const double wait = params.difs_s +
                        static_cast<double>(node.backoff_slots) *
                            params.slot_time_s;
    node.timer = queue_at(n).schedule_at(
        now + wait, EventKey{kTimerClass, n, node.seq++}, [this, n] {
          nodes[n].timer = kNoEvent;
          begin_data(n);
        });
  }

  void freeze_countdown(std::uint32_t n) {
    NodeState& node = nodes[n];
    if (node.timer == kNoEvent) return;
    queue_at(n).cancel(node.timer);
    node.timer = kNoEvent;
    const double elapsed =
        now_at(n) - node.countdown_started - params.difs_s;
    if (elapsed > 0.0) {
      const int done = static_cast<int>(elapsed / params.slot_time_s);
      node.backoff_slots = std::max(0, node.backoff_slots - done);
    }
  }

  void begin_data(std::uint32_t n) {
    NodeState& node = nodes[n];
    MRWSN_ASSERT(node.state == MacState::kContending,
                 "transmit outside contention");
    MRWSN_ASSERT(!node.queue.empty(), "transmit with empty queue");
    node.backoff_slots = -1;
    if (params.enable_rts_cts) {
      begin_rts(n);
    } else {
      transmit_data(n);
    }
  }

  void transmit_data(std::uint32_t n) {
    NodeState& node = nodes[n];
    MRWSN_ASSERT(!node.queue.empty(), "transmit with empty queue");
    const Packet packet = node.queue.front();
    const net::Link& link = head_link(n);
    MRWSN_ASSERT(link.tx == n, "packet queued at the wrong node");
    const double now = now_at(n);
    const auto rate = static_cast<std::uint8_t>(current_rate(link.id));
    const double duration = rate_airtime[rate];

    node.state = MacState::kTransmitting;
    ++stats_at(n).data_transmissions;
    start_own_transmission(n);
    emit_signal_on(n, now);
    emit_frame_start(n, now, FrameKind::kData,
                     static_cast<std::uint32_t>(link.rx), link.id, rate, 0.0,
                     &packet);
    queue_at(n).schedule_at(now + duration,
                            EventKey{kTimerClass, n, node.seq++},
                            [this, n] { data_tx_end(n); });
  }

  void data_tx_end(std::uint32_t n) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    --node.own_on_air;
    node.state = MacState::kAwaitingAck;
    evaluate(n);
    emit_signal_off(n, now, 0.0, kNoNode);
    // The ACK (if any) arrives at now + 2*latency + SIFS + ACK airtime;
    // one slot of margin.
    const double timeout = 2.0 * shard.latency_s + params.sifs_s +
                           params.ack_duration_s + params.slot_time_s;
    node.response_timer = queue_at(n).schedule_at(
        now + timeout, EventKey{kTimerClass, n, node.seq++}, [this, n] {
          nodes[n].response_timer = kNoEvent;
          handle_ack_timeout(n);
        });
  }

  // ------------------------------------------------------------ RTS/CTS
  std::uint8_t base_rate() const {
    return static_cast<std::uint8_t>(network.phy().rates().size() - 1);
  }

  void begin_rts(std::uint32_t n) {
    NodeState& node = nodes[n];
    const net::Link& link = head_link(n);
    const double now = now_at(n);
    const double data_s = data_airtime(link.id);
    node.state = MacState::kTransmitting;
    start_own_transmission(n);
    emit_signal_on(n, now);
    emit_frame_start(n, now, FrameKind::kRts,
                     static_cast<std::uint32_t>(link.rx), link.id,
                     base_rate(), data_s, nullptr);
    queue_at(n).schedule_at(
        now + params.rts_duration_s, EventKey{kTimerClass, n, node.seq++},
        [this, n, rx = static_cast<std::uint32_t>(link.rx), data_s] {
          rts_tx_end(n, rx, data_s);
        });
  }

  void rts_tx_end(std::uint32_t n, std::uint32_t rx, double data_s) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    --node.own_on_air;
    node.state = MacState::kAwaitingAck;  // waiting for the CTS
    evaluate(n);
    // Full exchange from the RTS end: CTS after latency+SIFS, DATA after
    // another latency+SIFS, ACK after a third round trip.
    const double exchange_end = now + 3.0 * shard.latency_s +
                                3.0 * params.sifs_s + params.cts_duration_s +
                                data_s + params.ack_duration_s;
    emit_signal_off(n, now, exchange_end, rx);
    const double timeout = 2.0 * shard.latency_s + params.sifs_s +
                           params.cts_duration_s + params.slot_time_s;
    node.response_timer = queue_at(n).schedule_at(
        now + timeout, EventKey{kTimerClass, n, node.seq++}, [this, n] {
          nodes[n].response_timer = kNoEvent;
          handle_ack_timeout(n);
        });
  }

  void cts_send(std::uint32_t n, std::uint32_t initiator, double data_s) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    start_own_transmission(n);
    emit_signal_on(n, now);
    emit_frame_start(n, now, FrameKind::kCts, initiator, 0, base_rate(),
                     data_s, nullptr);
    queue_at(n).schedule_at(
        now + params.cts_duration_s, EventKey{kTimerClass, n, node.seq++},
        [this, n, initiator, data_s] { cts_tx_end(n, initiator, data_s); });
  }

  void cts_tx_end(std::uint32_t n, std::uint32_t initiator, double data_s) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    --node.own_on_air;
    evaluate(n);
    const double nav_until = now + 2.0 * shard.latency_s +
                             2.0 * params.sifs_s + data_s +
                             params.ack_duration_s;
    emit_signal_off(n, now, nav_until, initiator);
  }

  // ------------------------------------------------------ ACK exchange
  void ack_send(std::uint32_t n, std::uint32_t initiator, Packet packet) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    start_own_transmission(n);
    emit_signal_on(n, now);
    queue_at(n).schedule_at(
        now + params.ack_duration_s, EventKey{kTimerClass, n, node.seq++},
        [this, n, initiator, packet] { ack_end(n, initiator, packet); });
  }

  void ack_end(std::uint32_t n, std::uint32_t initiator, Packet packet) {
    NodeState& node = nodes[n];
    const double now = now_at(n);
    --node.own_on_air;
    evaluate(n);
    emit_signal_off(n, now, 0.0, kNoNode);
    Message msg;
    msg.type = MsgType::kAckArrive;
    msg.effect_s = now + shard.latency_s;
    msg.origin = n;
    msg.seq = node.seq++;
    msg.target = initiator;
    core.post(part.region_of_node[n], msg);
    // The receiver owns the delivered packet: count or forward it here.
    if (packet.hop + 1 == flows[packet.flow].links.size()) {
      if (now >= measure_start) {
        FlowTally& tally = tally_at(n, packet.flow);
        ++tally.delivered;
        tally.latencies_s.push_back(now - packet.created_at);
      }
    } else {
      enqueue_packet(n, Packet{packet.flow, packet.hop + 1,
                               packet.created_at});
    }
  }

  void complete_success(std::uint32_t n) {
    NodeState& node = nodes[n];
    MRWSN_ASSERT(node.state == MacState::kAwaitingAck, "stray ACK completion");
    MRWSN_ASSERT(!node.queue.empty(), "ACKed a frame that left the queue");
    arf_on_success(head_link(n).id);
    node.queue.pop_front();
    node.state = MacState::kIdle;
    node.retries = 0;
    node.cw = params.cw_min;
    maybe_start_contention(n);
  }

  void handle_ack_timeout(std::uint32_t n) {
    NodeState& node = nodes[n];
    MRWSN_ASSERT(node.state == MacState::kAwaitingAck, "stray ACK timeout");
    node.state = MacState::kIdle;
    MRWSN_ASSERT(!node.queue.empty(), "timeout with an empty queue");
    arf_on_failure(head_link(n).id);
    ++node.retries;
    if (node.retries > params.retry_limit) {
      const Packet packet = node.queue.front();
      node.queue.pop_front();
      if (now_at(n) >= measure_start) ++tally_at(n, packet.flow).dropped;
      node.retries = 0;
      node.cw = params.cw_min;
    } else {
      node.cw = std::min(2 * (node.cw + 1) - 1, params.cw_max);
    }
    maybe_start_contention(n);
  }

  // --------------------------------------------------- message handlers
  void handle(const Message& msg) {
    switch (msg.type) {
      case MsgType::kSignalOn:
        on_signal_on(msg);
        return;
      case MsgType::kSignalOff:
        on_signal_off(msg);
        return;
      case MsgType::kFrameStart:
        on_frame_start(msg);
        return;
      case MsgType::kAckArrive:
        on_ack_arrive(msg);
        return;
    }
  }

  void on_signal_on(const Message& msg) {
    NodeState& node = nodes[msg.target];
    node.view_power += msg.a;
    ++node.view_count;
    for (Reception& rec : node.pending) {
      // The subtraction can dip a hair below zero from accumulated
      // rounding in view_power when the frame's own signal dominates the
      // sum; clamp — the residue is pure float drift, not interference.
      rec.max_interference_watt =
          std::max(rec.max_interference_watt,
                   std::max(0.0, node.view_power - rec.signal_watt));
    }
    evaluate(msg.target);
  }

  void on_signal_off(const Message& msg) {
    NodeState& node = nodes[msg.target];
    node.view_power -= msg.b;
    if (--node.view_count == 0) node.view_power = 0.0;
    if (msg.a > 0.0 && node.own_on_air == 0) set_nav(msg.target, msg.a);
    evaluate(msg.target);
  }

  void on_frame_start(const Message& msg) {
    NodeState& node = nodes[msg.target];
    Reception rec;
    rec.from = msg.origin;
    rec.kind = msg.kind;
    rec.link = msg.link;
    rec.rate = msg.rate;
    rec.signal_watt = msg.b;
    rec.max_interference_watt = std::max(0.0, node.view_power - msg.b);
    rec.corrupted =
        node.state == MacState::kTransmitting || node.own_on_air > 0;
    if (msg.kind == FrameKind::kData) {
      rec.packet = Packet{msg.flow, msg.hop, msg.a};
    } else if (msg.kind == FrameKind::kRts) {
      rec.planned_data_s = msg.a;
    }
    node.pending.push_back(rec);

    double airtime = 0.0;
    switch (msg.kind) {
      case FrameKind::kData:
        airtime = rate_airtime[msg.rate];
        break;
      case FrameKind::kRts:
        airtime = params.rts_duration_s;
        break;
      case FrameKind::kCts:
        airtime = params.cts_duration_s;
        break;
    }
    const double when = now_at(msg.target) + airtime;
    queue_at(msg.target)
        .schedule_at(when, EventKey{kEvalClass, msg.origin, msg.seq},
                     [this, target = msg.target, origin = msg.origin,
                      kind = msg.kind] { eval_reception(target, origin, kind); });
  }

  void eval_reception(std::uint32_t n, std::uint32_t origin, FrameKind kind) {
    NodeState& node = nodes[n];
    const auto it = std::find_if(node.pending.begin(), node.pending.end(),
                                 [&](const Reception& r) {
                                   return r.from == origin && r.kind == kind;
                                 });
    MRWSN_ASSERT(it != node.pending.end(),
                 "evaluating a reception that was never registered");
    const Reception rec = *it;
    node.pending.erase(it);

    const phy::PhyModel& phy = network.phy();
    const phy::Rate& rate = phy.rates()[rec.rate];
    const bool ok = !rec.corrupted &&
                    rec.signal_watt >= rate.rx_sensitivity_watt &&
                    phy.sinr(rec.signal_watt, rec.max_interference_watt) >=
                        rate.sinr_min_linear;
    const double now = now_at(n);
    switch (kind) {
      case FrameKind::kData:
        if (!ok) {
          ++stats_at(n).failed_receptions;
          return;  // no ACK; the transmitter times out
        }
        queue_at(n).schedule_at(
            now + params.sifs_s, EventKey{kTimerClass, n, node.seq++},
            [this, n, origin, packet = rec.packet] {
              ack_send(n, origin, packet);
            });
        return;
      case FrameKind::kRts:
        if (!ok) {
          ++stats_at(n).control_failures;
          return;  // no CTS; the initiator times out
        }
        queue_at(n).schedule_at(
            now + params.sifs_s, EventKey{kTimerClass, n, node.seq++},
            [this, n, origin, data_s = rec.planned_data_s] {
              cts_send(n, origin, data_s);
            });
        return;
      case FrameKind::kCts:
        if (node.response_timer != kNoEvent) {
          queue_at(n).cancel(node.response_timer);
          node.response_timer = kNoEvent;
        }
        if (!ok) {
          ++stats_at(n).control_failures;
          queue_at(n).schedule_at(now + params.slot_time_s,
                                  EventKey{kTimerClass, n, node.seq++},
                                  [this, n] { handle_ack_timeout(n); });
          return;
        }
        queue_at(n).schedule_at(now + params.sifs_s,
                                EventKey{kTimerClass, n, node.seq++},
                                [this, n] { transmit_data(n); });
        return;
    }
  }

  void on_ack_arrive(const Message& msg) {
    NodeState& node = nodes[msg.target];
    if (node.response_timer != kNoEvent) {
      queue_at(msg.target).cancel(node.response_timer);
      node.response_timer = kNoEvent;
    }
    complete_success(msg.target);
  }

  // ------------------------------------------------------------ traffic
  void enqueue_packet(std::uint32_t n, Packet packet) {
    NodeState& node = nodes[n];
    if (node.queue.size() >= params.queue_limit) {
      if (now_at(n) >= measure_start) ++tally_at(n, packet.flow).dropped;
      return;
    }
    node.queue.push_back(packet);
    maybe_start_contention(n);
  }

  void on_arrival(std::uint32_t f) {
    const FlowSpec& flow = flows[f];
    const auto source =
        static_cast<std::uint32_t>(network.link(flow.links.front()).tx);
    const double now = now_at(source);
    if (now >= measure_start) ++tally_at(source, f).generated;
    enqueue_packet(source, Packet{f, 0, now});
    queue_at(source).schedule_at(
        now + flow.arrival_interval_s,
        EventKey{kArrivalClass, source, nodes[source].seq++},
        [this, f] { on_arrival(f); });
  }

  // --------------------------------------------------------------- run
  SimReport run(double duration_s, double warmup_s) {
    MRWSN_REQUIRE(!ran, "a ParallelCsmaSimulator can only run once");
    MRWSN_REQUIRE(duration_s > 0.0 && warmup_s >= 0.0, "invalid durations");
    ran = true;
    measure_start = warmup_s;
    tallies.assign(part.num_regions(),
                   std::vector<FlowTally>(flows.size()));

    // Seed arrivals (serial): random phase from each flow's own stream.
    for (std::uint32_t f = 0; f < flows.size(); ++f) {
      const auto source =
          static_cast<std::uint32_t>(network.link(flows[f].links.front()).tx);
      Rng stream = node_stream(seed ^ 0xf10af10af10af10aULL, f);
      const double phase = stream.uniform(0.0, flows[f].arrival_interval_s);
      core.queue_of(part.region_of_node[source])
          .schedule_at(phase,
                       EventKey{kArrivalClass, source, nodes[source].seq++},
                       [this, f] { on_arrival(f); });
    }

    core.run_to(warmup_s);
    // Reset busy accounting at the measurement boundary.
    for (NodeState& node : nodes) {
      node.busy_accum = 0.0;
      if (node.busy_since >= 0.0) node.busy_since = warmup_s;
    }
    const double end = warmup_s + duration_s;
    core.run_to(end);

    SimReport report;
    report.measured_s = duration_s;
    for (const RegionStats& region : stats) {
      report.data_transmissions += region.data_transmissions;
      report.failed_receptions += region.failed_receptions;
      report.control_failures += region.control_failures;
    }
    report.node_idle.reserve(nodes.size());
    for (const NodeState& node : nodes) {
      double busy = node.busy_accum;
      if (node.busy_since >= 0.0) busy += end - node.busy_since;
      report.node_idle.push_back(
          std::clamp(1.0 - busy / duration_s, 0.0, 1.0));
    }
    report.flows =
        merge_flow_tallies(flows, tallies, duration_s, params.payload_bits);
    return report;
  }
};

ParallelCsmaSimulator::ParallelCsmaSimulator(const net::Network& network,
                                             MacParams params,
                                             ShardParams shard,
                                             std::uint64_t seed)
    : impl_(std::make_unique<Impl>(network, params, shard, seed)) {}

ParallelCsmaSimulator::~ParallelCsmaSimulator() = default;

void ParallelCsmaSimulator::add_flow(std::vector<net::LinkId> path_links,
                                     double demand_mbps) {
  check_flow_path(impl_->network, path_links, demand_mbps);
  FlowSpec flow;
  flow.links = std::move(path_links);
  flow.demand_mbps = demand_mbps;
  flow.arrival_interval_s =
      static_cast<double>(impl_->params.payload_bits) / (demand_mbps * 1e6);
  impl_->flows.push_back(std::move(flow));
}

SimReport ParallelCsmaSimulator::run(double duration_s, double warmup_s) {
  return impl_->run(duration_s, warmup_s);
}

std::size_t ParallelCsmaSimulator::workers() const {
  return impl_->core.workers();
}

}  // namespace mrwsn::mac
