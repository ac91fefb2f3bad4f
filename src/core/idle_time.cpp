#include "core/idle_time.hpp"

#include <algorithm>

#include "core/admission_engine.hpp"

namespace mrwsn::core {

IdleResult idle_ratios(const net::Network& network,
                       const AirtimeSchedule& schedule) {
  IdleResult result;
  result.total_airtime = schedule.total_airtime;
  result.feasible = schedule.total_airtime <= 1.0 + 1e-9;

  std::vector<double> busy(network.num_nodes(), 0.0);
  for (const ScheduledSet& entry : schedule.entries) {
    // Which nodes sense this slot as busy?
    for (net::NodeId n = 0; n < network.num_nodes(); ++n) {
      bool is_busy = false;
      double sensed_power = 0.0;
      for (net::LinkId link_id : entry.set.links) {
        const net::Link& link = network.link(link_id);
        if (link.tx == n || link.rx == n) {
          is_busy = true;
          break;
        }
        sensed_power += network.received_power(link.tx, n);
      }
      if (is_busy || sensed_power >= network.phy().cs_threshold_watt())
        busy[n] += entry.time_share;
    }
  }

  result.node_idle.resize(network.num_nodes());
  for (net::NodeId n = 0; n < network.num_nodes(); ++n)
    result.node_idle[n] = std::max(0.0, 1.0 - std::min(busy[n], 1.0));
  return result;
}

IdleResult schedule_idle_ratios(const net::Network& network,
                                const InterferenceModel& model,
                                std::span<const LinkFlow> background) {
  AdmissionEngine engine(model);
  for (const LinkFlow& flow : background) engine.add_background(flow);
  return idle_ratios(network, engine.background_schedule());
}

}  // namespace mrwsn::core
