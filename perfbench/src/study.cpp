// The scaled Fig. 4 study (Sec. 5.3 at 500 nodes): hop-count routing,
// incremental one-shot LP truth per flow, the parallel CSMA simulation
// with RTS/CTS off and on, and the five estimators scored against truth.

#include <cstring>

#include "common/scaled_fig4.hpp"
#include "core/available_bandwidth.hpp"
#include "core/estimation.hpp"
#include "mac/parallel_sim.hpp"
#include "routing/qos_router.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mrwsn;

namespace {

// The repository's standard instance: the CLI's `mrwsn fig4` default.
constexpr std::uint64_t kTopologySeed = 4;
constexpr double kMeasureS = 0.5;
constexpr double kWarmupS = 0.3;

mac::SimReport simulate(const StudyState& state,
                        const std::vector<StudyFlow>& flows, bool rts,
                        std::size_t threads, std::uint64_t seed) {
  mac::MacParams params;
  params.enable_rts_cts = rts;
  mac::ShardParams shard;
  shard.threads = threads;
  mac::ParallelCsmaSimulator sim(*state.network, params, shard, seed);
  for (const StudyFlow& flow : flows) sim.add_flow(flow.links, flow.demand_mbps);
  Span span("mac.ParallelCsmaSimulator.run");
  span.attr("rts", rts ? 1.0 : 0.0);
  span.attr("threads", static_cast<double>(
                           threads ? threads : util::configured_threads()));
  mac::SimReport report = sim.run(kMeasureS, kWarmupS);
  span.attr("data_tx", static_cast<double>(report.data_transmissions));
  span.attr("air_s", kMeasureS + kWarmupS);
  return report;
}

}  // namespace

StudyInputs make_study_inputs(std::uint64_t seed) {
  const benchx::Section52Setup setup =
      benchx::make_scaled_setup(kTopologySeed, 500, 8, 2.0, 12.0);
  StudyInputs in;
  for (const net::Node& node : setup.network.nodes())
    in.scenario.positions.push_back(node.position);
  in.requests = setup.requests;
  in.mac_seed = seed;
  std::uint64_t hash = fnv1a(in.scenario.positions.data(),
                             in.scenario.positions.size() * sizeof(geom::Point));
  for (const routing::FlowRequest& request : in.requests) {
    hash = fnv1a_value(request.src, hash);
    hash = fnv1a_value(request.dst, hash);
    hash = fnv1a_value(request.demand_mbps, hash);
  }
  in.digest = fnv1a_value(in.mac_seed, hash);
  return in;
}

StudyState build_study(const std::string& blob_path) {
  StudyState state;
  io::ScenarioFile scenario;
  {
    Span span("io.load_scenario");
    scenario = io::load_scenario(blob_path);
  }
  {
    Span span("net.Network");
    state.network = std::make_unique<net::Network>(io::build_network(scenario));
    span.attr("links", static_cast<double>(state.network->num_links()));
  }
  {
    Span span("core.PhysicalInterferenceModel");
    state.model = std::make_unique<core::PhysicalInterferenceModel>(*state.network);
  }
  return state;
}

StudyResult run_study(const StudyState& state, const StudyInputs& inputs) {
  StudyResult result;
  result.before = sample_process();
  const std::int64_t begin = now_ns();
  const net::Network& network = *state.network;
  const routing::QosRouter router(network, *state.model);
  const std::vector<double> all_idle(network.num_nodes(), 1.0);

  // Route each request by hop count and pin its LP truth against the flows
  // admitted before it (the incremental Sec. 5.3 protocol).
  std::vector<core::LinkFlow> background;
  double truth_s = 0.0;
  std::int64_t truth_cpu_ns = 0;
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    const routing::FlowRequest& request = inputs.requests[i];
    std::optional<net::Path> path;
    {
      Span span("routing.find_path", i + 1);
      path = router.find_path(request.src, request.dst,
                              routing::Metric::kHopCount, all_idle);
    }
    if (!path) continue;
    ++result.routed;
    StudyFlow flow;
    flow.links = path->links();
    flow.demand_mbps = request.demand_mbps;
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    try {
      Span span("core.max_path_bandwidth", i + 1);
      const core::AvailableBandwidthResult lp =
          core::max_path_bandwidth(*state.model, background, flow.links);
      flow.truth_mbps = lp.background_feasible ? lp.available_mbps : 0.0;
      // Full enumeration (small universes) is exact by construction;
      // column generation must carry the exact pricing certificate.
      flow.certified = lp.colgen.used ? lp.colgen.certified : true;
      span.attr("rounds", static_cast<double>(lp.colgen.rounds));
      span.attr("exact_rounds", static_cast<double>(lp.colgen.exact_rounds));
      span.attr("heuristic_cols", static_cast<double>(lp.colgen.heuristic_columns));
      span.attr("columns", static_cast<double>(lp.colgen.columns));
    } catch (const std::exception&) {
      ++result.errors;
    }
    truth_s += seconds_between(t0, now_ns());
    truth_cpu_ns += process_cpu_ns() - cpu0;
    if (!flow.certified) ++result.errors;
    background.push_back({flow.links, flow.demand_mbps});
    result.flows.push_back(std::move(flow));
  }
  result.truth_s = truth_s;
  result.truth_cpu_s = static_cast<double>(truth_cpu_ns) * 1e-9;

  std::vector<std::vector<double>> rms(5);
  for (const bool rts : {false, true}) {
    const std::int64_t t0 = now_ns();
    mac::SimReport report = simulate(state, result.flows, rts, 0, inputs.mac_seed);
    result.sim_wall_s += seconds_between(t0, now_ns());
    result.sim_air_s += kMeasureS + kWarmupS;

    std::vector<double> truth, est[5];
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      Span span("core.estimate", i + 1);
      const auto input = core::make_path_estimate_input(
          network, *state.model, result.flows[i].links, report.node_idle);
      truth.push_back(result.flows[i].truth_mbps);
      est[0].push_back(core::estimate_bottleneck_node(input));
      est[1].push_back(core::estimate_clique_constraint(input));
      est[2].push_back(core::estimate_min_clique_bottleneck(input));
      est[3].push_back(core::estimate_conservative_clique(input));
      est[4].push_back(core::estimate_expected_clique_time(input));
    }
    for (std::size_t e = 0; e < 5; ++e)
      rms[e].push_back(stats::rms_error(est[e], truth));
    (rts ? result.rts_on : result.rts_off) = std::move(report);
  }
  for (const auto& pair : rms) result.rms_error.push_back((pair[0] + pair[1]) / 2);
  result.study_s = seconds_between(begin, now_ns());
  result.after = sample_process();
  return result;
}

void check_same_report(const mac::SimReport& a, const mac::SimReport& b,
                       const std::string& what) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  bool equal = same(a.measured_s, b.measured_s) &&
               a.node_idle.size() == b.node_idle.size() &&
               a.flows.size() == b.flows.size() &&
               a.data_transmissions == b.data_transmissions &&
               a.failed_receptions == b.failed_receptions &&
               a.control_failures == b.control_failures;
  for (std::size_t i = 0; equal && i < a.node_idle.size(); ++i)
    equal = same(a.node_idle[i], b.node_idle[i]);
  for (std::size_t i = 0; equal && i < a.flows.size(); ++i) {
    const mac::FlowStats& x = a.flows[i];
    const mac::FlowStats& y = b.flows[i];
    equal = same(x.offered_mbps, y.offered_mbps) &&
            same(x.delivered_mbps, y.delivered_mbps) &&
            x.generated_packets == y.generated_packets &&
            x.delivered_packets == y.delivered_packets &&
            x.dropped_packets == y.dropped_packets &&
            same(x.mean_latency_s, y.mean_latency_s) &&
            same(x.p95_latency_s, y.p95_latency_s) &&
            same(x.max_latency_s, y.max_latency_s);
  }
  if (!equal) throw GateFailure(what + ": SimReports differ");
}

void verify_study(const StudyState& state, const StudyInputs& inputs,
                    const StudyResult& result) {
  if (result.routed != inputs.requests.size())
    throw GateFailure("study: only " + std::to_string(result.routed) + " of " +
                      std::to_string(inputs.requests.size()) + " flows routed");
  for (std::size_t i = 0; i < result.flows.size(); ++i)
    if (!result.flows[i].certified)
      throw GateFailure("study: LP truth of flow " + std::to_string(i + 1) +
                        " is not certified");
  check_same_report(result.rts_off,
                    simulate(state, result.flows, false, 1, inputs.mac_seed),
                    "CSMA RTS off, 1 thread vs configured");
  check_same_report(result.rts_on,
                    simulate(state, result.flows, true, 1, inputs.mac_seed),
                    "CSMA RTS on, 1 thread vs configured");
}

}  // namespace perfbench
