#include "common/scaled_fig4.hpp"

#include <chrono>
#include <vector>

#include "core/available_bandwidth.hpp"
#include "core/estimation.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "mac/parallel_sim.hpp"
#include "routing/qos_router.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mrwsn::benchx {

namespace {

struct RoutedFlow {
  std::vector<net::LinkId> links;
  double demand_mbps = 0.0;
  double lp_truth_mbps = 0.0;
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Measure node idle with the sharded CSMA simulator under all flows'
/// traffic, then score the five estimators on each flow's path against
/// the LP truth computed by the caller.
void run_one_mac_mode(const net::Network& network,
                      const core::InterferenceModel& model,
                      const std::vector<RoutedFlow>& flows,
                      const ScaledFig4Options& options, bool rts,
                      std::ostream& out) {
  mac::MacParams params;
  params.enable_rts_cts = rts;
  mac::ShardParams shard;
  shard.threads = options.threads;

  mac::ParallelCsmaSimulator sim(network, params, shard, options.seed);
  for (const RoutedFlow& flow : flows) sim.add_flow(flow.links, flow.demand_mbps);
  const auto sim_start = Clock::now();
  const mac::SimReport report = sim.run(options.measure_s, options.warmup_s);
  const double wall = seconds_since(sim_start);

  double idle_sum = 0.0;
  for (double idle : report.node_idle) idle_sum += idle;
  out << "\n=== RTS/CTS " << (rts ? "on" : "off") << " ===\n"
      << "measured " << options.measure_s << " s of CSMA air time in "
      << Table::num(wall, 2) << " s wall (" << sim.workers()
      << (sim.workers() == 1 ? " thread" : " threads") << "); mean node idle "
      << Table::num(idle_sum / static_cast<double>(report.node_idle.size()), 3)
      << ", data transmissions " << report.data_transmissions
      << ", failed receptions " << report.failed_receptions
      << ", control failures " << report.control_failures << "\n\n";

  struct Series {
    std::vector<double> truth, e10, e11, e12, e13, e15;
  } series;
  Table table({"flow", "LP truth", "Eq.10 node", "Eq.11 clique", "Eq.12 min",
               "Eq.13 conservative", "Eq.15 expected-T"});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto input = core::make_path_estimate_input(
        network, model, flows[i].links, report.node_idle);
    series.truth.push_back(flows[i].lp_truth_mbps);
    series.e10.push_back(core::estimate_bottleneck_node(input));
    series.e11.push_back(core::estimate_clique_constraint(input));
    series.e12.push_back(core::estimate_min_clique_bottleneck(input));
    series.e13.push_back(core::estimate_conservative_clique(input));
    series.e15.push_back(core::estimate_expected_clique_time(input));
    table.add_row({std::to_string(i + 1), Table::num(series.truth[i], 2),
                   Table::num(series.e10[i], 2), Table::num(series.e11[i], 2),
                   Table::num(series.e12[i], 2), Table::num(series.e13[i], 2),
                   Table::num(series.e15[i], 2)});
  }
  table.print(out);

  const struct {
    const char* name;
    const std::vector<double> Series::* member;
  } kSeries[] = {{"Eq.10 bottleneck node", &Series::e10},
                 {"Eq.11 clique constraint", &Series::e11},
                 {"Eq.12 min of both", &Series::e12},
                 {"Eq.13 conservative clique", &Series::e13},
                 {"Eq.15 expected clique time", &Series::e15}};
  Table errors({"estimator", "RMS error", "mean bias", "max |error|"});
  for (const auto& entry : kSeries) {
    const auto& values = series.*(entry.member);
    errors.add_row({entry.name,
                    Table::num(stats::rms_error(values, series.truth), 3),
                    Table::num(stats::mean_bias(values, series.truth), 3),
                    Table::num(stats::max_abs_error(values, series.truth), 3)});
  }
  out << '\n';
  errors.print(out);
}

}  // namespace

Section52Setup make_scaled_setup(std::uint64_t seed, std::size_t num_nodes,
                                 std::size_t num_flows, double demand_mbps,
                                 double target_degree) {
  Rng rng(seed);
  phy::PhyModel phy = phy::PhyModel::paper_default();
  auto positions = geom::connected_random_density(num_nodes, phy.max_tx_range(),
                                                  target_degree, rng);
  net::Network network(std::move(positions), std::move(phy));
  auto requests = draw_multihop_requests(network, rng, num_flows, demand_mbps);
  return Section52Setup{std::move(network), std::move(requests), seed};
}

int run_scaled_fig4(const ScaledFig4Options& options, std::ostream& out) {
  out << "Scaled Fig. 4 — estimators vs LP truth on a constant-density "
      << options.num_nodes << "-node topology (seed " << options.seed
      << ", " << options.num_flows << " flows of "
      << Table::num(options.demand_mbps, 1)
      << " Mbps, target degree " << Table::num(options.target_degree, 1)
      << ").\nIdle ratios come from the sharded parallel CSMA simulator, "
         "not an LP schedule.\n";

  const auto setup_start = Clock::now();
  const Section52Setup setup =
      make_scaled_setup(options.seed, options.num_nodes, options.num_flows,
                        options.demand_mbps, options.target_degree);
  const double setup_wall = seconds_since(setup_start);
  const net::Network& network = setup.network;
  out << "topology: " << network.num_nodes() << " nodes, "
      << network.num_links() << " links (" << Table::num(setup_wall, 2)
      << " s to draw and route)\n";

  core::PhysicalInterferenceModel model(network);
  routing::QosRouter router(network, model);
  const std::vector<double> all_idle(network.num_nodes(), 1.0);

  // Route every request by hop count and pin the LP ground truth against
  // the background of the flows admitted before it (the incremental
  // Section 5.3 protocol). All flows then load the channel together.
  std::vector<RoutedFlow> flows;
  std::vector<core::LinkFlow> background;
  const auto lp_start = Clock::now();
  for (const auto& request : setup.requests) {
    const auto path = router.find_path(request.src, request.dst,
                                       routing::Metric::kHopCount, all_idle);
    if (!path) continue;
    const auto lp = core::max_path_bandwidth(model, background, path->links());
    RoutedFlow flow;
    flow.links = path->links();
    flow.demand_mbps = request.demand_mbps;
    flow.lp_truth_mbps = lp.background_feasible ? lp.available_mbps : 0.0;
    background.push_back(core::LinkFlow{flow.links, flow.demand_mbps});
    flows.push_back(std::move(flow));
  }
  out << "LP ground truth for " << flows.size() << " flows in "
      << Table::num(seconds_since(lp_start), 2) << " s\n";

  if (options.run_without_rts) {
    run_one_mac_mode(network, model, flows, options, /*rts=*/false, out);
  }
  if (options.run_with_rts) {
    run_one_mac_mode(network, model, flows, options, /*rts=*/true, out);
  }
  return 0;
}

}  // namespace mrwsn::benchx
