// Microbenchmarks (google-benchmark) for the computational kernels:
// simplex solves, Bron–Kerbosch clique enumeration, physical independent-
// set enumeration, the full Eq. 6 pipeline, and the CSMA/CA simulator's
// event throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "common/scaled_fig4.hpp"
#include "core/admission_engine.hpp"
#include "core/available_bandwidth.hpp"
#include "core/bounds.hpp"
#include "mac/tdma.hpp"
#include "core/interference.hpp"
#include "core/scenarios.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "graph/undirected.hpp"
#include "lp/simplex.hpp"
#include "mac/event_queue.hpp"
#include "mac/parallel_sim.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrwsn;

void BM_SimplexRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  lp::Problem problem(lp::Objective::kMaximize);
  std::vector<lp::VarId> vars;
  for (int j = 0; j < n; ++j) vars.push_back(problem.add_variable(rng.uniform(0.0, 2.0)));
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (int j = 0; j < n; ++j) row.emplace_back(vars[j], rng.uniform(0.1, 2.0));
    problem.add_constraint(row, lp::Sense::kLessEqual, rng.uniform(2.0, 8.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(problem));
  }
}
BENCHMARK(BM_SimplexRandom)->Arg(8)->Arg(24)->Arg(64);

void BM_BronKerbosch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  graph::UndirectedGraph g(n);
  for (graph::Vertex u = 0; u < n; ++u)
    for (graph::Vertex v = u + 1; v < n; ++v)
      if (rng.uniform() < 0.4) g.add_edge(u, v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::maximal_cliques(g));
  }
}
BENCHMARK(BM_BronKerbosch)->Arg(12)->Arg(20)->Arg(28);

void BM_PhysicalMis(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const net::Network network(geom::chain(nodes, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i + 1 < nodes; ++i)
    universe.push_back(*network.find_link(i, i + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.maximal_independent_sets(universe));
  }
}
BENCHMARK(BM_PhysicalMis)->Arg(5)->Arg(8)->Arg(12);

// The uncached path of the same enumeration: a fresh model per iteration,
// so every call pays the full DFS (BM_PhysicalMis above hits the per-model
// memo after the first iteration, which is the production access pattern).
void BM_PhysicalMisCold(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const net::Network network(geom::chain(nodes, 70.0), phy::PhyModel::paper_default());
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i + 1 < nodes; ++i)
    universe.push_back(*network.find_link(i, i + 1));
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(network);
    benchmark::DoNotOptimize(model.maximal_independent_sets(universe));
  }
}
BENCHMARK(BM_PhysicalMisCold)->Arg(5)->Arg(8)->Arg(12);

// Eq. 6 solved end to end by column generation on a physical chain of
// `hops` links (a fresh model per iteration, so the solve does not hide
// behind the per-model memo). The chain's maximal-set count grows
// exponentially with length (~1.1k sets at 20 links, ~4.7k at 24), which
// is why no Eq. 6 solve enumerates them.
void BM_ColumnGen(benchmark::State& state) {
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  const net::Network network(geom::chain(hops + 1, 70.0), phy::PhyModel::paper_default());
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < hops; ++i)
    path.push_back(*network.find_link(i, i + 1));
  const std::vector<core::LinkFlow> background = {{{path[0]}, 1.0}};
  core::ColumnGenStats last;
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(network);
    const auto result = core::max_path_bandwidth(model, background, path);
    last = result.colgen;
    benchmark::DoNotOptimize(result);
  }
  state.counters["rounds"] = double(last.rounds);
  state.counters["columns"] = double(last.columns);
  state.counters["pool_cols"] = double(last.pool_hit_columns);
  state.counters["heur_cols"] = double(last.heuristic_columns);
  state.counters["exact_calls"] = double(last.exact_rounds);
}
BENCHMARK(BM_ColumnGen)->Arg(12)->Arg(20)->Arg(24)->Arg(28);

// ---------------------------------------------------------------------------
// The revised simplex on the column-generation master. Two views:
//
//   BM_MasterResolveRevised: the master isolated from the pricing oracle
//   — replay the colgen re-solve pattern (append columns, re-solve warm
//   from the previous basis, chained through a RevisedContext so a warm
//   re-solve reuses the previous factorization outright) over a
//   40+-link chain-shaped Eq. 6 master with a synthetic column pool.
//
//   BM_ColumnGenRevised: the full end-to-end solve on a chain of that
//   size, where the pricing oracle and interference model share the bill
//   with the master.
//
// Both keep their "Revised" suffix so they line up with their
// BENCH_history rows.
// ---------------------------------------------------------------------------

/// Deterministic Eq. 6-shaped column pool over a chain-like universe:
/// singleton coverage first, then 1-in-5 spatial-reuse columns with
/// multirate speeds — the column structure the pricing oracle emits on
/// long chains.
std::vector<std::vector<double>> make_master_pool(std::size_t links,
                                                  std::size_t total) {
  const double rates[] = {54.0, 36.0, 18.0, 6.0};
  Rng rng(23);
  std::vector<std::vector<double>> sets(total, std::vector<double>(links, 0.0));
  for (std::size_t s = 0; s < total; ++s) {
    for (std::size_t e = 0; e < links; ++e) {
      const bool on = s < links
                          ? e == s
                          : ((e % 5) == (s % 5) && rng.uniform() < 0.8) ||
                                rng.uniform() < 0.05;
      if (on) sets[s][e] = rates[rng.uniform_int(0, 3)];
    }
  }
  return sets;
}

lp::Problem build_master(const std::vector<std::vector<double>>& sets,
                         std::size_t use, std::size_t links) {
  lp::Problem problem(lp::Objective::kMaximize);
  const lp::VarId f = problem.add_variable(1.0, "f");
  std::vector<lp::VarId> lambda;
  for (std::size_t s = 0; s < use; ++s) lambda.push_back(problem.add_variable(0.0));
  std::vector<std::pair<lp::VarId, double>> share;
  for (lp::VarId id : lambda) share.emplace_back(id, 1.0);
  problem.add_constraint(share, lp::Sense::kLessEqual, 1.0);
  for (std::size_t e = 0; e < links; ++e) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t s = 0; s < use; ++s)
      if (sets[s][e] > 0.0) row.emplace_back(lambda[s], sets[s][e]);
    row.emplace_back(f, -1.0);
    // Link 0 carries the probe flow's unit demand; every other link sees a
    // small background demand (busy airtime from cross traffic), which also
    // keeps the master non-degenerate the way real scenarios are.
    problem.add_constraint(row, lp::Sense::kGreaterEqual,
                           e == 0 ? 1.0 : 0.01 + 0.002 * double(e % 7));
  }
  return problem;
}

void BM_MasterResolveRevised(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  // Second arg: pool depth in columns-per-link. Long colgen runs grow the
  // master pool well past 10 columns per link; each warm re-solve re-uses
  // the previous factorization and prices a rotating window.
  const std::size_t total = static_cast<std::size_t>(state.range(1)) * links;
  const auto sets = make_master_pool(links, total);
  // Pre-build the whole master sequence: the timed loop measures the LP
  // solves alone, not the Problem construction the pricing loop performs
  // per round.
  std::vector<lp::Problem> masters;
  for (std::size_t use = links; use <= total; use += 4)
    masters.push_back(build_master(sets, use, links));
  for (auto _ : state) {
    lp::RevisedContext context;
    lp::Basis basis;
    double objective = 0.0;
    for (const lp::Problem& problem : masters) {
      lp::SolveOptions options;
      options.warm_start = basis.empty() ? nullptr : &basis;
      options.context = &context;
      const lp::Solution solution = lp::solve(problem, options);
      basis = solution.basis;
      objective = solution.objective;
    }
    benchmark::DoNotOptimize(objective);
  }
}
BENCHMARK(BM_MasterResolveRevised)
    ->Args({40, 10})
    ->Args({40, 30})
    ->Args({60, 10});

void BM_ColumnGenRevised(benchmark::State& state) {
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  const net::Network network(geom::chain(hops + 1, 70.0),
                             phy::PhyModel::paper_default());
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < hops; ++i)
    path.push_back(*network.find_link(i, i + 1));
  const std::vector<core::LinkFlow> background = {{{path[0]}, 1.0}};
  const core::ColumnGenOptions options;
  core::ColumnGenStats last;
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(network);
    const auto result =
        core::max_path_bandwidth(model, background, path, options);
    last = result.colgen;
    benchmark::DoNotOptimize(result);
  }
  state.counters["rounds"] = double(last.rounds);
  state.counters["columns"] = double(last.columns);
  state.counters["pool_cols"] = double(last.pool_hit_columns);
  state.counters["heur_cols"] = double(last.heuristic_columns);
  state.counters["exact_calls"] = double(last.exact_rounds);
}
BENCHMARK(BM_ColumnGenRevised)->Arg(40);

// The scaled Fig. 4 study's standard instance (`mrwsn fig4` defaults:
// 500 nodes, topology seed 4, 8 flows routed by hop count), shared by the
// pricing and parallel CSMA benchmarks below.
struct ScaledFig4Bench {
  benchx::Section52Setup setup;
  std::vector<std::vector<net::LinkId>> paths;

  /// Every link of the routed paths, sorted and deduplicated: flow 8's
  /// pricing universe over the seven flows routed before it (66 links).
  std::vector<net::LinkId> union_universe() const {
    std::vector<net::LinkId> universe;
    for (const auto& path : paths)
      universe.insert(universe.end(), path.begin(), path.end());
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    return universe;
  }
};

const ScaledFig4Bench& scaled_fig4_bench() {
  // Topology draw and routing are one-time setup, not part of the timed
  // region (leaked deliberately: benchmarks never tear down).
  static const ScaledFig4Bench* cached = [] {
    auto* s = new ScaledFig4Bench{
        benchx::make_scaled_setup(/*seed=*/4, /*num_nodes=*/500,
                                  /*num_flows=*/8, /*demand_mbps=*/2.0,
                                  /*target_degree=*/12.0),
        {}};
    core::PhysicalInterferenceModel model(s->setup.network);
    routing::QosRouter router(s->setup.network, model);
    const std::vector<double> all_idle(s->setup.network.num_nodes(), 1.0);
    for (const auto& request : s->setup.requests) {
      const auto path = router.find_path(request.src, request.dst,
                                         routing::Metric::kHopCount, all_idle);
      if (path) s->paths.push_back(path->links());
    }
    return s;
  }();
  return *cached;
}

// Cold set-up of the physical model on the scaled Fig. 4 positions
// (topology seed 4): net::Network's link discovery plus the eager rx-power
// table of core::PhysicalInterferenceModel. Snapshot loads, the admission
// service's start-up and add_node refills pay this. The arg is the node
// count.
void BM_TopologyBuild(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const benchx::Section52Setup setup =
      benchx::make_scaled_setup(/*seed=*/4, nodes, /*num_flows=*/8,
                                /*demand_mbps=*/2.0, /*target_degree=*/12.0);
  std::vector<geom::Point> positions;
  for (const net::Node& node : setup.network.nodes())
    positions.push_back(node.position);
  for (auto _ : state) {
    const net::Network network(positions, phy::PhyModel::paper_default());
    const core::PhysicalInterferenceModel model(network);
    benchmark::DoNotOptimize(model.rx_power(0, 1));
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(500)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Pricing oracles head to head (the tiered-pricing tentpole): one pricing
// call over a chain universe with colgen-shaped duals — the exact
// branch-and-bound (Tier 2) vs the multi-start greedy + local-search
// heuristic (Tier 1). Same universe, same weights; the gap between the two
// is what each heuristic-served round saves the column-generation loop.
// ---------------------------------------------------------------------------

struct PricingFixture {
  net::Network network;
  core::PhysicalInterferenceModel model;
  std::vector<net::LinkId> universe;
  std::vector<double> weights;

  explicit PricingFixture(std::size_t hops)
      : network(geom::chain(hops + 1, 70.0), phy::PhyModel::paper_default()),
        model(network) {
    for (std::size_t i = 0; i < hops; ++i)
      universe.push_back(*network.find_link(i, i + 1));
    // Dual-shaped weights: positive everywhere with a short period, like
    // the link shadow prices mid-solve on a loaded chain.
    weights.resize(universe.size());
    for (std::size_t k = 0; k < weights.size(); ++k)
      weights[k] = 0.2 + 0.05 * double(k % 7);
  }
};

// The heuristic tier's starts per call, as the column-generation driver
// runs it.
const std::size_t kDriverStarts = core::ColumnGenOptions{}.heuristic_starts;

void BM_PricingExact(benchmark::State& state) {
  const PricingFixture fixture(static_cast<std::size_t>(state.range(0)));
  // Warm the per-universe pricing context outside the timed loop, the way
  // every round after the first sees it.
  fixture.model.max_weight_independent_set(fixture.universe, fixture.weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.model.max_weight_independent_set(
        fixture.universe, fixture.weights));
  }
}
BENCHMARK(BM_PricingExact)->Arg(24)->Arg(40);

void BM_PricingHeuristic(benchmark::State& state) {
  const PricingFixture fixture(static_cast<std::size_t>(state.range(0)));
  fixture.model.heuristic_max_weight_independent_set(
      fixture.universe, fixture.weights, 0.0, kDriverStarts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.model.heuristic_max_weight_independent_set(
        fixture.universe, fixture.weights, 0.0, kDriverStarts));
  }
}
BENCHMARK(BM_PricingHeuristic)->Arg(24)->Arg(40);

// The same Tier 1 call on the scaled Fig. 4 study's own universe:
// `mrwsn fig4`'s standard instance, flow 8 priced over the seven flows
// routed before it — 66 links of crossing multihop paths, where the chain
// above is one-dimensional. The study's truth prices 120 of its 127
// rounds through this oracle. Same dual-shaped weights as the chain.
struct ScaledFig4Universe {};

void BM_PricingHeuristic(benchmark::State& state, ScaledFig4Universe) {
  const ScaledFig4Bench& bench = scaled_fig4_bench();
  const core::PhysicalInterferenceModel model(bench.setup.network);
  const std::vector<net::LinkId> universe = bench.union_universe();
  std::vector<double> weights(universe.size());
  for (std::size_t k = 0; k < weights.size(); ++k)
    weights[k] = 0.2 + 0.05 * double(k % 7);
  model.heuristic_max_weight_independent_set(universe, weights, 0.0,
                                             kDriverStarts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.heuristic_max_weight_independent_set(
        universe, weights, 0.0, kDriverStarts));
  }
}
BENCHMARK_CAPTURE(BM_PricingHeuristic, fig4_seed4, ScaledFig4Universe{});

// The exact (Tier 2) call on the same universe and weights: the
// branch-and-bound that certifies the study's truth once the heuristic
// dries up.
void BM_PricingExact(benchmark::State& state, ScaledFig4Universe) {
  const ScaledFig4Bench& bench = scaled_fig4_bench();
  const core::PhysicalInterferenceModel model(bench.setup.network);
  const std::vector<net::LinkId> universe = bench.union_universe();
  std::vector<double> weights(universe.size());
  for (std::size_t k = 0; k < weights.size(); ++k)
    weights[k] = 0.2 + 0.05 * double(k % 7);
  model.max_weight_independent_set(universe, weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.max_weight_independent_set(universe, weights));
  }
}
BENCHMARK_CAPTURE(BM_PricingExact, fig4_seed4, ScaledFig4Universe{});

// Phase A on an undeliverable background: the scaled Fig. 4 study's flow 8
// priced over flows 1-7 at their full 2 Mbps, which the network cannot
// carry together, so the Eq. 6 answer is "no bandwidth" and all of the
// solve is phase A proving it. The model stays warm across iterations (its
// pricing context is built once), as it is for every flow after the first
// in the study. `rounds` and `exact_calls` count the pricing rounds and
// exact B&B calls phase A takes before its Lagrangian bound proves the
// background undeliverable.
void BM_PhaseAUndeliverable(benchmark::State& state) {
  const ScaledFig4Bench& bench = scaled_fig4_bench();
  const core::PhysicalInterferenceModel model(bench.setup.network);
  std::vector<core::LinkFlow> background;
  for (std::size_t f = 0; f + 1 < bench.paths.size(); ++f)
    background.push_back({bench.paths[f], 2.0});
  const std::vector<net::LinkId>& path = bench.paths.back();
  core::ColumnGenStats last;
  for (auto _ : state) {
    const auto result = core::max_path_bandwidth(model, background, path);
    if (result.background_feasible || !result.colgen.certified)
      state.SkipWithError("flow 8's background must be proved undeliverable");
    last = result.colgen;
    benchmark::DoNotOptimize(result);
  }
  state.counters["rounds"] = double(last.rounds);
  state.counters["exact_calls"] = double(last.exact_rounds);
}
BENCHMARK(BM_PhaseAUndeliverable)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Batched admission engine (the shared-cache scenario service tentpole):
// replay the same 50-query admission sequence on a ~40-link random
// topology.
//
//   BM_BatchAdmissionCold: the pre-engine protocol — every query pays a
//   fresh PhysicalInterferenceModel (cold conflict matrices) and a cold
//   max_path_bandwidth() solve against the accumulated background.
//
//   BM_BatchAdmissionWarm: one core::AdmissionEngine per iteration — the
//   model caches, the cross-query column pool, and the dual-simplex
//   background re-solves amortize the whole replay.
//
// Decisions (and objectives, to 1e-6) are identical by construction; the
// parity tests in tests/core/admission_engine_test.cpp enforce that.
// ---------------------------------------------------------------------------

struct AdmissionReplay {
  net::Network network;
  std::vector<core::AdmissionQuery> queries;
};

/// Fewest-hop path via breadth-first search over the link adjacency.
std::vector<net::LinkId> replay_bfs_path(const net::Network& net,
                                         net::NodeId src, net::NodeId dst) {
  std::vector<int> prev(net.num_nodes(), -1);
  std::vector<net::NodeId> frontier{src};
  prev[src] = static_cast<int>(src);
  while (!frontier.empty() && prev[dst] < 0) {
    std::vector<net::NodeId> next;
    for (const net::NodeId u : frontier)
      for (net::NodeId v = 0; v < net.num_nodes(); ++v)
        if (prev[v] < 0 && net.find_link(u, v)) {
          prev[v] = static_cast<int>(u);
          next.push_back(v);
        }
    frontier = std::move(next);
  }
  std::vector<net::LinkId> links;
  if (prev[dst] < 0) return links;
  for (net::NodeId v = dst; v != src; v = static_cast<net::NodeId>(prev[v]))
    links.push_back(*net.find_link(static_cast<net::NodeId>(prev[v]), v));
  std::reverse(links.begin(), links.end());
  return links;
}

/// Deterministic replay scenario: the first connected random placement
/// (seeds 1, 2, ...) whose network has at least 40 links, plus 50 routed
/// queries with varied demands. 26 nodes on this floor plan yields a
/// ~190-link topology, dense enough that cold per-query solves pay real
/// pricing work for the engine to amortize.
AdmissionReplay make_admission_replay() {
  const phy::PhyModel phy = phy::PhyModel::paper_default();
  std::uint64_t seed = 1;
  while (true) {
    Rng rng(seed);
    auto points = geom::connected_random_rectangle(26, 400.0, 600.0,
                                                   phy.max_tx_range(), rng);
    net::Network network(std::move(points), phy);
    if (network.num_links() < 40) {
      ++seed;
      continue;
    }
    AdmissionReplay replay{std::move(network), {}};
    const std::size_t nodes = replay.network.num_nodes();
    while (replay.queries.size() < 50) {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, int(nodes) - 1));
      const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, int(nodes) - 1));
      if (src == dst) continue;
      auto path = replay_bfs_path(replay.network, src, dst);
      if (path.empty()) continue;
      replay.queries.push_back(
          core::AdmissionQuery{std::move(path), rng.uniform(0.5, 3.0)});
    }
    return replay;
  }
}

void BM_BatchAdmissionCold(benchmark::State& state) {
  const AdmissionReplay replay = make_admission_replay();
  constexpr double kSlack = 1e-6;
  std::size_t admitted = 0;
  for (auto _ : state) {
    std::vector<core::LinkFlow> background;
    admitted = 0;
    for (const core::AdmissionQuery& query : replay.queries) {
      core::PhysicalInterferenceModel model(replay.network);
      const auto result =
          core::max_path_bandwidth(model, background, query.path);
      if (result.background_feasible &&
          result.available_mbps + kSlack >= query.demand_mbps) {
        background.push_back(core::LinkFlow{query.path, query.demand_mbps});
        ++admitted;
      }
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["links"] = double(replay.network.num_links());
  state.counters["admitted"] = double(admitted);
}
BENCHMARK(BM_BatchAdmissionCold)->Unit(benchmark::kMillisecond);

void BM_BatchAdmissionWarm(benchmark::State& state) {
  const AdmissionReplay replay = make_admission_replay();
  std::size_t admitted = 0;
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(replay.network);
    core::AdmissionEngine engine(model);
    admitted = 0;
    for (const core::AdmissionQuery& query : replay.queries)
      if (engine.commit(query.path, query.demand_mbps).admitted) ++admitted;
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["links"] = double(replay.network.num_links());
  state.counters["admitted"] = double(admitted);
}
BENCHMARK(BM_BatchAdmissionWarm)->Unit(benchmark::kMillisecond);

// BM_BatchAdmissionSequential: the same replay through the calls
// routing::AdmissionController::run makes — query(), then
// add_background() when the demand fits. Each query() publishes the
// flow staged by the request before it (and the columns the previous
// read shelved), so this is the publish-per-read cost of the staging
// surface that BM_BatchAdmissionWarm's commit() loop does not show.
void BM_BatchAdmissionSequential(benchmark::State& state) {
  const AdmissionReplay replay = make_admission_replay();
  std::size_t admitted = 0;
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(replay.network);
    core::AdmissionEngine engine(model);
    admitted = 0;
    for (const core::AdmissionQuery& query : replay.queries) {
      if (!engine.query(query.path, query.demand_mbps).admitted) continue;
      engine.add_background(core::LinkFlow{query.path, query.demand_mbps});
      ++admitted;
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["links"] = double(replay.network.num_links());
  state.counters["admitted"] = double(admitted);
}
BENCHMARK(BM_BatchAdmissionSequential)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_ChurnReadmit{Incremental,Rebuild}: topology churn on a 100-node chain
// with committed background flows, re-admitting a query after every event.
//
//   Incremental: one long-lived engine; each event goes through
//   TopologyDelta + AdmissionEngine::apply_topology_delta (in-place model
//   patch, pool revalidation, warm dual re-solve of the repaired master).
//
//   Rebuild: the pre-churn protocol — the same mutations applied to a
//   twin network, but every event pays a cold PhysicalInterferenceModel
//   over the mutated topology plus a cold engine replaying the background.
//
// The churn script is an involution (each move/power change is undone
// later in the script), so every iteration starts from the same topology.
// The differential fuzz suite (tests/core/topology_delta_fuzz_test.cpp)
// pins the two paths to 1e-6 LP parity; this pair measures the speedup.
// ---------------------------------------------------------------------------

struct ChurnScript {
  net::Network network;
  std::vector<core::LinkFlow> background;
  std::vector<net::LinkId> readmit_path;
  double original_power_20 = 0.0;
};

std::vector<net::LinkId> churn_chain_path(const net::Network& net,
                                          std::size_t first,
                                          std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = first; i < first + hops; ++i)
    links.push_back(*net.find_link(i, i + 1));
  return links;
}

ChurnScript make_churn_script() {
  ChurnScript script{
      net::Network(geom::chain(100, 70.0), phy::PhyModel::paper_default()),
      {},
      {},
      0.0};
  for (const std::size_t first : {5u, 25u, 45u, 65u, 85u})
    script.background.push_back(
        core::LinkFlow{churn_chain_path(script.network, first, 3), 0.4});
  script.readmit_path = churn_chain_path(script.network, 60, 2);
  script.original_power_20 = script.network.node_tx_power(20);
  return script;
}

/// Apply churn event `i` (of 6) through the delta; the script returns the
/// topology to its initial state by the end of each pass.
core::ModelRepair churn_event(core::TopologyDelta& delta, std::size_t i,
                              double original_power_20) {
  switch (i) {
    case 0: return delta.move_node(50, {3515.0, 25.0});
    case 1: return delta.set_power(20, 0.15);
    case 2: return delta.move_node(75, {5255.0, -20.0});
    case 3: return delta.move_node(50, {3500.0, 0.0});
    case 4: return delta.set_power(20, original_power_20);
    default: return delta.move_node(75, {5250.0, 0.0});
  }
}

void BM_ChurnReadmitIncremental(benchmark::State& state) {
  ChurnScript script = make_churn_script();
  core::PhysicalInterferenceModel model(script.network);
  core::TopologyDelta delta(&script.network, &model);
  core::AdmissionEngine engine(model);
  for (const core::LinkFlow& flow : script.background)
    engine.add_background(flow);
  engine.snapshot();

  std::size_t admitted = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 6; ++i) {
      engine.apply_topology_delta(
          [&] { return churn_event(delta, i, script.original_power_20); });
      if (engine.query(script.readmit_path, 0.25).admitted) ++admitted;
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["nodes"] = double(script.network.num_nodes());
  state.counters["events"] = 6.0;
  state.counters["repairs"] = double(engine.stats().topology_repairs);
}
BENCHMARK(BM_ChurnReadmitIncremental)->Unit(benchmark::kMillisecond);

void BM_ChurnReadmitRebuild(benchmark::State& state) {
  ChurnScript script = make_churn_script();
  // The twin still needs a model for TopologyDelta to patch — the point
  // is that the cold path then throws it away and rebuilds per event.
  core::PhysicalInterferenceModel scratch(script.network);
  core::TopologyDelta delta(&script.network, &scratch);

  std::size_t admitted = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 6; ++i) {
      churn_event(delta, i, script.original_power_20);
      core::PhysicalInterferenceModel fresh(script.network);
      core::AdmissionEngine cold(fresh);
      for (const core::LinkFlow& flow : script.background)
        cold.add_background(flow);
      if (cold.query(script.readmit_path, 0.25).admitted) ++admitted;
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["nodes"] = double(script.network.num_nodes());
  state.counters["events"] = 6.0;
}
BENCHMARK(BM_ChurnReadmitRebuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_CommitLatency/<columns>: writer-path latency of the concurrent
// admission service at a large committed background. Setup synthesizes
// `columns` distinct rate-coupled independent sets over the links the
// replay queries touch (greedy feasibility over random link orders,
// AdmissionEngine::preload_columns), commits a small demand along every
// replay path so the pool columns fit the background master, and publishes
// once cold. The measured op is one AdmissionEngine::commit() of a tiny
// path demand — master solve + row re-solve + snapshot publication — the
// writer path that deep-copy snapshots made O(background).
// ---------------------------------------------------------------------------

/// Distinct feasible rate-coupled sets over `universe`, built by greedy
/// insertion along random link orders, each member at the highest rate the
/// joint set still supports (near-maximal columns; dominated near-
/// duplicates would only stall the master's simplex). mbps is left zero:
/// preload_columns recomputes it from the model's rate table.
std::vector<core::IndependentSet> synthesize_columns(
    const core::InterferenceModel& model,
    const std::vector<net::LinkId>& universe, std::size_t count, Rng& rng) {
  std::vector<net::LinkId> order = universe;
  std::set<std::vector<std::uint64_t>> seen;
  std::vector<core::IndependentSet> out;
  for (std::size_t attempt = 0; out.size() < count && attempt < count * 64;
       ++attempt) {
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<int>(i)))]);
    core::IndependentSet set;
    const std::size_t cap =
        2 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    for (const net::LinkId link : order) {
      const auto alone = model.max_rate_alone(link);
      if (!alone) continue;
      std::vector<net::LinkId> links = set.links;
      std::vector<phy::RateIndex> rates = set.rates;
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(links.begin(), links.end(), link) - links.begin());
      links.insert(links.begin() + static_cast<std::ptrdiff_t>(pos), link);
      rates.insert(rates.begin() + static_cast<std::ptrdiff_t>(pos), *alone);
      bool supported = false;
      for (int rate = static_cast<int>(*alone); rate >= 0; --rate) {
        rates[pos] = static_cast<phy::RateIndex>(rate);
        if (model.supports(links, rates)) {
          supported = true;
          break;
        }
      }
      if (!supported) continue;
      set.links = std::move(links);
      set.rates = std::move(rates);
      if (set.links.size() >= cap) break;
    }
    if (set.links.size() < 2) continue;
    if (!seen.insert(core::column_signature(set)).second) continue;
    set.mbps.assign(set.links.size(), 0.0);
    out.push_back(std::move(set));
  }
  return out;
}

struct CommitRig {
  AdmissionReplay replay;
  std::unique_ptr<core::PhysicalInterferenceModel> model;
  std::unique_ptr<core::AdmissionEngine> engine;
  std::vector<core::LinkFlow> baseline;  ///< background before any commit
  std::size_t preloaded = 0;

  explicit CommitRig(AdmissionReplay r) : replay(std::move(r)) {}

  /// Restore the engine to its post-build state: drop every measured
  /// commit, keep the warm column pool, re-admit the baseline demand, and
  /// republish. Run between benchmark repetitions so each one measures
  /// the same commit sequence from the same state instead of compounding
  /// the previous repetitions' commits.
  void reset() {
    engine->evict();
    for (const core::LinkFlow& flow : baseline) engine->add_background(flow);
    engine->snapshot();
  }
};

CommitRig& commit_rig(std::size_t target_columns) {
  static std::map<std::size_t, std::unique_ptr<CommitRig>> memo;
  auto it = memo.find(target_columns);
  if (it != memo.end()) return *it->second;

  // A long *jittered* chain rather than the dense replay floor plan:
  // banded interference keeps exact pricing certificates cheap while the
  // number of distinct feasible spaced subsets grows combinatorially with
  // chain length, so pools of thousands of genuinely distinct columns
  // exist. The jitter (and the varied per-link demands below) matters: on
  // a perfectly regular chain with uniform demand, translation symmetry
  // makes the master so dual-degenerate that simplex stalls against its
  // pivot budget and column generation never certifies convergence.
  constexpr std::size_t kNodes = 160;
  Rng rng(target_columns * 2654435761u + 11);
  auto points = geom::chain(kNodes, 70.0);
  for (auto& point : points) {
    point.x += rng.uniform(-12.0, 12.0);
    point.y += rng.uniform(-25.0, 25.0);
  }
  AdmissionReplay replay{
      net::Network(std::move(points), phy::PhyModel::paper_default()), {}};
  std::vector<net::LinkId> forward;
  for (std::size_t i = 0; i + 1 < kNodes; ++i)
    if (const auto link = replay.network.find_link(i, i + 1))
      forward.push_back(*link);
  while (replay.queries.size() < 50) {
    const auto hops = static_cast<std::size_t>(2 + rng.uniform_int(0, 4));
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(forward.size() - hops)));
    std::vector<net::LinkId> path(forward.begin() + first,
                                  forward.begin() + first + hops);
    replay.queries.push_back(core::AdmissionQuery{std::move(path), 0.1});
  }

  auto rig = std::make_unique<CommitRig>(std::move(replay));
  rig->model =
      std::make_unique<core::PhysicalInterferenceModel>(rig->replay.network);
  core::AdmissionEngineOptions options;
  options.colgen.max_columns =
      std::max<std::size_t>(32768, 4 * target_columns);
  rig->engine = std::make_unique<core::AdmissionEngine>(*rig->model, options);

  // Preload the pool, then put (varied) background demand on every
  // forward link: every synthesized column's links are background rows,
  // so the whole pool enters the background master on the cold solve.
  const auto columns =
      synthesize_columns(*rig->model, forward, target_columns, rng);
  rig->preloaded = rig->engine->preload_columns(columns);
  for (const net::LinkId link : forward)
    rig->baseline.push_back(
        core::LinkFlow{{link}, 0.002 * (1.0 + 4.0 * rng.uniform(0.0, 1.0))});
  for (const core::LinkFlow& flow : rig->baseline)
    rig->engine->add_background(flow);
  rig->engine->snapshot();  // cold background solve + first publication
  return *memo.emplace(target_columns, std::move(rig)).first->second;
}

void BM_CommitLatency(benchmark::State& state) {
  CommitRig& rig = commit_rig(static_cast<std::size_t>(state.range(0)));
  if (rig.engine->published()->background.size() > rig.baseline.size())
    rig.reset();  // un-timed: repetitions measure identical commit streams
  std::size_t i = 0;
  std::size_t master_columns = 0;
  for (auto _ : state) {
    const core::AdmissionQuery& query =
        rig.replay.queries[i++ % rig.replay.queries.size()];
    const core::AdmissionAnswer answer = rig.engine->commit(query.path, 1e-5);
    master_columns = answer.master_columns;
    benchmark::DoNotOptimize(answer.admitted);
  }
  state.counters["pool"] = double(rig.engine->stats().pool_columns);
  state.counters["preloaded"] = double(rig.preloaded);
  state.counters["master_cols"] = double(master_columns);
  state.counters["links"] = double(rig.replay.network.num_links());
}
BENCHMARK(BM_CommitLatency)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(12);

// Cost of materializing the bitset conflict matrix over a chain universe
// (one interferes() SINR evaluation per couple pair on a fresh model).
void BM_ConflictMatrixBuild(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const net::Network network(geom::chain(nodes, 70.0), phy::PhyModel::paper_default());
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i + 1 < nodes; ++i)
    universe.push_back(*network.find_link(i, i + 1));
  for (auto _ : state) {
    core::PhysicalInterferenceModel model(network);
    benchmark::DoNotOptimize(model.conflict_matrix(universe));
  }
}
BENCHMARK(BM_ConflictMatrixBuild)->Arg(8)->Arg(12);

// The same cold build over the scaled Fig. 4 study's union universe, the
// one BM_PricingHeuristic/fig4_seed4 prices: 66 links scattered over a
// 500-node network whose link ids span thousands. Each iteration also pays
// the fresh model's rx-power table.
void BM_ConflictMatrixBuild(benchmark::State& state, ScaledFig4Universe) {
  const ScaledFig4Bench& bench = scaled_fig4_bench();
  const std::vector<net::LinkId> universe = bench.union_universe();
  for (auto _ : state) {
    const core::PhysicalInterferenceModel model(bench.setup.network);
    benchmark::DoNotOptimize(model.conflict_matrix(universe));
  }
}
BENCHMARK_CAPTURE(BM_ConflictMatrixBuild, fig4_seed4, ScaledFig4Universe{})
    ->Unit(benchmark::kMillisecond);

// Domination filtering over synthetic set collections (sorted link arrays,
// discrete per-link rates) — the remove_dominated rewrite's counter.
void BM_RemoveDominated(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  const double mbps_table[] = {54.0, 36.0, 18.0, 6.0};
  std::vector<core::IndependentSet> sets(count);
  for (auto& set : sets) {
    for (net::LinkId link = 0; link < 12; ++link) {
      if (rng.uniform() >= 0.4) continue;
      const auto r = static_cast<phy::RateIndex>(rng.uniform(0.0, 4.0));
      set.links.push_back(link);
      set.rates.push_back(r);
      set.mbps.push_back(mbps_table[r]);
    }
  }
  for (auto _ : state) {
    auto copy = sets;
    benchmark::DoNotOptimize(core::remove_dominated(std::move(copy)));
  }
}
BENCHMARK(BM_RemoveDominated)->Arg(64)->Arg(256);

// Eq. 9 upper bound end-to-end, including the MRWSN_THREADS fan-out over
// fixed-rate assignments (serial on 1-core hosts or MRWSN_THREADS=1).
void BM_CliqueUpperBound(benchmark::State& state) {
  core::ScenarioTwo scenario = core::make_scenario_two();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::clique_upper_bound(scenario.model, {}, scenario.chain));
  }
}
BENCHMARK(BM_CliqueUpperBound);

void BM_ScenarioTwoPipeline(benchmark::State& state) {
  for (auto _ : state) {
    core::ScenarioTwo scenario = core::make_scenario_two();
    benchmark::DoNotOptimize(
        core::max_path_bandwidth(scenario.model, {}, scenario.chain));
  }
}
BENCHMARK(BM_ScenarioTwoPipeline);

void BM_JointBandwidthLp(benchmark::State& state) {
  const net::Network network(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  std::vector<std::vector<net::LinkId>> paths;
  paths.push_back({*network.find_link(0, 1), *network.find_link(1, 2)});
  paths.push_back({*network.find_link(2, 3), *network.find_link(3, 4)});
  paths.push_back({*network.find_link(4, 5)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::max_joint_bandwidth(model, {}, paths));
  }
}
BENCHMARK(BM_JointBandwidthLp);

void BM_TdmaSimulatedQuarterSecond(benchmark::State& state) {
  const net::Network network(geom::chain(5, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < 4; ++i) path.push_back(*network.find_link(i, i + 1));
  const auto lp = core::max_path_bandwidth(model, {}, path);
  for (auto _ : state) {
    mac::TdmaSimulator sim(network, model, lp.schedule, mac::TdmaParams{}, 3);
    sim.add_flow(path, 8.0);
    benchmark::DoNotOptimize(sim.run(0.25, 0.05));
  }
}
BENCHMARK(BM_TdmaSimulatedQuarterSecond);

/// The event-queue churn workload, shaped like the simulators' event
/// pattern: a rotating window of pending timers, two thirds of which are
/// cancelled and rescheduled before they fire (backoff freezing),
/// deadlines mostly near-term (MAC timers) with a quarter far out
/// (periodic arrivals), closures a capture or two past std::function's
/// small buffer.
constexpr int kChurnTicks = 20000;
constexpr int kChurnWindow = 64;

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    mac::EventQueue q;
    std::uint64_t fired = 0;
    std::vector<mac::EventId> window(kChurnWindow, 0);
    std::vector<char> live(kChurnWindow, 0);
    double t = 0.0;
    for (int i = 0; i < kChurnTicks; ++i) {
      const int slot = i % kChurnWindow;
      if (live[slot] && i % 3 != 0) q.cancel(window[slot]);
      const double when = (i % 4 == 0) ? t + 50.0 : t + 0.75;
      window[slot] = q.schedule_at(when, [&fired, t, i] {
        fired += static_cast<std::uint64_t>(t) + static_cast<std::uint64_t>(i);
      });
      live[slot] = 1;
      t += 0.25;
      q.run_until(t);
    }
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn);

// The sharded parallel CSMA engine on a 500-node constant-density
// topology, one simulated second, at 1 worker vs 8 workers. The arg is
// the thread count; the topology, flows and seed are identical (and so,
// by the determinism guarantee, are the reports). Real time matters
// here, not CPU time: 8 workers burn more CPU to finish sooner.
void BM_CsmaParallel(benchmark::State& state) {
  const ScaledFig4Bench& bench = scaled_fig4_bench();
  for (auto _ : state) {
    mac::ShardParams shard;
    shard.threads = static_cast<std::size_t>(state.range(0));
    mac::ParallelCsmaSimulator sim(bench.setup.network, mac::MacParams{},
                                   shard, 4);
    for (const auto& path : bench.paths) sim.add_flow(path, 2.0);
    benchmark::DoNotOptimize(sim.run(0.85, 0.15));
  }
}
BENCHMARK(BM_CsmaParallel)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CsmaSimulatedSecond(benchmark::State& state) {
  const net::Network network(geom::chain(4, 70.0), phy::PhyModel::paper_default());
  const std::vector<net::LinkId> path{*network.find_link(0, 1),
                                      *network.find_link(1, 2),
                                      *network.find_link(2, 3)};
  for (auto _ : state) {
    mac::ParallelCsmaSimulator sim(network, mac::MacParams{},
                                   mac::ShardParams::one_region(), 3);
    sim.add_flow(path, 4.0);
    benchmark::DoNotOptimize(sim.run(0.25, 0.05));
  }
}
BENCHMARK(BM_CsmaSimulatedSecond);

}  // namespace

BENCHMARK_MAIN();
