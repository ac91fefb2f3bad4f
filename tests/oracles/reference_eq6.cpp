#include "oracles/reference_eq6.hpp"

#include <algorithm>
#include <utility>

#include "lp/simplex.hpp"
#include "util/error.hpp"

namespace mrwsn::core {

namespace {

constexpr double kTimeShareFloor = 1e-9;

std::vector<ScheduledSet> scheduled(const std::vector<IndependentSet>& sets,
                                    const lp::Solution& solution,
                                    lp::VarId first_lambda) {
  std::vector<ScheduledSet> out;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const double share =
        solution.value(first_lambda + static_cast<lp::VarId>(i));
    if (share > kTimeShareFloor) out.push_back({sets[i], share});
  }
  return out;
}

enum class Pass { kSum, kFloor, kSumAtFloor };

/// Variables: f_j per path, t on the floor pass, then λ_i per set.
/// Rows: the floor rows (f_j − t >= 0, or f_j >= floor on the pinned
/// pass), Σλ <= 1, and per universe link e
/// Σ_i λ_i R_i[e] − Σ_{j : e ∈ P_j} f_j >= background demand on e.
lp::Problem eq6_lp(std::span<const net::LinkId> universe,
                   const std::vector<IndependentSet>& sets,
                   std::span<const std::vector<net::LinkId>> paths,
                   std::span<const double> bg_demand, Pass pass, double floor,
                   lp::VarId* first_lambda) {
  lp::Problem problem(lp::Objective::kMaximize);
  const lp::VarId num_paths = static_cast<lp::VarId>(paths.size());
  for (lp::VarId j = 0; j < num_paths; ++j)
    problem.add_variable(pass == Pass::kFloor ? 0.0 : 1.0);
  if (pass == Pass::kFloor) {
    const lp::VarId t = problem.add_variable(1.0);
    for (lp::VarId j = 0; j < num_paths; ++j)
      problem.add_constraint({{j, 1.0}, {t, -1.0}}, lp::Sense::kGreaterEqual,
                             0.0);
  } else if (pass == Pass::kSumAtFloor) {
    for (lp::VarId j = 0; j < num_paths; ++j)
      problem.add_constraint({{j, 1.0}}, lp::Sense::kGreaterEqual,
                             floor - 1e-9);
  }
  *first_lambda = static_cast<lp::VarId>(problem.num_variables());
  std::vector<std::pair<lp::VarId, double>> airtime;
  for (std::size_t i = 0; i < sets.size(); ++i)
    airtime.emplace_back(problem.add_variable(0.0), 1.0);
  problem.add_constraint(airtime, lp::Sense::kLessEqual, 1.0);
  for (const net::LinkId link : universe) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (lp::VarId j = 0; j < num_paths; ++j)
      if (std::find(paths[j].begin(), paths[j].end(), link) != paths[j].end())
        row.emplace_back(j, -1.0);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const double mbps = sets[i].mbps_on(link);
      if (mbps > 0.0)
        row.emplace_back(*first_lambda + static_cast<lp::VarId>(i), mbps);
    }
    problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
  }
  return problem;
}

}  // namespace

JointBandwidthResult reference_joint_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective) {
  std::vector<net::LinkId> universe;
  for (const std::vector<net::LinkId>& path : new_paths)
    universe.insert(universe.end(), path.begin(), path.end());
  for (const LinkFlow& flow : background)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const std::vector<double> bg_demand =
      accumulate_link_demands(model, background);
  const std::vector<IndependentSet> sets =
      model.maximal_independent_sets(universe);

  JointBandwidthResult result;
  result.num_independent_sets = sets.size();
  std::vector<Pass> passes{Pass::kSum};
  if (objective == JointObjective::kMaxMin)
    passes = {Pass::kFloor, Pass::kSumAtFloor};
  double floor = 0.0;
  for (const Pass pass : passes) {
    lp::VarId first_lambda = 0;
    const lp::Solution solution = lp::solve(eq6_lp(
        universe, sets, new_paths, bg_demand, pass, floor, &first_lambda));
    if (solution.status == lp::Status::kInfeasible) return result;
    MRWSN_ASSERT(solution.optimal(), "the reference Eq. 6 LP did not solve");
    if (pass == Pass::kFloor) {
      floor = solution.value(static_cast<lp::VarId>(new_paths.size()));
      continue;
    }
    result.background_feasible = true;
    for (std::size_t j = 0; j < new_paths.size(); ++j) {
      result.per_path_mbps.push_back(
          solution.value(static_cast<lp::VarId>(j)));
      result.total_mbps += result.per_path_mbps.back();
    }
    result.schedule = scheduled(sets, solution, first_lambda);
  }
  return result;
}

AvailableBandwidthResult reference_path_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const net::LinkId> new_path) {
  const std::vector<std::vector<net::LinkId>> paths{
      {new_path.begin(), new_path.end()}};
  JointBandwidthResult joint = reference_joint_bandwidth(
      model, background, paths, JointObjective::kMaxSum);
  AvailableBandwidthResult result;
  result.background_feasible = joint.background_feasible;
  result.available_mbps = joint.total_mbps;
  result.schedule = std::move(joint.schedule);
  result.num_independent_sets = joint.num_independent_sets;
  return result;
}

std::optional<AirtimeSchedule> reference_min_airtime_schedule(
    const InterferenceModel& model, std::span<const net::LinkId> universe,
    std::span<const double> link_demand_mbps) {
  MRWSN_REQUIRE(link_demand_mbps.size() == model.num_links(),
                "demand vector must be indexed by link id over all links");
  std::vector<net::LinkId> links(universe.begin(), universe.end());
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  const std::vector<IndependentSet> sets = model.maximal_independent_sets(links);

  // minimize Σλ  s.t.  Σ_i λ_i R_i[e] >= demand[e]  ∀ demanded e.
  lp::Problem problem(lp::Objective::kMinimize);
  for (std::size_t i = 0; i < sets.size(); ++i) problem.add_variable(1.0);
  for (const net::LinkId link : links) {
    if (link_demand_mbps[link] <= 0.0) continue;
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const double mbps = sets[i].mbps_on(link);
      if (mbps > 0.0) row.emplace_back(static_cast<lp::VarId>(i), mbps);
    }
    problem.add_constraint(row, lp::Sense::kGreaterEqual,
                           link_demand_mbps[link]);
  }
  const lp::Solution solution = lp::solve(problem);
  if (!solution.optimal()) return std::nullopt;
  AirtimeSchedule schedule;
  schedule.total_airtime = solution.objective;
  schedule.entries = scheduled(sets, solution, 0);
  return schedule;
}

}  // namespace mrwsn::core
