#include "routing/admission.hpp"

#include "core/estimation.hpp"
#include "core/idle_time.hpp"
#include "util/error.hpp"

namespace mrwsn::routing {

using core::kDemandSlack;

std::string admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kLpOracle:
      return "LP oracle (Eq. 6)";
    case AdmissionPolicy::kBottleneckNode:
      return "bottleneck node (Eq. 10)";
    case AdmissionPolicy::kCliqueConstraint:
      return "clique constraint (Eq. 11)";
    case AdmissionPolicy::kMinCliqueBottleneck:
      return "min of both (Eq. 12)";
    case AdmissionPolicy::kConservativeClique:
      return "conservative clique (Eq. 13)";
    case AdmissionPolicy::kExpectedCliqueTime:
      return "expected clique time (Eq. 15)";
  }
  throw PreconditionError("unknown admission policy");
}

AdmissionController::AdmissionController(const net::Network& network,
                                         const core::InterferenceModel& model,
                                         Metric metric)
    : AdmissionController(
          network, model,
          RouteStrategy([router = QosRouter(network, model), metric](
                            const FlowRequest& request,
                            std::span<const core::LinkFlow> background) {
            return router.find_path(request.src, request.dst, metric, background);
          })) {}

AdmissionController::AdmissionController(const net::Network& network,
                                         const core::InterferenceModel& model,
                                         const WidestPathRouter& widest)
    : AdmissionController(
          network, model,
          RouteStrategy([widest](const FlowRequest& request,
                                 std::span<const core::LinkFlow> background) {
            return widest.find_path(request.src, request.dst, background).path;
          })) {}

AdmissionController::AdmissionController(const net::Network& network,
                                         const core::InterferenceModel& model,
                                         RouteStrategy strategy)
    : network_(&network),
      model_(&model),
      strategy_(std::move(strategy)),
      engine_(model) {
  MRWSN_REQUIRE(strategy_ != nullptr, "route strategy must be callable");
}

void AdmissionController::commit(core::LinkFlow flow) {
  engine_.add_background(flow);
  admitted_.push_back(std::move(flow));
}

void AdmissionController::preload_background(std::vector<core::LinkFlow> flows) {
  for (core::LinkFlow& flow : flows) commit(std::move(flow));
}

void AdmissionController::clear() {
  admitted_.clear();
  engine_.evict();
}

double AdmissionController::estimate_for_policy(const net::Path& path) const {
  const core::IdleResult idle =
      core::schedule_idle_ratios(*network_, *model_, admitted_);
  const core::PathEstimateInput input = core::make_path_estimate_input(
      *network_, *model_, path.links(), idle.node_idle);
  switch (policy_) {
    case AdmissionPolicy::kBottleneckNode:
      return core::estimate_bottleneck_node(input);
    case AdmissionPolicy::kCliqueConstraint:
      return core::estimate_clique_constraint(input);
    case AdmissionPolicy::kMinCliqueBottleneck:
      return core::estimate_min_clique_bottleneck(input);
    case AdmissionPolicy::kConservativeClique:
      return core::estimate_conservative_clique(input);
    case AdmissionPolicy::kExpectedCliqueTime:
      return core::estimate_expected_clique_time(input);
    case AdmissionPolicy::kLpOracle:
      break;
  }
  throw InvariantError("estimate_for_policy called for the LP oracle");
}

AdmissionOutcome AdmissionController::run(std::span<const FlowRequest> requests,
                                          bool stop_at_first_failure) {
  AdmissionOutcome outcome;
  for (const FlowRequest& request : requests) {
    MRWSN_REQUIRE(request.demand_mbps > 0.0, "flow demand must be positive");
    AdmissionRecord record;
    record.request = request;
    record.path = strategy_(request, admitted_);
    if (record.path) {
      // LP truth comes from the batched engine: same Eq. 6 optimum as a
      // cold max_path_bandwidth() solve, but the conflict matrices, the
      // column pool, and the background basis persist across requests.
      const core::AdmissionAnswer truth =
          engine_.query(record.path->links(), request.demand_mbps);
      record.true_available_mbps =
          truth.background_feasible ? truth.available_mbps : 0.0;
      record.available_mbps = policy_ == AdmissionPolicy::kLpOracle
                                  ? record.true_available_mbps
                                  : estimate_for_policy(*record.path);
      record.admitted = record.available_mbps + kDemandSlack >= request.demand_mbps;
      record.over_admitted =
          record.admitted &&
          record.true_available_mbps + kDemandSlack < request.demand_mbps;
    }
    if (record.admitted)
      commit(to_link_flow(*record.path, request.demand_mbps));

    const bool failed = !record.admitted;
    if (record.over_admitted) ++outcome.over_admissions;
    outcome.records.push_back(std::move(record));
    if (failed) {
      if (!outcome.first_failure)
        outcome.first_failure = outcome.records.size() - 1;
      if (stop_at_first_failure) break;
    } else {
      ++outcome.admitted_count;
    }
  }
  return outcome;
}

}  // namespace mrwsn::routing
