#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/admission_engine.hpp"
#include "routing/qos_router.hpp"
#include "routing/widest_path.hpp"

namespace mrwsn::routing {

/// A request for a new flow, before routing.
struct FlowRequest {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double demand_mbps = 0.0;
};

/// How the controller decides whether a routed path can carry the demand.
/// kLpOracle is the paper's Fig. 3 protocol (centralized ground truth);
/// the estimator policies model *distributed* admission control, where a
/// node only sees local rates and channel idle ratios (Section 4).
enum class AdmissionPolicy {
  kLpOracle,             ///< Eq. 6 LP value (ground truth)
  kBottleneckNode,       ///< Eq. 10
  kCliqueConstraint,     ///< Eq. 11
  kMinCliqueBottleneck,  ///< Eq. 12
  kConservativeClique,   ///< Eq. 13 (the paper's best estimator)
  kExpectedCliqueTime,   ///< Eq. 15
};

std::string admission_policy_name(AdmissionPolicy policy);

/// What happened to one request in the sequential admission experiment.
struct AdmissionRecord {
  FlowRequest request;
  std::optional<net::Path> path;  ///< nullopt when routing failed
  /// The value the active policy used to decide (equals the LP truth under
  /// kLpOracle, an estimate otherwise).
  double available_mbps = 0.0;
  /// The Eq. 6 LP truth on `path` at admission time, always recorded so
  /// estimator policies can be audited.
  double true_available_mbps = 0.0;
  bool admitted = false;  ///< available_mbps >= demand
  /// Admitted although the LP truth could not cover the demand: the
  /// admission error that degrades already-admitted flows.
  bool over_admitted = false;
};

/// Result of processing a request sequence.
struct AdmissionOutcome {
  std::vector<AdmissionRecord> records;
  std::size_t admitted_count = 0;
  /// Index into `records` of the first rejected request, if any.
  std::optional<std::size_t> first_failure;
  /// Of the admitted flows, how many were over-admissions (estimate said
  /// yes, LP truth said no). Always 0 under AdmissionPolicy::kLpOracle.
  std::size_t over_admissions = 0;
};

/// The paper's Section 5.2 experiment driver: flows join the network one
/// by one; each is routed under the chosen metric (with idle ratios from
/// the minimum-airtime schedule of the already-admitted flows, the one the
/// controller's engine holds), then admitted iff the Eq. 6 available
/// bandwidth of its path covers its demand. The paper stops at the first
/// unsatisfied flow (`stop_at_first_failure = true`).
class AdmissionController {
 public:
  /// How a new request's path is chosen given the admitted background.
  using RouteStrategy = std::function<std::optional<net::Path>(
      const FlowRequest&, std::span<const core::LinkFlow>)>;

  /// Route with one of the Section-4 distributed metrics (idle ratios come
  /// from the engine's background schedule of the admitted flows).
  AdmissionController(const net::Network& network,
                      const core::InterferenceModel& model, Metric metric);

  /// Route with the joint widest-path heuristic (k LP-evaluated candidates).
  AdmissionController(const net::Network& network,
                      const core::InterferenceModel& model,
                      const WidestPathRouter& widest);

  /// Route with an arbitrary strategy.
  AdmissionController(const net::Network& network,
                      const core::InterferenceModel& model,
                      RouteStrategy strategy);

  /// The metric strategy keeps `this`, and the engine holds locks.
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Decide admissions with `policy` (default: the LP oracle).
  void set_policy(AdmissionPolicy policy) { policy_ = policy; }
  AdmissionPolicy policy() const { return policy_; }

  AdmissionOutcome run(std::span<const FlowRequest> requests,
                       bool stop_at_first_failure = true);

  /// Flows admitted so far (usable as background for further queries).
  const std::vector<core::LinkFlow>& admitted_flows() const { return admitted_; }

  /// Treat `flows` as traffic that is already in the network before any
  /// request is processed (counts as background, not as admissions).
  void preload_background(std::vector<core::LinkFlow> flows);

  /// Reset the admitted-flow state (the engine keeps its column pool).
  void clear();

 private:
  double estimate_for_policy(const net::Path& path);
  void commit(core::LinkFlow flow);
  /// λ_idle per node under engine_.background_schedule(), recomputed only
  /// after the admitted set changed.
  const std::vector<double>& node_idle();

  const net::Network* network_;
  const core::InterferenceModel* model_;
  RouteStrategy strategy_;
  AdmissionPolicy policy_ = AdmissionPolicy::kLpOracle;
  std::vector<core::LinkFlow> admitted_;
  /// Long-lived Eq. 6 truth oracle: shares the model's caches and its own
  /// column pool across the whole request sequence, and re-solves the
  /// background master with the dual simplex after every commit instead of
  /// starting each request from scratch. Kept in lockstep with admitted_;
  /// its background schedule is also where routing and the estimator
  /// policies read idle ratios from.
  core::AdmissionEngine engine_;
  std::vector<double> node_idle_;
  bool idle_current_ = false;
};

}  // namespace mrwsn::routing
