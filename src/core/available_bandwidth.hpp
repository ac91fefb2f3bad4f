#pragma once

#include <span>
#include <vector>

#include "core/independent_set.hpp"
#include "core/interference.hpp"
#include "lp/simplex.hpp"

namespace mrwsn::core {

/// A flow expressed at the core-model level: the ordered links of its path
/// and its end-to-end demand in Mbps. (routing:: adapts net::Flow to this.)
struct LinkFlow {
  std::vector<net::LinkId> links;
  double demand_mbps = 0.0;
};

/// One scheduled maximal independent set and its time share λ.
struct ScheduledSet {
  IndependentSet set;
  double time_share = 0.0;
};

/// Knobs of the column-generation solver. The defaults are far above what
/// any converging instance needs; they exist so degenerate inputs terminate
/// with `converged == false` instead of looping.
///
/// Each pricing round runs a three-tier pipeline: Tier 0 re-scores
/// previously priced columns (the one-shot solver's stash of exact-round
/// runner-ups, AdmissionEngine's persistent pool) against the current
/// duals; Tier 1 runs the deterministic multi-start greedy + local-search
/// heuristics; Tier 2 — the exact branch-and-bound — fires only when the
/// cheap tiers find nothing. Exactness is preserved: convergence is only
/// ever declared from a Tier 2 round that proved no improving column
/// exists, so the terminal round always carries the exact certificate.
/// Every solve applies Wentges (in-out) dual smoothing (see ColGenDriver).
struct ColumnGenOptions {
  /// Total pricing rounds per solve. Tiered pricing takes more (much
  /// cheaper) rounds than exact-only — a 40-link chain converges around
  /// 500 — so the cap leaves the same headroom it did when every round
  /// was an exact B&B call.
  std::size_t max_rounds = 2048;
  std::size_t max_columns = 4096;  ///< column-pool size cap

  /// Multi-start count of the Tier 1 heuristics. 12 measured best
  /// end-to-end on the 40-link chain: more starts find better columns per
  /// round (fewer exact-certificate calls), but each round pays for every
  /// start. 0 is the exact-only reference loop: no Tier 1, the exact
  /// oracle on every round Tier 0 comes back empty, smoothed rounds
  /// included (the one-shot solver stashes no runner-ups then, so there it
  /// is the exact-every-round loop) — the right choice for tiny universes
  /// where the exact oracle is already microseconds.
  std::size_t heuristic_starts = 12;
};

/// Diagnostics of one column-generation solve.
struct ColumnGenStats {
  /// Always true: every Eq. 6 solve runs column generation. Kept for
  /// readers that predate the single solver.
  bool used = true;
  bool converged = false;  ///< pricing proved optimality (no improving column)
  std::size_t rounds = 0;       ///< pricing rounds (any tier)
  std::size_t columns = 0;      ///< final column-pool size
  std::size_t warm_starts = 0;  ///< master re-solves started from a basis
  std::size_t mispricings = 0;  ///< smoothed rounds that fell back to exact duals

  /// Per-tier pricing telemetry (one-shot solves with heuristic_starts =
  /// 0: all zero except exact_rounds, which then equals the oracle
  /// invocation count).
  std::size_t pool_hit_columns = 0;   ///< Tier 0: stored columns promoted
  std::size_t heuristic_columns = 0;  ///< Tier 1: heuristic columns added
  std::size_t exact_rounds = 0;       ///< Tier 2: exact B&B invocations
  /// True when a proof ended the run: an exact (Tier 2) round over the
  /// incumbent duals found no improving column (the optimality
  /// certificate), or phase A's Lagrangian bound — from the model's root
  /// bound on any round, or from an exact round's maximum — proved the
  /// background undeliverable. Always true when `converged` is true;
  /// tracked separately so tests can assert the certificate path executed
  /// rather than infer it.
  bool certified = false;
};

/// Result of the available-path-bandwidth LP (Eq. 6 of the paper).
struct AvailableBandwidthResult {
  /// False when the background demands alone are not schedulable — the
  /// LP of Eq. 6 is then infeasible and no bandwidth is available.
  bool background_feasible = false;

  /// The maximum end-to-end throughput f_{K+1} the new path can carry
  /// while every background demand keeps being delivered.
  double available_mbps = 0.0;

  /// An optimal link schedule achieving `available_mbps` (entries with
  /// time share > 1e-9 only). Σ time_share <= 1.
  std::vector<ScheduledSet> schedule;

  /// Number of columns the LP was built from: the generated-column count
  /// of the column-generation solve, not |M-hat|.
  std::size_t num_independent_sets = 0;

  /// Column-generation diagnostics.
  ColumnGenStats colgen;

  /// Bottleneck analysis from the LP duals: for each link of the problem's
  /// universe, the Mbps of available bandwidth lost per extra Mbps of
  /// background demand on that link. Links with a positive price are the
  /// bottlenecks; zero-price links have slack.
  std::vector<std::pair<net::LinkId, double>> link_shadow_prices;

  /// Marginal value of schedulable airtime: the Mbps gained per extra unit
  /// of schedule time (the dual of the Σλ <= 1 constraint).
  double airtime_shadow_price = 0.0;
};

/// The paper's core model (Eq. 6): assuming a globally optimal link
/// scheduling over the maximal rate-coupled independent sets of
/// P = union of all involved paths, maximize the new path's throughput
/// subject to delivering every background demand.
/// Solved by column generation: a restricted master over a small column
/// pool, grown by the max-weight independent-set pricing oracle until it
/// proves no improving column exists. That is the LP over every maximal
/// set (the LP over all feasible sets has the same optimum, and the
/// oracle is exact over them) without enumerating them. The answer is
/// max_joint_bandwidth's for {new_path} under kMaxSum, bit for bit, plus
/// the shadow prices. A path that lists a link twice is rejected.
AvailableBandwidthResult max_path_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const net::LinkId> new_path,
    const ColumnGenOptions& options = {});

/// Path capacity with no background traffic — the model of the authors'
/// prior work [1] as a special case of Eq. 6 with K = 0.
double path_capacity(const InterferenceModel& model,
                     std::span<const net::LinkId> path);

/// How a joint multi-flow optimization splits capacity among new flows.
enum class JointObjective {
  kMaxSum,  ///< maximize Σ f_k (can starve some flows)
  kMaxMin,  ///< maximize min f_k, then the sum at that floor
};

/// Result of admitting several new flows simultaneously (the extension the
/// paper sketches at the end of Section 2.5).
struct JointBandwidthResult {
  bool background_feasible = false;
  /// Throughput per new path, in input order.
  std::vector<double> per_path_mbps;
  /// Σ of per_path_mbps.
  double total_mbps = 0.0;
  std::vector<ScheduledSet> schedule;
  /// Column count, as in AvailableBandwidthResult::num_independent_sets.
  std::size_t num_independent_sets = 0;
  /// Column-generation diagnostics.
  ColumnGenStats colgen;
};

/// Eq. 6 with more than one new flow joining at once: maximize the chosen
/// objective over (f_1 ... f_J) subject to the same schedulability and
/// background-delivery constraints. kMaxMin solves two LPs (the standard
/// lexicographic max-min: first the floor, then the sum with the floor
/// pinned). A path that lists a link twice is rejected.
JointBandwidthResult max_joint_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective = JointObjective::kMaxMin,
    const ColumnGenOptions& options = {});

/// A schedule delivering fixed per-link demands with minimum total airtime
/// (the feasibility condition of Eqs. 2/4: the demands are jointly
/// schedulable iff total_airtime <= 1). AdmissionEngine::background_schedule
/// returns the one for its background flows.
struct AirtimeSchedule {
  double total_airtime = 0.0;  ///< Σλ; infinite when a demanded link
                               ///< carries no rate
  std::vector<ScheduledSet> entries;
};

/// Per-link accumulated demand vector (indexed by link id, sized
/// model.num_links()) of a set of flows.
std::vector<double> accumulate_link_demands(const InterferenceModel& model,
                                            std::span<const LinkFlow> flows);

}  // namespace mrwsn::core
