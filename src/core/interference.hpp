#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/conflict_matrix.hpp"
#include "core/independent_set.hpp"
#include "net/network.hpp"
#include "phy/rate.hpp"

namespace mrwsn::core {

/// Sorted, de-duplicated copy of a link universe. Already-canonical inputs
/// (the common case on hot paths — canonical universes get passed around)
/// skip the sort entirely.
std::vector<net::LinkId> canonical_universe(std::span<const net::LinkId> universe);

/// Abstract interference semantics over a fixed set of links 0..num_links-1.
///
/// Everything the paper's machinery needs is expressed through this
/// interface:
///  - the pairwise "interferes" relation between (link, rate) couples used
///    by the rate-coupled clique analysis of Section 3, and
///  - enumeration of the *maximal independent sets with maximum supported
///    rate vectors* (Propositions 1-3) that define the feasibility region
///    of Eq. 4 and the LP of Eq. 6.
///
/// Two implementations exist:
///  - PhysicalInterferenceModel: cumulative-SINR semantics (Eq. 1 + Eq. 3)
///    over a net::Network; the max supported rate vector of a concurrent
///    set is unique.
///  - ProtocolInterferenceModel: an explicit pairwise conflict table over
///    (link, rate) couples, matching the paper's hand-specified scenarios
///    (Fig. 1); a concurrent set is feasible iff pairwise compatible.
///
/// Every model also owns a cache bundle (ModelCaches): conflict matrices
/// and independent-set results are memoized per canonical universe, so
/// repeated queries over the same universe — the normal shape of the bound
/// and scheduling computations — cost one build each, ever. Caches are
/// derived state: copying a model hands the copy fresh empty caches, and
/// protocol-model mutators invalidate them.
class InterferenceModel {
 public:
  virtual ~InterferenceModel() = default;

  virtual std::size_t num_links() const = 0;
  virtual const phy::RateTable& rate_table() const = 0;

  /// Highest rate `link` supports when it transmits alone; nullopt when
  /// the link cannot carry traffic at all.
  virtual std::optional<phy::RateIndex> max_rate_alone(net::LinkId link) const = 0;

  /// True when `link` may transmit at `rate` when alone. For the physical
  /// model this is every rate no faster than max_rate_alone; the protocol
  /// model allows arbitrary per-link rate sets.
  virtual bool usable_alone(net::LinkId link, phy::RateIndex rate) const = 0;

  /// The paper's "interferes" relation: true when not both transmissions
  /// can succeed if link `a` sends at rate `ra` while link `b` sends at
  /// rate `rb` (and nothing else transmits). Symmetric by construction.
  virtual bool interferes(net::LinkId a, phy::RateIndex ra, net::LinkId b,
                          phy::RateIndex rb) const = 0;

  /// Can every link of `links` concurrently sustain its rate in `rates`?
  /// (Cumulative SINR for the physical model; pairwise compatibility plus
  /// usable-rate checks for the protocol model.) Links must be distinct.
  virtual bool supports(std::span<const net::LinkId> links,
                        std::span<const phy::RateIndex> rates) const = 0;

  /// All maximal independent sets (paper Section 2.4 definition: each link
  /// at its maximum supported rate, and no link can be inserted without
  /// lowering or zeroing an existing member's rate) over the given link
  /// universe. The returned collection is domination-free and sufficient
  /// for the feasibility condition of Eq. 4. Memoized per canonical
  /// universe.
  virtual std::vector<IndependentSet> maximal_independent_sets(
      std::span<const net::LinkId> universe) const = 0;

  /// Column generation's pricing oracle: the feasible rate-coupled
  /// independent set over `universe` maximizing
  /// `sum_i link_weight[i] * mbps_i`, or an empty result when no set
  /// scores strictly above `floor`. `link_weight` is parallel to
  /// `universe` (which must be canonical — strictly ascending) and
  /// non-negative. Exact, deterministic, and independent of MRWSN_THREADS;
  /// per-universe precomputation is memoized like the other kernels.
  virtual MaxWeightSetResult max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor = 0.0) const = 0;

  /// Heuristic (Tier 1) pricing oracle: same contract as
  /// max_weight_independent_set for inputs, but an empty result only means
  /// the heuristic dried up — callers needing an optimality certificate
  /// must fall back to the exact oracle. `starts` is the multi-start count
  /// (core::heuristic_weight_independent_set_protocol). Deterministic and
  /// independent of MRWSN_THREADS; shares the exact oracle's per-universe
  /// memos.
  virtual MaxWeightSetResult heuristic_max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor,
      std::size_t starts) const = 0;

  /// An admissible upper bound on max_weight_independent_set's `max_weight`
  /// over the same `universe` (canonical) and `link_weight` (parallel,
  /// non-negative), found with no search: column generation certifies a
  /// round with it when the bound alone settles the question. The default
  /// scores every link at the table's fastest rate; the concrete models
  /// return their exact search's root bound.
  virtual double max_weight_upper_bound(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight) const;

  /// The memoized bitset conflict matrix over the canonical form of
  /// `universe`: the full pairwise "interferes" relation over its usable
  /// (link, rate) couples, built once per (model, universe) and shared by
  /// clique enumeration, the Eq. 9 bounds, and the protocol-model
  /// independent-set path. Thread-safe.
  std::shared_ptr<const ConflictMatrix> conflict_matrix(
      std::span<const net::LinkId> universe) const;

 protected:
  /// Drop every memoized result. Mutators of derived models fall back to
  /// this when a change cannot be localized.
  void invalidate_caches() const { caches_.clear(); }

  /// Selective repair after a mutation that changed only the links flagged
  /// in `link_affected` (indexed by LinkId): conflict matrices are patched
  /// (unaffected pair bits copied), and MIS memos whose universe touches an
  /// affected link are dropped. Pricing contexts are the physical model's
  /// concern (see PhysicalInterferenceModel::repair).
  void patch_caches(const std::vector<char>& link_affected) const {
    caches_.conflict.patch(*this, link_affected);
    caches_.mis.invalidate(link_affected);
  }

  /// Per-universe memo of maximal_independent_sets results.
  MisCache& mis_cache() const { return caches_.mis; }

  /// Per-universe memo of physical-model pricing contexts.
  PricingCache& pricing_cache() const { return caches_.pricing; }

 private:
  mutable ModelCaches caches_;
};

/// The singleton column of `link`: the link alone at its best alone rate —
/// the cover that keeps every restricted master feasible. nullopt when the
/// link cannot carry traffic at all.
std::optional<IndependentSet> singleton_column(const InterferenceModel& model,
                                               net::LinkId link);

/// What a topology mutation touched, in model terms: the nodes whose
/// position/power/liveness changed and the links whose derived interference
/// state that invalidates (links incident to those nodes, plus any link
/// whose rate cap changed). core::TopologyDelta computes this set exactly —
/// interferes(a, ·, b, ·) depends only on the four endpoints' powers, so
/// links not incident to a mutated node are provably untouched.
struct ModelRepair {
  std::vector<net::NodeId> nodes;  ///< mutated (moved/re-powered/joined/left)
  std::vector<net::LinkId> links;  ///< affected (incident or recapped/created)
  bool nodes_added = false;        ///< the node count grew (rx table re-layout)

  /// Sort and deduplicate both id lists. TopologyDelta normalizes every
  /// repair before handing it out, so downstream consumers (model repair,
  /// engine repair, snapshot revalidation) touch each id exactly once even
  /// when several mutation passes report the same link.
  void normalize();
};

/// Cumulative-SINR interference over a concrete network (Eq. 1 + Eq. 3).
/// Two links sharing a node can never transmit concurrently (single
/// half-duplex radio per node).
///
/// Dynamic topologies: the referenced network may be mutated through
/// core::TopologyDelta, which calls repair() after each batch of mutations
/// so the rx-power table and per-universe memos are patched (not rebuilt)
/// to match. A repaired model answers every query exactly as a fresh model
/// over the mutated network would — the differential churn fuzz suite holds
/// it to `==` parity. interferes() keeps no memo of its own: it reads four
/// entries of the rx-power table per call, so no state grows with the
/// square of the link count.
class PhysicalInterferenceModel final : public InterferenceModel {
 public:
  explicit PhysicalInterferenceModel(const net::Network& network);

  /// Patch all derived state after the network mutations summarized in
  /// `repair`: affected rx-power rows/columns are recomputed (full refill
  /// only when the node count changed), conflict matrices are patched in
  /// place, intersecting MIS memos dropped, and pricing contexts re-derived
  /// at affected positions. Callers must serialize this against concurrent
  /// queries.
  void repair(const ModelRepair& delta);

  std::size_t num_links() const override { return network_->num_links(); }
  const phy::RateTable& rate_table() const override;
  std::optional<phy::RateIndex> max_rate_alone(net::LinkId link) const override;
  bool usable_alone(net::LinkId link, phy::RateIndex rate) const override;
  bool interferes(net::LinkId a, phy::RateIndex ra, net::LinkId b,
                  phy::RateIndex rb) const override;
  bool supports(std::span<const net::LinkId> links,
                std::span<const phy::RateIndex> rates) const override;
  std::vector<IndependentSet> maximal_independent_sets(
      std::span<const net::LinkId> universe) const override;
  MaxWeightSetResult max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor = 0.0) const override;
  MaxWeightSetResult heuristic_max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor,
      std::size_t starts) const override;
  double max_weight_upper_bound(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight) const override;

  /// The unique maximum supported rate vector when exactly `links`
  /// transmit concurrently (Propositions 1-2); nullopt when some member
  /// cannot sustain even the lowest rate (the set is not a valid
  /// concurrent transmission set after Proposition 2's pruning).
  std::optional<std::vector<phy::RateIndex>> max_rate_vector(
      std::span<const net::LinkId> links) const;

  const net::Network& network() const { return *network_; }

  /// Received power at node `at` from node `from`, served from the eager
  /// per-node-pair cache built at construction (falls back to the network
  /// for pathologically large node counts).
  double rx_power(net::NodeId from, net::NodeId at) const {
    return rx_power_.empty() ? network_->received_power(from, at)
                             : rx_power_[from * num_nodes_ + at];
  }

 private:
  bool shares_node(net::LinkId a, net::LinkId b) const;

  /// The memoized pricing context of `universe`, which must be canonical.
  std::shared_ptr<const PricingContext> pricing_context(
      std::span<const net::LinkId> universe) const;

  const net::Network* network_;  // non-owning; outlives the model
  std::size_t num_nodes_ = 0;
  std::vector<double> rx_power_;  // num_nodes^2, row-major by `from`
};

/// Table-driven pairwise interference for hand-built scenarios. A set with
/// a rate vector is feasible iff every pair of its (link, rate) couples is
/// compatible — the classic protocol model, rate-coupled as in Section 3.1.
class ProtocolInterferenceModel final : public InterferenceModel {
 public:
  /// `num_links` abstract links sharing `rates`. Initially nothing
  /// interferes; add conflicts with the mutators below.
  ProtocolInterferenceModel(std::size_t num_links, phy::RateTable rates);

  /// Declare that `a` at `ra` and `b` at `rb` cannot succeed concurrently.
  void add_conflict(net::LinkId a, phy::RateIndex ra, net::LinkId b,
                    phy::RateIndex rb);

  /// Declare a conflict between `a` and `b` for every rate combination.
  void add_conflict_all_rates(net::LinkId a, net::LinkId b);

  /// Restrict which rates `link` may use when transmitting alone
  /// (default: every rate in the table). `usable` is indexed by RateIndex.
  void set_usable_rates(net::LinkId link, std::vector<char> usable);

  std::size_t num_links() const override { return num_links_; }
  const phy::RateTable& rate_table() const override { return rates_; }
  std::optional<phy::RateIndex> max_rate_alone(net::LinkId link) const override;
  bool usable_alone(net::LinkId link, phy::RateIndex rate) const override;
  bool interferes(net::LinkId a, phy::RateIndex ra, net::LinkId b,
                  phy::RateIndex rb) const override;
  bool supports(std::span<const net::LinkId> links,
                std::span<const phy::RateIndex> rates) const override;
  std::vector<IndependentSet> maximal_independent_sets(
      std::span<const net::LinkId> universe) const override;
  MaxWeightSetResult max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor = 0.0) const override;
  MaxWeightSetResult heuristic_max_weight_independent_set(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight, double floor,
      std::size_t starts) const override;
  double max_weight_upper_bound(
      std::span<const net::LinkId> universe,
      std::span<const double> link_weight) const override;

 private:
  std::size_t index(net::LinkId link, phy::RateIndex rate) const;

  /// Selectively repair the memo bundle after a table edit touching links
  /// `a` and `b` (pass a == b for single-link edits).
  void patch_after_mutation(net::LinkId a, net::LinkId b);

  std::size_t num_links_;
  phy::RateTable rates_;
  std::vector<char> conflict_;          // (L*R)^2 symmetric matrix
  std::vector<std::vector<char>> usable_;  // [link][rate]
};

}  // namespace mrwsn::core
