#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/independent_set.hpp"
#include "net/network.hpp"
#include "phy/rate.hpp"
#include "util/bitset.hpp"

namespace mrwsn::phy {
class PhyModel;
}  // namespace mrwsn::phy

namespace mrwsn::core {

class InterferenceModel;
class PhysicalInterferenceModel;

/// A (link, rate) couple — one vertex of the rate-coupled conflict graph.
struct LinkRateCouple {
  net::LinkId link = 0;
  phy::RateIndex rate = 0;
};

/// The fully materialized pairwise "interferes" relation over the usable
/// (link, rate) couples of one link universe, stored as cache-friendly
/// 64-bit bitset rows.
///
/// Every exponential kernel of the paper — maximal-clique enumeration
/// (Section 3.1), protocol-model independent sets (Section 2.4), and the
/// per-rate-vector conflict graphs of the Eq. 9 bound — queries the same
/// pairwise relation over and over. Building it once per universe turns
/// each of those kernels into bit tests and word-wise AND + popcount, with
/// exactly one InterferenceModel::interferes evaluation per couple pair.
class ConflictMatrix {
 public:
  /// `universe` must be sorted and de-duplicated (see
  /// InterferenceModel::conflict_matrix, which canonicalizes and caches).
  ConflictMatrix(const InterferenceModel& model,
                 std::vector<net::LinkId> universe);

  /// Patch constructor: rebuild `prior`'s matrix against the mutated model
  /// when only the links flagged in `link_affected` (indexed by LinkId)
  /// changed. Pair bits between two unaffected links are copied from
  /// `prior`; only pairs touching an affected link re-evaluate
  /// model.interferes — O(|affected| * n) evaluations instead of O(n^2).
  ConflictMatrix(const InterferenceModel& model, const ConflictMatrix& prior,
                 const std::vector<char>& link_affected);

  const std::vector<net::LinkId>& universe() const { return universe_; }

  /// Usable couples, ordered by (link ascending, rate ascending). Couple
  /// indices below refer to positions in this vector.
  const std::vector<LinkRateCouple>& couples() const { return couples_; }
  std::size_t num_couples() const { return couples_.size(); }

  /// Words per bitset row (util::bits_* helpers operate on this many).
  std::size_t words() const { return conflict_.words(); }

  /// Do couples i and j interfere? (False for couples of the same link —
  /// the relation is only defined across distinct links.)
  bool interferes(std::size_t i, std::size_t j) const {
    return conflict_.test(i, j);
  }

  /// Bit row of couples that interfere with couple i (distinct links only).
  const util::BitWord* conflict_row(std::size_t i) const {
    return conflict_.row(i);
  }

  /// Bit row of couples of *other* links that do NOT interfere with couple
  /// i — the compatibility graph whose maximal cliques are the protocol
  /// model's maximal independent sets.
  const util::BitWord* compat_row(std::size_t i) const { return compat_.row(i); }

  /// The full conflict relation as a square adjacency matrix — feed it to
  /// graph::maximal_cliques directly.
  const util::BitMatrix& conflict_bits() const { return conflict_; }

  /// The compatibility graph (distinct-link, non-interfering couples) as a
  /// square adjacency matrix; its maximal cliques are the protocol model's
  /// maximal independent sets.
  const util::BitMatrix& compat_bits() const { return compat_; }

  /// Index of the couple (link, rate), or nullopt when the rate is not
  /// usable-alone on that link or the link is outside the universe.
  std::optional<std::size_t> couple_index(net::LinkId link,
                                          phy::RateIndex rate) const;

 private:
  std::vector<net::LinkId> universe_;
  std::vector<LinkRateCouple> couples_;
  std::vector<std::size_t> couple_begin_;  // per universe position, + sentinel
  util::BitMatrix conflict_;
  util::BitMatrix compat_;
};

/// Memo of ConflictMatrix instances keyed by canonical universe. Lives
/// inside each InterferenceModel; guarded by a mutex so the Eq. 9 thread
/// fan-out can share one model. Universes per model are few, so lookup is
/// a linear scan with vector compare.
class ConflictCache {
 public:
  /// The cached matrix for `universe` (canonical), building it on miss.
  std::shared_ptr<const ConflictMatrix> get(const InterferenceModel& model,
                                            std::vector<net::LinkId> universe);

  /// Repair every cached matrix after a mutation that changed only the
  /// links flagged in `link_affected`: entries touching an affected link
  /// are replaced by a patched copy (ConflictMatrix patch constructor);
  /// untouched entries stay shared. Readers holding the old shared_ptr keep
  /// a consistent pre-mutation matrix.
  void patch(const InterferenceModel& model,
             const std::vector<char>& link_affected);

  void clear();

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<const ConflictMatrix>> entries_;
};

/// Memo of maximal_independent_sets results keyed by canonical universe.
class MisCache {
 public:
  bool find(std::span<const net::LinkId> canonical,
            std::vector<IndependentSet>* out);
  void insert(std::vector<net::LinkId> canonical,
              std::vector<IndependentSet> sets);

  /// Drop exactly the memos whose universe contains an affected link; a MIS
  /// result depends only on its own universe members, so disjoint entries
  /// survive a mutation untouched.
  void invalidate(const std::vector<char>& link_affected);

  void clear();

 private:
  std::mutex mu_;
  std::vector<std::pair<std::vector<net::LinkId>, std::vector<IndependentSet>>>
      entries_;
};

/// Precomputed per-universe arrays for the physical-model pricing oracle
/// (column generation's max-weight independent-set search). The same
/// received-power and node-sharing lookups that PhysicalMisEnumerator
/// derives per enumeration are hoisted here once per (model, universe) so
/// repeated pricing rounds over one universe — the normal shape of column
/// generation — pay for them exactly once.
///
/// All per-link arrays are indexed by universe position; the pair tables
/// are flattened row-major as [k * n + u] ("power at u's receiver from k's
/// transmitter" / "links k and u share a node").
struct PricingContext {
  std::vector<net::LinkId> universe;  ///< canonical (sorted, de-duplicated)
  const phy::PhyModel* phy = nullptr;

  std::vector<double> signal;        ///< rx power of each link's own signal
  std::vector<double> cross_power;   ///< [k*n + u] interference k -> u
  std::vector<char> shares;          ///< [k*n + u] half-duplex node sharing
  std::vector<char> alone_usable;    ///< link carries traffic when alone
  std::vector<phy::RateIndex> alone_rate;  ///< valid when alone_usable
  std::vector<double> alone_mbps;    ///< throughput alone; 0 when unusable
  /// Per-position copy of net::Link::rate_cap — the pricing kernels clamp
  /// every concurrent rate to indices >= cap (indices are fastest-first),
  /// mirroring the model's usable/interferes semantics.
  std::vector<phy::RateIndex> rate_cap;

  std::size_t size() const { return universe.size(); }
};

/// Memo of PricingContext instances keyed by canonical universe, mirroring
/// ConflictCache (mutex + linear scan; universes per model are few).
class PricingCache {
 public:
  /// The cached context for `universe` (canonical), building it on miss.
  std::shared_ptr<const PricingContext> get(
      const PhysicalInterferenceModel& model,
      std::vector<net::LinkId> universe);

  /// Hit-only lookup that never copies the universe; nullptr on miss.
  /// The pricing hot path calls this first so a warm cache costs one scan
  /// instead of a heap allocation per round.
  std::shared_ptr<const PricingContext> find(
      std::span<const net::LinkId> universe);

  /// Repair every cached context after a mutation that changed only the
  /// links flagged in `link_affected`: touched entries are replaced by a
  /// copy whose affected positions (signal, alone fields, rate caps, and
  /// the cross-power rows AND columns of affected members) are re-derived
  /// from the mutated model — O(|affected| * n) instead of O(n^2) rebuild.
  /// Node-sharing flags are copied verbatim: link endpoints are immutable.
  void patch(const PhysicalInterferenceModel& model,
             const std::vector<char>& link_affected);

  void clear();

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<const PricingContext>> entries_;
};

/// The per-model cache bundle. Copying or moving a model hands the copy a
/// fresh, empty bundle: caches are derived state and never shared, so a
/// copied-then-mutated model (protocol table edits) cannot poison its
/// sibling's results.
struct ModelCaches {
  ModelCaches() = default;
  ModelCaches(const ModelCaches&) {}
  ModelCaches(ModelCaches&&) noexcept {}
  ModelCaches& operator=(const ModelCaches&) {
    clear();
    return *this;
  }
  ModelCaches& operator=(ModelCaches&&) noexcept {
    clear();
    return *this;
  }

  void clear() {
    conflict.clear();
    mis.clear();
    pricing.clear();
  }

  ConflictCache conflict;
  MisCache mis;
  PricingCache pricing;
};

}  // namespace mrwsn::core
