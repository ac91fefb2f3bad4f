#include "core/interference.hpp"

#include <algorithm>

#include "graph/undirected.hpp"
#include "util/error.hpp"

namespace mrwsn::core {

namespace {

bool strictly_ascending(std::span<const net::LinkId> universe) {
  for (std::size_t i = 1; i < universe.size(); ++i)
    if (universe[i - 1] >= universe[i]) return false;
  return true;
}

}  // namespace

std::vector<net::LinkId> canonical_universe(std::span<const net::LinkId> universe) {
  std::vector<net::LinkId> links(universe.begin(), universe.end());
  if (!strictly_ascending(universe)) {
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
  }
  return links;
}

std::optional<IndependentSet> singleton_column(const InterferenceModel& model,
                                               net::LinkId link) {
  const auto rate = model.max_rate_alone(link);
  if (!rate) return std::nullopt;
  IndependentSet set;
  set.links = {link};
  set.rates = {*rate};
  set.mbps = {model.rate_table()[*rate].mbps};
  return set;
}

double InterferenceModel::max_weight_upper_bound(
    std::span<const net::LinkId> universe,
    std::span<const double> link_weight) const {
  MRWSN_REQUIRE(link_weight.size() == universe.size(),
                "one weight per universe link required");
  // No set delivers more than the fastest rate on any of its links.
  double bound = 0.0;
  for (const double w : link_weight) bound += w * rate_table().max_mbps();
  return bound + bound * kBoundPad;
}

std::shared_ptr<const ConflictMatrix> InterferenceModel::conflict_matrix(
    std::span<const net::LinkId> universe) const {
  return caches_.conflict.get(*this, canonical_universe(universe));
}

// ---------------------------------------------------------------------------
// PhysicalInterferenceModel
// ---------------------------------------------------------------------------

namespace {

// 8 MB of doubles; every paper scenario is far below this.
constexpr std::size_t kMaxEagerPowerEntries = std::size_t{1} << 20;

}  // namespace

void ModelRepair::normalize() {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
}

PhysicalInterferenceModel::PhysicalInterferenceModel(const net::Network& network)
    : network_(&network), num_nodes_(network.num_nodes()) {
  if (num_nodes_ * num_nodes_ <= kMaxEagerPowerEntries)
    network.fill_received_power(rx_power_);
}

void PhysicalInterferenceModel::repair(const ModelRepair& delta) {
  const std::size_t n = network_->num_nodes();
  if (n * n <= kMaxEagerPowerEntries) {
    if (delta.nodes_added || rx_power_.size() != n * n) {
      // The row stride changed (or the table was never eager): refill.
      network_->fill_received_power(rx_power_);
    } else {
      // A mutated node changes the power it delivers everywhere (its row)
      // and the power it receives from everyone (its column); nothing else.
      for (const net::NodeId u : delta.nodes) {
        MRWSN_REQUIRE(u < n, "repaired node id out of range");
        for (net::NodeId v = 0; v < n; ++v) {
          rx_power_[u * n + v] = network_->received_power(u, v);
          rx_power_[v * n + u] = network_->received_power(v, u);
        }
      }
    }
  } else {
    rx_power_.clear();  // fall back to per-query network lookups
  }
  num_nodes_ = n;

  std::vector<char> link_affected(network_->num_links(), 0);
  for (const net::LinkId link : delta.links) {
    MRWSN_REQUIRE(link < link_affected.size(),
                  "repaired link id out of range");
    link_affected[link] = 1;
  }
  patch_caches(link_affected);
  pricing_cache().patch(*this, link_affected);
}

const phy::RateTable& PhysicalInterferenceModel::rate_table() const {
  return network_->phy().rates();
}

std::optional<phy::RateIndex> PhysicalInterferenceModel::max_rate_alone(
    net::LinkId link) const {
  const net::Link& l = network_->link(link);
  if (!l.alive) return std::nullopt;
  // Rates are ordered fastest first; a rate cap (churn-driven rate
  // adaptation) only ever slows the link down.
  return std::max(l.best_rate_alone, l.rate_cap);
}

bool PhysicalInterferenceModel::usable_alone(net::LinkId link,
                                             phy::RateIndex rate) const {
  // Every rate at or below the lone maximum is usable (lower rates have
  // laxer sensitivity and SINR needs), down-clamped by the link's rate cap.
  const net::Link& l = network_->link(link);
  return l.alive && rate < rate_table().size() &&
         rate >= std::max(l.best_rate_alone, l.rate_cap);
}

bool PhysicalInterferenceModel::shares_node(net::LinkId a, net::LinkId b) const {
  const net::Link& la = network_->link(a);
  const net::Link& lb = network_->link(b);
  return la.tx == lb.tx || la.tx == lb.rx || la.rx == lb.tx || la.rx == lb.rx;
}

bool PhysicalInterferenceModel::interferes(net::LinkId a, phy::RateIndex ra,
                                           net::LinkId b, phy::RateIndex rb) const {
  MRWSN_REQUIRE(a != b, "the interferes relation is over distinct links");
  MRWSN_REQUIRE(a < num_links() && b < num_links(), "link id out of range");

  const net::Link& la = network_->links()[a];
  const net::Link& lb = network_->links()[b];
  if (la.tx == lb.tx || la.tx == lb.rx || la.rx == lb.tx || la.rx == lb.rx)
    return true;  // half-duplex radios

  // Eq. 3 between two links needs four received powers: each side's signal
  // and the other transmitter's interference at its receiver. A side
  // succeeds iff its rate cap allows the requested rate and that rate's
  // sensitivity and SINR thresholds hold. RateTable's thresholds never rise
  // as the rate drops, so this is exactly "the side's PhyModel::max_rate
  // under that interference is at least as fast as the requested rate".
  const phy::PhyModel& phy = network_->phy();
  const auto decodes = [&](const net::Link& self, const net::Link& other,
                           phy::RateIndex rate) {
    if (self.rate_cap > rate) return false;
    const phy::Rate& need = phy.rates()[std::min(rate, phy.rates().size() - 1)];
    const double signal = rx_power(self.tx, self.rx);
    return signal >= need.rx_sensitivity_watt &&
           phy.sinr(signal, rx_power(other.tx, self.rx)) >= need.sinr_min_linear;
  };
  return !(decodes(la, lb, ra) && decodes(lb, la, rb));
}

bool PhysicalInterferenceModel::supports(
    std::span<const net::LinkId> links,
    std::span<const phy::RateIndex> rates) const {
  MRWSN_REQUIRE(links.size() == rates.size(), "links/rates must be parallel");
  const auto best = max_rate_vector(links);
  if (!best) return false;
  for (std::size_t i = 0; i < links.size(); ++i) {
    // Rate indices are fastest-first: requested rate must be no faster
    // than the concurrent maximum.
    if (rates[i] < (*best)[i]) return false;
  }
  return true;
}

std::optional<std::vector<phy::RateIndex>> PhysicalInterferenceModel::max_rate_vector(
    std::span<const net::LinkId> links) const {
  const phy::PhyModel& phy = network_->phy();
  std::vector<phy::RateIndex> rates;
  rates.reserve(links.size());
  for (std::size_t j = 0; j < links.size(); ++j) {
    const net::Link& lj = network_->link(links[j]);
    if (!lj.alive) return std::nullopt;
    double interference = 0.0;
    for (std::size_t k = 0; k < links.size(); ++k) {
      if (k == j) continue;
      if (shares_node(links[j], links[k])) return std::nullopt;
      interference += rx_power(network_->link(links[k]).tx, lj.rx);
    }
    const double signal = rx_power(lj.tx, lj.rx);
    const auto rate = phy.max_rate(signal, interference);
    if (!rate) return std::nullopt;
    // A slower rate is always decodable when a faster one is, so the cap
    // clamp never invalidates the set.
    rates.push_back(std::max(*rate, lj.rate_cap));
  }
  return rates;
}

namespace {

/// Depth-first enumeration of every feasible concurrent transmission set
/// over a link universe, emitting exactly the paper-maximal ones: sets
/// where inserting any further link would lower or zero a member's rate
/// (Section 2.4's definition of a maximal independent set).
///
/// Feasibility under cumulative SINR is hereditary (removing a link only
/// reduces interference), so the subset lattice can be pruned as soon as a
/// set becomes infeasible.
class PhysicalMisEnumerator {
 public:
  PhysicalMisEnumerator(const PhysicalInterferenceModel& model,
                        std::vector<net::LinkId> universe)
      : phy_(model.network().phy()), universe_(std::move(universe)) {
    const net::Network& network = model.network();
    const std::size_t n = universe_.size();
    signal_.resize(n);
    alive_.resize(n);
    rate_cap_.resize(n);
    cross_power_.assign(n, std::vector<double>(n, 0.0));
    shares_.assign(n, std::vector<char>(n, 0));
    for (std::size_t u = 0; u < n; ++u) {
      const net::Link& lu = network.link(universe_[u]);
      signal_[u] = model.rx_power(lu.tx, lu.rx);
      alive_[u] = lu.alive ? 1 : 0;
      rate_cap_[u] = lu.rate_cap;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == u) continue;
        const net::Link& lk = network.link(universe_[k]);
        cross_power_[k][u] = model.rx_power(lk.tx, lu.rx);
        shares_[k][u] = (lu.tx == lk.tx || lu.tx == lk.rx || lu.rx == lk.tx ||
                         lu.rx == lk.rx)
                            ? 1
                            : 0;
      }
    }
    interference_.assign(n, 0.0);
    blocked_.assign(n, 0);
    in_set_.assign(n, 0);
  }

  std::vector<IndependentSet> run() {
    dfs(0);
    return std::move(out_);
  }

 private:
  /// Max supported rate of universe member `u` given current interference
  /// plus `extra` watts; nullopt when no rate works (a dead link never
  /// works, however strong its residual signal). The running sum can drift
  /// a hair below zero after push/pop pairs; clamp it. The link's rate cap
  /// clamps the result (smaller index = faster).
  std::optional<phy::RateIndex> rate_of(std::size_t u, double extra) const {
    if (alive_[u] == 0) return std::nullopt;
    const auto rate =
        phy_.max_rate(signal_[u], std::max(interference_[u], 0.0) + extra);
    if (!rate) return std::nullopt;
    return std::max(*rate, rate_cap_[u]);
  }

  void dfs(std::size_t start) {
    if (!members_.empty()) maybe_emit();
    for (std::size_t v = start; v < universe_.size(); ++v) {
      if (blocked_[v] != 0) continue;
      if (!extension_feasible(v)) continue;
      push(v);
      dfs(v + 1);
      pop(v);
    }
  }

  /// Can `v` join the current set with every member (and `v`) keeping a
  /// positive rate?
  bool extension_feasible(std::size_t v) const {
    if (!rate_of(v, 0.0)) return false;
    for (std::size_t j : members_) {
      if (shares_[v][j] != 0) return false;
      if (!rate_of(j, cross_power_[v][j])) return false;
    }
    return true;
  }

  /// Emit the current set unless some link outside it could be inserted
  /// without lowering any member's current max rate (then a dominating
  /// superset exists and this set is not maximal in the paper's sense).
  void maybe_emit() {
    for (std::size_t v = 0; v < universe_.size(); ++v) {
      if (in_set_[v] != 0 || blocked_[v] != 0) continue;
      if (!rate_of(v, 0.0)) continue;
      bool preserves_all = true;
      for (std::size_t j : members_) {
        if (shares_[v][j] != 0) {
          preserves_all = false;
          break;
        }
        const auto with_v = rate_of(j, cross_power_[v][j]);
        // Rates are indices, smaller = faster; "preserved" means the rate
        // stays exactly the member's current max.
        if (!with_v || *with_v > current_rate_[j]) {
          preserves_all = false;
          break;
        }
      }
      if (preserves_all) return;  // dominated; the superset will be emitted
    }

    IndependentSet set;
    set.links.reserve(members_.size());
    set.rates.reserve(members_.size());
    set.mbps.reserve(members_.size());
    for (std::size_t j : members_) {  // members_ is in ascending order
      set.links.push_back(universe_[j]);
      set.rates.push_back(current_rate_[j]);
      set.mbps.push_back(phy_.rates()[current_rate_[j]].mbps);
    }
    MRWSN_ASSERT(out_.size() < kMaxSets,
                 "independent-set enumeration exceeded the safety limit");
    out_.push_back(std::move(set));
  }

  void push(std::size_t v) {
    members_.push_back(v);
    in_set_[v] = 1;
    for (std::size_t u = 0; u < universe_.size(); ++u) {
      if (u == v) continue;
      interference_[u] += cross_power_[v][u];
      blocked_[u] += shares_[v][u];
    }
    refresh_rates();
  }

  void pop(std::size_t v) {
    members_.pop_back();
    in_set_[v] = 0;
    for (std::size_t u = 0; u < universe_.size(); ++u) {
      if (u == v) continue;
      interference_[u] -= cross_power_[v][u];
      blocked_[u] -= shares_[v][u];
    }
    refresh_rates();
  }

  void refresh_rates() {
    current_rate_.assign(universe_.size(), 0);
    for (std::size_t j : members_) {
      const auto rate = rate_of(j, 0.0);
      MRWSN_ASSERT(rate.has_value(), "member of a feasible set lost its rate");
      current_rate_[j] = *rate;
    }
  }

  static constexpr std::size_t kMaxSets = 1u << 20;

  const phy::PhyModel& phy_;
  std::vector<net::LinkId> universe_;
  std::vector<double> signal_;                    // by universe index
  std::vector<char> alive_;                       // link liveness, by index
  std::vector<phy::RateIndex> rate_cap_;          // per-link rate caps
  std::vector<std::vector<double>> cross_power_;  // [member][victim]
  std::vector<std::vector<char>> shares_;         // node-sharing flags
  std::vector<double> interference_;              // current, by universe index
  std::vector<int> blocked_;                      // node-sharing member count
  std::vector<char> in_set_;
  std::vector<std::size_t> members_;              // ascending universe indices
  std::vector<phy::RateIndex> current_rate_;      // valid for members
  std::vector<IndependentSet> out_;
};

}  // namespace

std::shared_ptr<const PricingContext> PricingCache::find(
    std::span<const net::LinkId> universe) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_)
    if (entry->universe.size() == universe.size() &&
        std::equal(universe.begin(), universe.end(), entry->universe.begin()))
      return entry;
  return nullptr;
}

std::shared_ptr<const PricingContext> PricingCache::get(
    const PhysicalInterferenceModel& model, std::vector<net::LinkId> universe) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_)
    if (entry->universe == universe) return entry;

  // Same per-universe precomputation as PhysicalMisEnumerator, hoisted so
  // every pricing round over this universe reuses it.
  auto ctx = std::make_shared<PricingContext>();
  ctx->universe = std::move(universe);
  const net::Network& network = model.network();
  ctx->phy = &network.phy();
  const std::size_t n = ctx->universe.size();
  ctx->signal.resize(n);
  ctx->cross_power.assign(n * n, 0.0);
  ctx->shares.assign(n * n, 0);
  ctx->alone_usable.assign(n, 0);
  ctx->alone_rate.assign(n, 0);
  ctx->alone_mbps.assign(n, 0.0);
  ctx->rate_cap.assign(n, 0);
  // Hoist the link endpoints once so the O(n^2) fill below is pure table
  // lookups — for an engine-wide universe this loop is the whole cost of
  // warming the context.
  std::vector<net::NodeId> tx(n), rx(n);
  for (std::size_t u = 0; u < n; ++u) {
    const net::Link& lu = network.link(ctx->universe[u]);
    tx[u] = lu.tx;
    rx[u] = lu.rx;
    ctx->signal[u] = model.rx_power(lu.tx, lu.rx);
    ctx->rate_cap[u] = lu.rate_cap;
    if (const auto rate = model.max_rate_alone(ctx->universe[u])) {
      ctx->alone_usable[u] = 1;
      ctx->alone_rate[u] = *rate;
      ctx->alone_mbps[u] = ctx->phy->rates()[*rate].mbps;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      if (k == u) continue;
      ctx->cross_power[k * n + u] = model.rx_power(tx[k], rx[u]);
      ctx->shares[k * n + u] = (rx[u] == tx[k] || rx[u] == rx[k] ||
                                tx[u] == tx[k] || tx[u] == rx[k])
                                   ? 1
                                   : 0;
    }
  }
  entries_.push_back(std::move(ctx));
  return entries_.back();
}

void PricingCache::patch(const PhysicalInterferenceModel& model,
                         const std::vector<char>& link_affected) {
  const auto affected = [&](net::LinkId link) {
    return link < link_affected.size() && link_affected[link] != 0;
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_) {
    const std::size_t n = entry->universe.size();
    std::vector<std::size_t> touched;  // universe positions
    for (std::size_t u = 0; u < n; ++u)
      if (affected(entry->universe[u])) touched.push_back(u);
    if (touched.empty()) continue;

    // Copy-on-write: readers holding the old shared_ptr keep a consistent
    // pre-mutation context.
    auto ctx = std::make_shared<PricingContext>(*entry);
    const net::Network& network = model.network();
    for (const std::size_t u : touched) {
      const net::Link& lu = network.link(ctx->universe[u]);
      ctx->signal[u] = model.rx_power(lu.tx, lu.rx);
      ctx->rate_cap[u] = lu.rate_cap;
      ctx->alone_usable[u] = 0;
      ctx->alone_rate[u] = 0;
      ctx->alone_mbps[u] = 0.0;
      if (const auto rate = model.max_rate_alone(ctx->universe[u])) {
        ctx->alone_usable[u] = 1;
        ctx->alone_rate[u] = *rate;
        ctx->alone_mbps[u] = ctx->phy->rates()[*rate].mbps;
      }
      // An affected link's transmitter may have moved or changed power
      // (row u) and its receiver may have moved (column u); node-sharing
      // flags depend only on the immutable endpoints and stay put.
      for (std::size_t k = 0; k < n; ++k) {
        if (k == u) continue;
        const net::Link& lk = network.link(ctx->universe[k]);
        ctx->cross_power[u * n + k] = model.rx_power(lu.tx, lk.rx);
        ctx->cross_power[k * n + u] = model.rx_power(lk.tx, lu.rx);
      }
    }
    entry = std::move(ctx);
  }
}

void PricingCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::shared_ptr<const PricingContext>
PhysicalInterferenceModel::pricing_context(
    std::span<const net::LinkId> universe) const {
  MRWSN_REQUIRE(strictly_ascending(universe),
                "pricing universe must be canonical (weights are positional)");
  // A cached key was range-checked when it was inserted, so a hit skips
  // both the id checks and the universe copy. Every oracle on one universe
  // shares the context, so mixing tiers warms it exactly once.
  if (auto context = pricing_cache().find(universe)) return context;
  std::vector<net::LinkId> links(universe.begin(), universe.end());
  for (net::LinkId link : links)
    MRWSN_REQUIRE(link < network_->num_links(),
                  "universe link id out of range");
  return pricing_cache().get(*this, std::move(links));
}

MaxWeightSetResult PhysicalInterferenceModel::max_weight_independent_set(
    std::span<const net::LinkId> universe, std::span<const double> link_weight,
    double floor) const {
  return max_weight_independent_set_physical(*pricing_context(universe),
                                             link_weight, floor);
}

MaxWeightSetResult PhysicalInterferenceModel::heuristic_max_weight_independent_set(
    std::span<const net::LinkId> universe, std::span<const double> link_weight,
    double floor, std::size_t starts) const {
  return heuristic_weight_independent_set_physical(*pricing_context(universe),
                                                   link_weight, floor, starts);
}

double PhysicalInterferenceModel::max_weight_upper_bound(
    std::span<const net::LinkId> universe,
    std::span<const double> link_weight) const {
  return max_weight_upper_bound_physical(*pricing_context(universe),
                                         link_weight);
}

std::vector<IndependentSet> PhysicalInterferenceModel::maximal_independent_sets(
    std::span<const net::LinkId> universe) const {
  // Memo hit for an already-canonical universe needs no copy of it at all
  // (a cached key implies the ids were range-checked when it was inserted).
  std::vector<IndependentSet> sets;
  if (strictly_ascending(universe) && mis_cache().find(universe, &sets))
    return sets;

  auto links = canonical_universe(universe);
  for (net::LinkId link : links)
    MRWSN_REQUIRE(link < network_->num_links(), "universe link id out of range");

  if (mis_cache().find(links, &sets)) return sets;
  PhysicalMisEnumerator enumerator(*this, links);
  sets = enumerator.run();
  mis_cache().insert(std::move(links), sets);
  return sets;
}

// ---------------------------------------------------------------------------
// ProtocolInterferenceModel
// ---------------------------------------------------------------------------

ProtocolInterferenceModel::ProtocolInterferenceModel(std::size_t num_links,
                                                     phy::RateTable rates)
    : num_links_(num_links), rates_(std::move(rates)) {
  MRWSN_REQUIRE(num_links > 0, "a protocol model needs at least one link");
  const std::size_t dim = num_links_ * rates_.size();
  conflict_.assign(dim * dim, 0);
  usable_.assign(num_links_, std::vector<char>(rates_.size(), 1));
}

std::size_t ProtocolInterferenceModel::index(net::LinkId link,
                                             phy::RateIndex rate) const {
  MRWSN_REQUIRE(link < num_links_, "link id out of range");
  MRWSN_REQUIRE(rate < rates_.size(), "rate index out of range");
  return link * rates_.size() + rate;
}

void ProtocolInterferenceModel::add_conflict(net::LinkId a, phy::RateIndex ra,
                                             net::LinkId b, phy::RateIndex rb) {
  MRWSN_REQUIRE(a != b, "conflicts are between distinct links");
  const std::size_t dim = num_links_ * rates_.size();
  conflict_[index(a, ra) * dim + index(b, rb)] = 1;
  conflict_[index(b, rb) * dim + index(a, ra)] = 1;
  patch_after_mutation(a, b);
}

void ProtocolInterferenceModel::add_conflict_all_rates(net::LinkId a, net::LinkId b) {
  MRWSN_REQUIRE(a != b, "conflicts are between distinct links");
  const std::size_t dim = num_links_ * rates_.size();
  for (phy::RateIndex ra = 0; ra < rates_.size(); ++ra) {
    for (phy::RateIndex rb = 0; rb < rates_.size(); ++rb) {
      conflict_[index(a, ra) * dim + index(b, rb)] = 1;
      conflict_[index(b, rb) * dim + index(a, ra)] = 1;
    }
  }
  patch_after_mutation(a, b);
}

void ProtocolInterferenceModel::set_usable_rates(net::LinkId link,
                                                 std::vector<char> usable) {
  MRWSN_REQUIRE(link < num_links_, "link id out of range");
  MRWSN_REQUIRE(usable.size() == rates_.size(),
                "usable flags must cover every rate");
  usable_[link] = std::move(usable);
  patch_after_mutation(link, link);
}

void ProtocolInterferenceModel::patch_after_mutation(net::LinkId a,
                                                     net::LinkId b) {
  // A table edit touches only links a (and b): conflict matrices keep every
  // pair bit between other links, and only MIS memos naming a or b drop.
  std::vector<char> link_affected(num_links_, 0);
  link_affected[a] = 1;
  link_affected[b] = 1;
  patch_caches(link_affected);
}

std::optional<phy::RateIndex> ProtocolInterferenceModel::max_rate_alone(
    net::LinkId link) const {
  MRWSN_REQUIRE(link < num_links_, "link id out of range");
  for (phy::RateIndex r = 0; r < rates_.size(); ++r)
    if (usable_[link][r]) return r;
  return std::nullopt;
}

bool ProtocolInterferenceModel::usable_alone(net::LinkId link,
                                             phy::RateIndex rate) const {
  MRWSN_REQUIRE(link < num_links_, "link id out of range");
  return rate < rates_.size() && usable_[link][rate] != 0;
}

bool ProtocolInterferenceModel::interferes(net::LinkId a, phy::RateIndex ra,
                                           net::LinkId b, phy::RateIndex rb) const {
  MRWSN_REQUIRE(a != b, "the interferes relation is over distinct links");
  const std::size_t dim = num_links_ * rates_.size();
  return conflict_[index(a, ra) * dim + index(b, rb)] != 0;
}

bool ProtocolInterferenceModel::supports(
    std::span<const net::LinkId> links,
    std::span<const phy::RateIndex> rates) const {
  MRWSN_REQUIRE(links.size() == rates.size(), "links/rates must be parallel");
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!usable_alone(links[i], rates[i])) return false;
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      MRWSN_REQUIRE(links[i] != links[j], "supports() needs distinct links");
      if (interferes(links[i], rates[i], links[j], rates[j])) return false;
    }
  }
  return true;
}

std::vector<IndependentSet> ProtocolInterferenceModel::maximal_independent_sets(
    std::span<const net::LinkId> universe) const {
  std::vector<IndependentSet> sets;
  if (strictly_ascending(universe) && mis_cache().find(universe, &sets))
    return sets;

  auto links = canonical_universe(universe);
  for (net::LinkId link : links)
    MRWSN_REQUIRE(link < num_links_, "universe link id out of range");

  if (mis_cache().find(links, &sets)) return sets;

  // Vertices: usable (link, rate) couples of the memoized conflict matrix.
  // Its compat rows connect exactly the compatible couples of distinct
  // links, so maximal cliques of that graph are the maximal rate-coupled
  // independent sets (couples of the same link stay mutually exclusive
  // because they share no edge). Couples are ordered (link asc, rate asc)
  // and cliques come back sorted by couple index, i.e. already by link.
  const auto matrix = conflict_matrix(links);
  const auto& couples = matrix->couples();
  for (const auto& clique : graph::maximal_cliques(matrix->compat_bits())) {
    IndependentSet set;
    set.links.reserve(clique.size());
    set.rates.reserve(clique.size());
    set.mbps.reserve(clique.size());
    for (std::size_t v : clique) {
      set.links.push_back(couples[v].link);
      set.rates.push_back(couples[v].rate);
      set.mbps.push_back(rates_[couples[v].rate].mbps);
    }
    sets.push_back(std::move(set));
  }
  // Graph-maximal cliques can still pick a needlessly low rate for a link
  // whose higher rate is equally compatible; those columns are dominated.
  sets = remove_dominated(std::move(sets));
  mis_cache().insert(std::move(links), sets);
  return sets;
}

MaxWeightSetResult ProtocolInterferenceModel::max_weight_independent_set(
    std::span<const net::LinkId> universe, std::span<const double> link_weight,
    double floor) const {
  MRWSN_REQUIRE(strictly_ascending(universe),
                "pricing universe must be canonical (weights are positional)");
  // conflict_matrix() memoizes per universe and range-checks the link ids.
  const auto matrix = conflict_matrix(universe);
  return max_weight_independent_set_protocol(*matrix, rates_, link_weight,
                                             floor);
}

MaxWeightSetResult ProtocolInterferenceModel::heuristic_max_weight_independent_set(
    std::span<const net::LinkId> universe, std::span<const double> link_weight,
    double floor, std::size_t starts) const {
  MRWSN_REQUIRE(strictly_ascending(universe),
                "pricing universe must be canonical (weights are positional)");
  const auto matrix = conflict_matrix(universe);
  return heuristic_weight_independent_set_protocol(*matrix, rates_, link_weight,
                                                   floor, starts);
}

double ProtocolInterferenceModel::max_weight_upper_bound(
    std::span<const net::LinkId> universe,
    std::span<const double> link_weight) const {
  MRWSN_REQUIRE(strictly_ascending(universe),
                "pricing universe must be canonical (weights are positional)");
  const auto matrix = conflict_matrix(universe);
  return max_weight_upper_bound_protocol(*matrix, rates_, link_weight);
}

}  // namespace mrwsn::core
