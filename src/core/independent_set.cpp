#include "core/independent_set.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "core/conflict_matrix.hpp"
#include "phy/phy_model.hpp"
#include "phy/sinr_edges.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {

double IndependentSet::mbps_on(net::LinkId link) const {
  const auto it = std::lower_bound(links.begin(), links.end(), link);
  if (it == links.end() || *it != link) return 0.0;
  return mbps[static_cast<std::size_t>(it - links.begin())];
}

std::vector<std::uint64_t> column_signature(const IndependentSet& set) {
  std::vector<std::uint64_t> key;
  key.reserve(set.links.size());
  for (std::size_t i = 0; i < set.links.size(); ++i)
    key.push_back((static_cast<std::uint64_t>(set.links[i]) << 16) |
                  static_cast<std::uint64_t>(set.rates[i]));
  return key;
}

bool IndependentSet::dominated_by(const IndependentSet& other) const {
  // Both link arrays are sorted ascending: one merged scan replaces a
  // binary search per member.
  std::size_t j = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    while (j < other.links.size() && other.links[j] < links[i]) ++j;
    const double other_mbps =
        (j < other.links.size() && other.links[j] == links[i]) ? other.mbps[j]
                                                               : 0.0;
    if (other_mbps < mbps[i]) return false;
  }
  return true;
}

std::vector<IndependentSet> remove_dominated(std::vector<IndependentSet> sets) {
  const std::size_t n = sets.size();
  if (n <= 1) return sets;
  std::vector<char> dead(n, 0);

  // Pass 1: collapse exact duplicates (same links and mbps — i.e. the same
  // throughput column) onto their first occurrence. Sorting by signature
  // finds every duplicate run at once instead of probing mutual domination
  // for all pairs.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sets[a].links != sets[b].links) return sets[a].links < sets[b].links;
    if (sets[a].mbps != sets[b].mbps) return sets[a].mbps < sets[b].mbps;
    return a < b;  // ties by index: the run leader is the earliest
  });
  for (std::size_t s = 0; s < n;) {
    std::size_t e = s + 1;
    while (e < n && sets[order[e]].links == sets[order[s]].links &&
           sets[order[e]].mbps == sets[order[s]].mbps)
      ++e;
    for (std::size_t k = s + 1; k < e; ++k) dead[order[k]] = 1;
    s = e;
  }

  // Pass 2: drop every remaining set strictly dominated by another
  // representative. Domination is transitive, so comparing against dead
  // representatives is unnecessary: any chain of dominators ends at a
  // surviving set that also dominates the start.
  std::vector<std::size_t> alive;
  alive.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!dead[i]) alive.push_back(i);
  for (std::size_t a : alive) {
    for (std::size_t b : alive) {
      if (a == b || !sets[a].dominated_by(sets[b])) continue;
      // Equal columns were deduplicated above, but guard against mutual
      // domination anyway: keep the earlier set, as the quadratic scan did.
      if (sets[b].dominated_by(sets[a]) && a < b) continue;
      dead[a] = 1;
      break;
    }
  }

  std::vector<IndependentSet> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!dead[i]) kept.push_back(std::move(sets[i]));
  return kept;
}

// ---------------------------------------------------------------------------
// Max-weight pricing oracles
// ---------------------------------------------------------------------------

namespace {

/// Root-split threshold: below this many roots the thread fan-out costs
/// more than the search.
constexpr std::size_t kParallelRootThreshold = 16;

/// How many beaten-best runner-up sets a search keeps (the most recent
/// ones — they score closest to the optimum and make the best extra
/// columns).
constexpr std::size_t kMaxExtras = 3;

/// Relative band within which two pricing weights count as tied. A
/// degenerate master prices many sets at the same weight, and round-off in
/// its duals moves those weights by a few ulps between builds (FMA
/// contraction, summation order), so the exact searches break ties by
/// signature instead of by which tied set they reached first.
constexpr double kWeightTieTol = 1e-9;

double tie_band(double weight) {
  return kWeightTieTol * std::max(1.0, std::abs(weight));
}

double padded(double bound) { return bound + bound * kBoundPad; }

/// The canonical order among tied sets: the larger set first (it delivers
/// on more links at the same weight), then the lower signature.
bool tie_preferred(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return a < b;
}

/// True when a set of weight at most `optimistic` can never become the
/// incumbent of a search above `floor` whose highest weight seen is `top`.
bool below_band(double optimistic, double floor, double top) {
  return optimistic <= floor || optimistic < top - tie_band(top);
}

/// The exact searches' incumbent. `top` is the highest weight seen so far
/// and drives pruning, so the true maximum is never cut off; the incumbent
/// itself is the tie_preferred set among those within the tie band of
/// `top` (signatures are ascending integer keys, canonical per set).
class Incumbent {
 public:
  explicit Incumbent(double floor)
      : floor_(floor), top_(floor), weight_(floor) {}

  double top() const { return top_; }
  double weight() const { return weight_; }
  const std::vector<std::uint64_t>& signature() const { return signature_; }

  /// True when no set of weight at most `optimistic` can become the
  /// incumbent or raise top().
  bool prunes(double optimistic) const {
    return below_band(optimistic, floor_, top_);
  }

  /// Offer a set of weight `w`; `signature_of()` yields its signature.
  /// Returns true when the set becomes the new incumbent.
  template <typename SignatureFn>
  bool offer(double w, SignatureFn&& signature_of) {
    if (w <= floor_) return false;
    top_ = std::max(top_, w);
    const double band = top_ - tie_band(top_);
    // An incumbent still inside the band yields only to a tied set that
    // precedes it in the canonical order; one the new top left behind
    // yields unconditionally (the offered set is then the top itself).
    if (!signature_.empty() && weight_ >= band) {
      if (w < band) return false;
      std::vector<std::uint64_t> candidate = signature_of();
      if (!tie_preferred(candidate, signature_)) return false;
      signature_ = std::move(candidate);
    } else {
      signature_ = signature_of();
    }
    weight_ = w;
    return true;
  }

 private:
  double floor_;
  double top_;
  double weight_;
  std::vector<std::uint64_t> signature_;
};

/// One exact search's incumbent chain: the Incumbent, the set it holds,
/// and the beaten former bests — each itself a feasible set above the
/// floor, kept as runner-up extras (oldest first, the most recent
/// kMaxExtras).
template <typename Set>
struct Chain {
  explicit Chain(double floor) : best(floor) {}

  /// Offer a set of weight `w`; `signature_of()` and `set_of()` yield its
  /// signature and the set itself, each only when needed.
  template <typename SignatureFn, typename SetFn>
  void offer(double w, SignatureFn&& signature_of, SetFn&& set_of) {
    if (!best.offer(w, signature_of)) return;
    if (!set.empty()) {
      if (extras.size() == kMaxExtras) extras.erase(extras.begin());
      extras.push_back(std::move(set));
    }
    set = set_of();
  }

  Incumbent best;
  Set set;
  std::vector<Set> extras;
};

/// Clear bits 0..v of `row` (keep strictly-greater indices only) — the
/// ordered-enumeration mask that makes every couple combination appear on
/// exactly one DFS path.
void bits_keep_above(util::BitWord* row, std::size_t v) {
  const std::size_t word = v / util::kBitsPerWord;
  const std::size_t bit = v % util::kBitsPerWord;
  for (std::size_t w = 0; w < word; ++w) row[w] = 0;
  row[word] &= (bit + 1 == util::kBitsPerWord)
                   ? util::BitWord{0}
                   : ~((util::BitWord{1} << (bit + 1)) - 1);
}

/// Read-only inputs shared by every root of one protocol pricing run.
struct ProtocolPricerData {
  const ConflictMatrix* matrix = nullptr;
  std::size_t words = 0;
  std::vector<double> weight;        ///< per couple: link weight * rate mbps
  std::vector<util::BitWord> pool;   ///< couples with positive weight
  std::vector<std::size_t> roots;    ///< the pool's couples, ascending
};

/// Optimistic weight of any clique within candidate set `p`: couples are
/// ordered by link, so one ascending scan picks the best couple of each
/// link run (a clique can use at most one).
double link_run_bound(const ProtocolPricerData& data, const util::BitWord* p) {
  const auto& couples = data.matrix->couples();
  double total = 0.0;
  double run_max = 0.0;
  net::LinkId run_link = 0;
  bool in_run = false;
  util::bits_for_each(p, data.words, [&](std::size_t v) {
    const net::LinkId link = couples[v].link;
    if (!in_run || link != run_link) {
      total += run_max;
      run_max = 0.0;
      run_link = link;
      in_run = true;
    }
    run_max = std::max(run_max, data.weight[v]);
  });
  return total + run_max;
}

/// Branch-and-bound search for the maximum-weight clique of the
/// compatibility graph, i.e. the max-weight rate-coupled independent set
/// under the protocol model. One instance serves one root (or, on the
/// sequential path, all roots in ascending order with a carried best —
/// both yield the identical final answer because every set tied with the
/// optimum is visited regardless of the starting floor, and the tie is
/// broken by the same canonical order either way).
class ProtocolRootSearch {
 public:
  using Set = std::vector<std::size_t>;  ///< couple indices, ascending

  ProtocolRootSearch(const ProtocolPricerData& data, double floor)
      : data_(data), chain_(floor) {
    // A clique holds at most one couple per universe link.
    buffers_.assign(data_.matrix->universe().size() + 1,
                    std::vector<util::BitWord>(data_.words, 0));
  }

  /// Upper bound on every clique whose lowest couple is data_.roots[root].
  double root_bound(std::size_t root) {
    const std::size_t v0 = data_.roots[root];
    return padded(data_.weight[v0] +
                  link_run_bound(data_, root_candidates(v0)));
  }

  /// Explore every clique whose lowest couple is data_.roots[root].
  void run(std::size_t root) {
    const std::size_t v0 = data_.roots[root];
    members_.assign(1, v0);
    const double w = data_.weight[v0];
    consider(w);
    if (!util::bits_none(root_candidates(v0), data_.words)) dfs(1, w);
  }

  const Chain<Set>& chain() const { return chain_; }
  Chain<Set> take_chain() { return std::move(chain_); }

 private:
  /// Fill buffers_[0] with the couples that may join root couple `v0`.
  const util::BitWord* root_candidates(std::size_t v0) {
    auto& p = buffers_[0];
    util::bits_and(p.data(), data_.pool.data(), data_.matrix->compat_row(v0),
                   data_.words);
    bits_keep_above(p.data(), v0);
    return p.data();
  }

  void dfs(std::size_t depth, double current) {
    const util::BitWord* p = buffers_[depth - 1].data();
    if (chain_.best.prunes(current + link_run_bound(data_, p))) return;
    util::bits_for_each(p, data_.words, [&](std::size_t v) {
      const double w = current + data_.weight[v];
      members_.push_back(v);
      consider(w);
      auto& next = buffers_[depth];
      util::bits_and(next.data(), p, data_.matrix->compat_row(v), data_.words);
      bits_keep_above(next.data(), v);
      if (!util::bits_none(next.data(), data_.words)) dfs(depth + 1, w);
      members_.pop_back();
    });
  }

  /// Offer the current members (couple indices ascending, so the list
  /// itself is the signature) to the incumbent.
  void consider(double w) {
    chain_.offer(
        w,
        [&] {
          return std::vector<std::uint64_t>(members_.begin(), members_.end());
        },
        [&] { return members_; });
  }

  const ProtocolPricerData& data_;
  Chain<Set> chain_;
  std::vector<std::size_t> members_;  ///< couple indices, ascending
  std::vector<std::vector<util::BitWord>> buffers_;  ///< candidate set per depth
};

/// Read-only inputs shared by every root of one physical pricing run.
struct PhysicalPricerData {
  const PricingContext* ctx = nullptr;
  std::span<const double> link_weight;  ///< by universe position
  std::vector<double> w_alone;          ///< link weight * alone mbps
  std::vector<std::size_t> order;       ///< candidates, descending w_alone
};

/// PhysicalPricerData's candidates re-indexed densely by their rank in
/// `order` (a "slot"), so a search reads contiguous rows and its state
/// scales with the candidates, not the universe. Both physical searches
/// run on it and read every concurrent rate from its SINR edge table; the
/// exact one adds a clique cover of the candidates for its node bound
/// (add_clique_cover).
struct PhysicalSearchData {
  const PhysicalPricerData* pricer = nullptr;
  std::size_t size = 0;        ///< number of candidates (slots)
  phy::SinrEdgeTable edges;    ///< by slot: signal and rate cap
  std::vector<double> weight;  ///< link weight, by slot
  std::vector<double> cross;  ///< [a * size + b]: a's power at b's receiver
  std::vector<char> shares;   ///< [a * size + b]: a and b share a node
  std::vector<std::size_t> clique;  ///< by slot: its clique of the cover
  std::size_t num_cliques = 0;      ///< 0 until add_clique_cover
};

/// A physical search's set: universe positions and their concurrent rates,
/// in insertion order.
struct PhysicalSet {
  std::vector<std::size_t> members;
  std::vector<phy::RateIndex> rates;
  bool empty() const { return members.empty(); }
};

/// Canonical signature of a physical set: its (universe position, rate)
/// couples, sorted. Protocol sets use their ascending couple-index lists
/// directly.
std::vector<std::uint64_t> physical_signature(
    const std::vector<std::size_t>& members,
    const std::vector<phy::RateIndex>& rates) {
  std::vector<std::uint64_t> sig(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    sig[i] = (static_cast<std::uint64_t>(members[i]) << 16) |
             static_cast<std::uint64_t>(rates[i]);
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// Branch-and-bound max-weight independent set under cumulative SINR.
/// Tracks interference exactly like PhysicalMisEnumerator so each member's
/// rate is its true concurrent maximum. A subtree's optimistic bound is the
/// members' weight (their rates only degrade in supersets) plus, for each
/// clique of the cover, the best score among its later candidates that can
/// still join the members, each scored at its rate under the members'
/// interference (a superset can only add interference, and holds at most
/// one link per clique). Each child is bounded the same way over the
/// candidates after it, before it is even pushed.
///
/// A child's candidates are the tail of its parent's addable list after
/// the pushed slot: down the tree `blocked` and every interference sum
/// only grow (rounded addition of a non-negative term is monotone), and so
/// does every member's interference with a newcomer, so a slot that cannot
/// join a node cannot join any descendant. For the same reason a node
/// updates the state of its members and candidates only: no descendant
/// reads any other slot.
class PhysicalRootSearch {
 public:
  using Set = PhysicalSet;

  PhysicalRootSearch(const PhysicalSearchData& data, double floor)
      : data_(data),
        chain_(floor),
        levels_(data.size + 1),
        slots_(data.size),
        clique_best_(data.num_cliques, 0.0) {
    levels_[0].interference.assign(data_.size, 0.0);
    levels_[0].blocked.assign(data_.size, 0);
    std::iota(slots_.begin(), slots_.end(), std::size_t{0});
  }

  /// Upper bound on every set whose first member (in slot order) is `root`.
  double root_bound(std::size_t root) {
    push(root, later(root));
    const double bound = scan(later(root), member_weight());
    members_.pop_back();
    return bound;
  }

  /// Explore every set whose first member (in slot order) is `root`.
  void run(std::size_t root) {
    push(root, later(root));
    visit(later(root));
    members_.pop_back();
  }

  const Chain<Set>& chain() const { return chain_; }
  Chain<Set> take_chain() { return std::move(chain_); }

 private:
  using Slots = std::span<const std::size_t>;

  /// The search state with k members lives in levels_[k], derived from
  /// levels_[k - 1] on push, so popping a member restores its parent's
  /// state exactly: a node's state depends only on its member sequence,
  /// never on which other subtrees were searched before it.
  struct Level {
    std::vector<double> interference;  ///< by slot: members and candidates
    std::vector<char> blocked;         ///< by slot: shares a member's node
    std::vector<std::size_t> addable;  ///< candidates scan() found can join
    std::vector<double> bound;  ///< per addable slot: its subtree's bound
  };

  Level& level() { return levels_[members_.size()]; }

  /// Every slot after `root`: the candidates of a root's node.
  Slots later(std::size_t root) const {
    return Slots(slots_).subspan(root + 1);
  }

  /// Add member `a`, deriving the new level's state for the members and
  /// for `candidates`, the slots the new node may still take.
  void push(std::size_t a, Slots candidates) {
    const Level& from = level();
    Level& to = levels_[members_.size() + 1];
    to.interference.resize(data_.size);
    to.blocked.resize(data_.size);
    const double* row = &data_.cross[a * data_.size];
    const char* shares = &data_.shares[a * data_.size];
    const auto derive = [&](std::size_t b) {
      to.interference[b] = from.interference[b] + row[b];
      to.blocked[b] = static_cast<char>(from.blocked[b] | shares[b]);
    };
    for (std::size_t j : members_) derive(j);
    derive(a);
    for (std::size_t b : candidates) derive(b);
    members_.push_back(a);
  }

  /// Total weight of the members at their current concurrent max rates;
  /// fills rates_scratch_ in members_ order as a side effect.
  double member_weight() {
    const phy::RateTable& rates = data_.pricer->ctx->phy->rates();
    const Level& here = level();
    rates_scratch_.clear();
    double total = 0.0;
    for (std::size_t j : members_) {
      const auto rate = data_.edges.rate(j, here.interference[j]);
      MRWSN_ASSERT(rate.has_value(), "member of a feasible set lost its rate");
      rates_scratch_.push_back(*rate);
      total += data_.weight[j] * rates[*rate].mbps;
    }
    return total;
  }

  /// Record in level().addable the `candidates` that can join the current
  /// members (no shared node, every member and the newcomer still decode),
  /// and in level().bound, per addable slot, the optimistic bound of every
  /// set that extends the members by it and later slots only: the
  /// members' weight `current` plus, per clique, the best score among the
  /// addable slots from it on. Returns the bound of the whole subtree.
  double scan(Slots candidates, double current) {
    const phy::RateTable& rates = data_.pricer->ctx->phy->rates();
    const phy::SinrEdgeTable& edges = data_.edges;
    Level& here = level();
    here.addable.clear();
    here.bound.clear();
    for (std::size_t b : candidates) {
      if (here.blocked[b] != 0) continue;
      const auto rate = edges.rate(b, here.interference[b]);
      if (!rate) continue;
      const double* row = &data_.cross[b * data_.size];
      if (!std::all_of(members_.begin(), members_.end(), [&](std::size_t j) {
            return edges.decodes(j, here.interference[j] + row[j]);
          }))
        continue;
      here.addable.push_back(b);
      here.bound.push_back(data_.weight[b] * rates[*rate].mbps);
    }
    // Suffix maxima per clique, from the last addable slot back. Scores
    // are positive, so clique_best_ == 0 marks a clique not seen yet.
    double sum = 0.0;
    for (std::size_t i = here.addable.size(); i-- > 0;) {
      const std::size_t c = data_.clique[here.addable[i]];
      const double score = here.bound[i];
      if (score > clique_best_[c]) {
        if (clique_best_[c] == 0.0) touched_.push_back(c);
        sum += score - clique_best_[c];
        clique_best_[c] = score;
      }
      here.bound[i] = padded(current + sum);
    }
    for (std::size_t c : touched_) clique_best_[c] = 0.0;
    touched_.clear();
    return here.bound.empty() ? padded(current) : here.bound.front();
  }

  void visit(Slots candidates) {
    const double w = member_weight();
    scan(candidates, w);
    consider(w);
    // Deeper levels never touch this one, so the reference (and the
    // addable tails handed to the children) stay valid.
    const Level& here = level();
    for (std::size_t i = 0; i < here.addable.size(); ++i) {
      // The bounds only fall along the list: once one cannot reach the
      // incumbent, no later child can either.
      if (chain_.best.prunes(here.bound[i])) break;
      const Slots tail = Slots(here.addable).subspan(i + 1);
      push(here.addable[i], tail);
      visit(tail);
      members_.pop_back();
    }
  }

  /// The members as universe positions.
  std::vector<std::size_t> positions() const {
    std::vector<std::size_t> out(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i)
      out[i] = data_.pricer->order[members_[i]];
    return out;
  }

  /// Offer the current members (rates in rates_scratch_, as member_weight
  /// left them) to the incumbent.
  void consider(double w) {
    chain_.offer(
        w, [&] { return physical_signature(positions(), rates_scratch_); },
        [&] { return PhysicalSet{positions(), rates_scratch_}; });
  }

  const PhysicalSearchData& data_;
  Chain<Set> chain_;
  std::vector<Level> levels_;         ///< by member count; never resized
  std::vector<std::size_t> slots_;    ///< 0, 1, ..., data_.size - 1
  std::vector<std::size_t> members_;  ///< slots, ascending
  std::vector<phy::RateIndex> rates_scratch_;
  std::vector<double> clique_best_;   ///< scan() scratch, zero between scans
  std::vector<std::size_t> touched_;  ///< scan() scratch: cliques with a score
};

ProtocolPricerData build_protocol_data(const ConflictMatrix& matrix,
                                       const phy::RateTable& rates,
                                       std::span<const double> link_weight) {
  const auto& universe = matrix.universe();
  MRWSN_REQUIRE(link_weight.size() == universe.size(),
                "one weight per universe link required");
  ProtocolPricerData data;
  data.matrix = &matrix;
  data.words = matrix.words();
  const auto& couples = matrix.couples();
  data.weight.resize(couples.size());
  data.pool.assign(data.words, 0);
  std::size_t pos = 0;  // couples are grouped in universe order
  for (std::size_t i = 0; i < couples.size(); ++i) {
    while (universe[pos] != couples[i].link) ++pos;
    MRWSN_REQUIRE(link_weight[pos] >= 0.0, "link weights must be non-negative");
    // Zero-weight couples never improve a clique's score; pruning them up
    // front shrinks the search without touching the optimum.
    data.weight[i] = link_weight[pos] * rates[couples[i].rate].mbps;
    if (data.weight[i] > 0.0) {
      util::bits_set(data.pool.data(), i);
      data.roots.push_back(i);
    }
  }
  return data;
}

PhysicalPricerData build_physical_data(const PricingContext& context,
                                       std::span<const double> link_weight) {
  const std::size_t n = context.size();
  MRWSN_REQUIRE(link_weight.size() == n,
                "one weight per universe link required");
  PhysicalPricerData data;
  data.ctx = &context;
  data.link_weight = link_weight;
  data.w_alone.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    MRWSN_REQUIRE(link_weight[u] >= 0.0, "link weights must be non-negative");
    if (context.alone_usable[u] != 0)
      data.w_alone[u] = link_weight[u] * context.alone_mbps[u];
    // Zero-weight links never help: they add nothing to the objective and
    // their interference can only lower other members' rates.
    if (data.w_alone[u] > 0.0) data.order.push_back(u);
  }
  std::stable_sort(data.order.begin(), data.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return data.w_alone[a] > data.w_alone[b];
                   });
  return data;
}

PhysicalSearchData build_physical_search_data(
    const PhysicalPricerData& pricer) {
  const PricingContext& ctx = *pricer.ctx;
  const std::size_t n = ctx.size();
  const std::size_t m = pricer.order.size();
  PhysicalSearchData data;
  data.pricer = &pricer;
  data.size = m;
  data.edges = phy::SinrEdgeTable(*ctx.phy);
  data.weight.resize(m);
  data.cross.assign(m * m, 0.0);
  data.shares.assign(m * m, 0);
  for (std::size_t a = 0; a < m; ++a) {
    const std::size_t u = pricer.order[a];
    data.edges.add(ctx.signal[u], ctx.rate_cap[u]);
    data.weight[a] = pricer.link_weight[u];
    for (std::size_t b = 0; b < m; ++b) {
      if (b == a) continue;  // a link never interferes with itself
      data.cross[a * m + b] = ctx.cross_power[u * n + pricer.order[b]];
      data.shares[a * m + b] = ctx.shares[u * n + pricer.order[b]];
    }
  }
  return data;
}

void add_clique_cover(PhysicalSearchData& data) {
  const std::size_t m = data.size;
  // Greedy clique cover of the pairwise conflict relation, in slot order:
  // two links conflict when they share a node or either one cannot decode
  // with only the other transmitting. Interference only grows with more
  // transmitters, so no feasible set holds two links of one clique.
  const auto conflict = [&](std::size_t a, std::size_t b) {
    return data.shares[a * m + b] != 0 ||
           !data.edges.decodes(b, data.cross[a * m + b]) ||
           !data.edges.decodes(a, data.cross[b * m + a]);
  };
  constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  data.clique.assign(m, kUnassigned);
  std::vector<std::size_t> clique;
  for (std::size_t a = 0; a < m; ++a) {
    if (data.clique[a] != kUnassigned) continue;
    clique.assign(1, a);
    data.clique[a] = data.num_cliques;
    for (std::size_t b = a + 1; b < m; ++b) {
      if (data.clique[b] != kUnassigned) continue;
      if (!std::all_of(clique.begin(), clique.end(),
                       [&](std::size_t c) { return conflict(c, b); }))
        continue;
      data.clique[b] = data.num_cliques;
      clique.push_back(b);
    }
    ++data.num_cliques;
  }
}

/// Couple-index list (ascending) -> sorted IndependentSet.
IndependentSet protocol_members_to_set(const ConflictMatrix& matrix,
                                       const phy::RateTable& rates,
                                       const std::vector<std::size_t>& members) {
  const auto& couples = matrix.couples();
  IndependentSet set;
  set.links.reserve(members.size());
  set.rates.reserve(members.size());
  set.mbps.reserve(members.size());
  for (std::size_t v : members) {
    set.links.push_back(couples[v].link);
    set.rates.push_back(couples[v].rate);
    set.mbps.push_back(rates[couples[v].rate].mbps);
  }
  return set;
}

/// Universe positions + parallel rates (any order) -> sorted IndependentSet.
IndependentSet physical_members_to_set(
    const PricingContext& context, const std::vector<std::size_t>& members,
    const std::vector<phy::RateIndex>& member_rates) {
  const phy::RateTable& rates = context.phy->rates();
  std::vector<std::size_t> by_link(members.size());
  std::iota(by_link.begin(), by_link.end(), std::size_t{0});
  std::sort(by_link.begin(), by_link.end(), [&](std::size_t a, std::size_t b) {
    return members[a] < members[b];
  });
  IndependentSet set;
  set.links.reserve(members.size());
  set.rates.reserve(members.size());
  set.mbps.reserve(members.size());
  for (std::size_t k : by_link) {
    set.links.push_back(context.universe[members[k]]);
    set.rates.push_back(member_rates[k]);
    set.mbps.push_back(rates[member_rates[k]].mbps);
  }
  return set;
}

/// Run `roots` independent root searches and reduce deterministically:
/// among the roots whose incumbent is tied with the overall top weight,
/// the tie_preferred one wins, and its chain is the answer. Sequential
/// below the thread-fan-out threshold (with a carried best for extra
/// pruning — the same answer), per-root otherwise so the result cannot
/// depend on MRWSN_THREADS. `*top` receives the maximum weight over all
/// roots.
template <typename Search, typename Data>
std::optional<Chain<typename Search::Set>> run_roots(const Data& data,
                                                     std::size_t num_roots,
                                                     double floor,
                                                     double* top) {
  *top = floor;
  if (num_roots == 0) return std::nullopt;
  if (num_roots < kParallelRootThreshold) {
    Search search(data, floor);
    for (std::size_t r = 0; r < num_roots; ++r) search.run(r);
    if (search.chain().best.weight() <= floor) return std::nullopt;
    *top = search.chain().best.top();
    return search.take_chain();
  }
  // A root whose bound falls below the tie band of a finished root's top
  // holds no set that could win or raise *top, so skipping it leaves the
  // answer unchanged, whichever roots happened to finish first. The
  // finished tops are never fed into a running root's own search: its
  // chain — the source of `extras` — must not depend on scheduling.
  std::vector<std::optional<Chain<typename Search::Set>>> results(num_roots);
  std::atomic<double> finished_top{floor};
  util::parallel_for(num_roots, [&](std::size_t r) {
    Search search(data, floor);
    if (below_band(search.root_bound(r), floor, finished_top.load())) return;
    search.run(r);
    const Incumbent& best = search.chain().best;
    if (best.weight() <= floor) return;
    double seen = finished_top.load();
    while (seen < best.top() &&
           !finished_top.compare_exchange_weak(seen, best.top())) {
    }
    results[r].emplace(search.take_chain());
  });
  for (const auto& result : results)
    if (result) *top = std::max(*top, result->best.top());
  std::size_t winner = num_roots;
  for (std::size_t r = 0; r < num_roots; ++r) {
    if (!results[r] || results[r]->best.weight() < *top - tie_band(*top))
      continue;
    if (winner == num_roots ||
        tie_preferred(results[r]->best.signature(),
                      results[winner]->best.signature()))
      winner = r;
  }
  if (winner == num_roots) return std::nullopt;
  return std::move(results[winner]);
}

// ---------------------------------------------------------------------------
// Heuristic (Tier 1) pricing
// ---------------------------------------------------------------------------

/// How many signature-distinct runner-up starts a heuristic call reports as
/// extra columns.
constexpr std::size_t kMaxHeuristicExtras = 4;

/// Deterministic per-start jitter factor in [0.75, 1.25). Start 0 keeps the
/// exact keys (pure weight-greedy); later starts scale every candidate's
/// key independently, so each start explores a different greedy ordering
/// while the whole schedule stays a pure function of (start, candidate) —
/// never of MRWSN_THREADS or scheduling order.
double start_jitter(std::size_t start, std::size_t v) {
  if (start == 0) return 1.0;
  SplitMix64 mix((0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(start)) ^
                 (static_cast<std::uint64_t>(v) + 0x6a09e667f3bcc909ULL));
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  return 0.75 + 0.5 * u;
}

/// Outcome of one heuristic start. `members` is empty only when the start
/// had no candidates at all.
struct ProtocolStartOutcome {
  double weight = 0.0;
  std::vector<std::size_t> members;  ///< couple indices, ascending
};

/// One greedy + (1,k)-swap start of the protocol heuristic: take candidate
/// couples in (jittered-)weight order while they stay compatible, then try
/// to swap in each outside couple whose weight strictly beats the members
/// it conflicts with, greedily refilling the freed room.
ProtocolStartOutcome protocol_heuristic_start(const ProtocolPricerData& data,
                                              std::size_t start) {
  // Stable sort: key ties break by couple index, identically on every run.
  std::vector<std::size_t> order = data.roots;
  std::vector<double> key(data.weight.size(), 0.0);
  for (std::size_t v : order) key[v] = data.weight[v] * start_jitter(start, v);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });

  const std::size_t words = data.words;
  std::vector<util::BitWord> avail(data.pool);
  std::vector<std::size_t> members;
  std::vector<char> in_set(data.weight.size(), 0);
  double weight = 0.0;

  const auto greedy_fill = [&] {
    for (std::size_t v : order) {
      if (!util::bits_test(avail.data(), v)) continue;
      members.push_back(v);
      in_set[v] = 1;
      weight += data.weight[v];
      // compat_row(v) excludes v and its same-link couples, so members never
      // reappear in avail.
      util::bits_and(avail.data(), avail.data(), data.matrix->compat_row(v),
                     words);
    }
  };
  const auto rebuild_avail = [&] {
    std::copy(data.pool.begin(), data.pool.end(), avail.begin());
    for (std::size_t m : members)
      util::bits_and(avail.data(), avail.data(), data.matrix->compat_row(m),
                     words);
  };

  greedy_fill();

  std::vector<std::size_t> conflicts;
  for (int pass = 0; pass < 4; ++pass) {
    bool improved = false;
    for (std::size_t v : order) {
      if (in_set[v]) continue;
      conflicts.clear();
      double conflict_weight = 0.0;
      const util::BitWord* row = data.matrix->compat_row(v);
      for (std::size_t m : members) {
        if (util::bits_test(row, m)) continue;  // compatible — keeps its seat
        conflicts.push_back(m);
        conflict_weight += data.weight[m];
      }
      if (data.weight[v] <= conflict_weight) continue;
      for (std::size_t m : conflicts) {
        members.erase(std::find(members.begin(), members.end(), m));
        in_set[m] = 0;
        weight -= data.weight[m];
      }
      members.push_back(v);
      in_set[v] = 1;
      weight += data.weight[v];
      rebuild_avail();
      greedy_fill();
      improved = true;
    }
    if (!improved) break;
  }

  std::sort(members.begin(), members.end());
  return {weight, std::move(members)};
}

struct PhysicalStartOutcome {
  double weight = 0.0;
  std::vector<std::size_t> members;   ///< universe positions
  std::vector<phy::RateIndex> rates;  ///< parallel to members
};

/// Greedy + drop-one/refill counterpart of PhysicalRootSearch. Accepts a
/// candidate only when insertion strictly raises the total member weight —
/// under cumulative SINR a newcomer can degrade existing members' rates by
/// more than it contributes.
///
/// A candidate is scored against the members without touching the search
/// state, so a rejected one costs O(k); only an accepted one pays the
/// O(|order|) interference update. A failed drop-one move is undone from a
/// snapshot. Rate lookups go through a per-slot band cache (cached_rate,
/// peek_rate) over the edge table, so most of them walk no edges. All state
/// is by slot, so its cost follows the candidates, not the universe. One
/// object runs many starts, reusing its arrays.
class PhysicalHeuristicSearch {
 public:
  explicit PhysicalHeuristicSearch(const PhysicalSearchData& data)
      : data_(data), phy_(*data.pricer->ctx->phy) {
    const std::size_t m = data_.size;
    interference_.assign(m, 0.0);
    blocked_.assign(m, 0);
    in_set_.assign(m, 0);
    bands_.assign(m, phy::RateBand{});
    saved_interference_.resize(m);
    saved_blocked_.resize(m);
    key_.resize(m);
    order_.resize(m);
  }

  /// One full start: greedy construction in the start's jittered order,
  /// then the drop-one local search.
  PhysicalStartOutcome run(std::size_t start) {
    reset();
    sort_order(start);
    greedy_fill(kNoSkip);
    improve();
    PhysicalStartOutcome out{weight_, members_, rates_};
    for (std::size_t& member : out.members)
      member = data_.pricer->order[member];
    return out;
  }

 private:
  static constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

  /// Slots by descending jittered alone weight, ties by slot — the order a
  /// stable sort of data.pricer->order would give. The jitter hashes the
  /// universe position, as the protocol search hashes the couple.
  void sort_order(std::size_t start) {
    const PhysicalPricerData& pricer = *data_.pricer;
    for (std::size_t a = 0; a < data_.size; ++a) {
      const std::size_t u = pricer.order[a];
      key_[a] = pricer.w_alone[u] * start_jitter(start, u);
      order_[a] = a;
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return key_[a] > key_[b] || (key_[a] == key_[b] && a < b);
    });
  }

  void reset() {
    std::fill(interference_.begin(), interference_.end(), 0.0);
    std::fill(blocked_.begin(), blocked_.end(), 0);
    for (std::size_t j : members_) in_set_[j] = 0;
    members_.clear();
    rates_.clear();
    weight_ = 0.0;
  }

  /// One greedy pass over order_; `skip` (a slot or kNoSkip) is never
  /// taken — the local search uses it to force diversification away from
  /// a just-dropped member.
  void greedy_fill(std::size_t skip) {
    for (std::size_t v : order_) {
      if (v == skip || in_set_[v] != 0 || blocked_[v] != 0) continue;
      const auto total = score(v);
      if (total && *total > weight_) push(v, *total);
    }
  }

  /// Drop-one + greedy-refill local search: remove each member in turn,
  /// refill without it, keep the move only on strict improvement.
  void improve() {
    for (int pass = 0; pass < 3; ++pass) {
      bool improved = false;
      pass_members_ = members_;
      for (std::size_t m : pass_members_) {
        if (in_set_[m] == 0) continue;  // already swapped out this pass
        save();
        remove(m);
        greedy_fill(m);
        if (weight_ > saved_weight_) {
          improved = true;
          continue;
        }
        restore();
      }
      if (!improved) break;
    }
  }

  const double* cross_row(std::size_t a) const {
    return &data_.cross[a * data_.size];
  }
  const char* shares_row(std::size_t a) const {
    return &data_.shares[a * data_.size];
  }
  double mbps(phy::RateIndex rate) const { return phy_.rates()[rate].mbps; }

  /// The edge table's rate for `a`, from a's cached band when
  /// `interference` falls inside it; a miss asks the table and caches the
  /// band around its answer.
  std::optional<phy::RateIndex> cached_rate(std::size_t a,
                                            double interference) {
    phy::RateBand& band = bands_[a];
    if (!band.holds(interference)) band = data_.edges.band(a, interference);
    return band.rate;
  }

  /// The edge table's rate for `a`, from a's band when it holds, without
  /// re-caching: score()'s what-if lookups must not evict the band of a
  /// member's actual rate.
  std::optional<phy::RateIndex> peek_rate(std::size_t a,
                                          double interference) const {
    const phy::RateBand& band = bands_[a];
    return band.holds(interference) ? band.rate
                                    : data_.edges.rate(a, interference);
  }

  /// Total member weight if `v` joined, or nullopt when v or a member
  /// could no longer decode. Fills scored_rates_ (members' rates, then
  /// v's) and changes no member state.
  std::optional<double> score(std::size_t v) {
    const auto own = cached_rate(v, interference_[v]);
    if (!own) return std::nullopt;
    const double* cross = cross_row(v);
    scored_rates_.resize(members_.size() + 1);
    double total = 0.0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const std::size_t j = members_[i];
      const auto rate = peek_rate(j, interference_[j] + cross[j]);
      if (!rate) return std::nullopt;
      scored_rates_[i] = *rate;
      total += data_.weight[j] * mbps(*rate);
    }
    scored_rates_.back() = *own;
    return total + data_.weight[v] * mbps(*own);
  }

  /// Add `v`, whose score() just returned `total`. v's own cross and
  /// shares entries are zero, so the sweep leaves v's sums unchanged.
  void push(std::size_t v, double total) {
    const double* cross = cross_row(v);
    const char* shares = shares_row(v);
    for (std::size_t b = 0; b < data_.size; ++b) {
      interference_[b] += cross[b];
      blocked_[b] += shares[b];
    }
    members_.push_back(v);
    in_set_[v] = 1;
    rates_.assign(scored_rates_.begin(), scored_rates_.end());
    weight_ = total;
  }

  /// Removal clamps rounding residue at zero, keeping every interference
  /// sum non-negative; the remaining members may speed up.
  void remove(std::size_t v) {
    const auto at = std::find(members_.begin(), members_.end(), v);
    rates_.erase(rates_.begin() + (at - members_.begin()));
    members_.erase(at);
    in_set_[v] = 0;
    const double* cross = cross_row(v);
    const char* shares = shares_row(v);
    for (std::size_t b = 0; b < data_.size; ++b) {
      interference_[b] = std::max(interference_[b] - cross[b], 0.0);
      blocked_[b] -= shares[b];
    }
    weight_ = 0.0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const auto rate = cached_rate(members_[i], interference_[members_[i]]);
      MRWSN_ASSERT(rate.has_value(), "member of a feasible set lost its rate");
      rates_[i] = *rate;
      weight_ += data_.weight[members_[i]] * mbps(*rate);
    }
  }

  void save() {
    saved_interference_ = interference_;
    saved_blocked_ = blocked_;
    saved_members_ = members_;
    saved_rates_ = rates_;
    saved_weight_ = weight_;
  }

  void restore() {
    for (std::size_t j : members_) in_set_[j] = 0;
    interference_.swap(saved_interference_);
    blocked_.swap(saved_blocked_);
    members_.swap(saved_members_);
    rates_.swap(saved_rates_);
    weight_ = saved_weight_;
    for (std::size_t j : members_) in_set_[j] = 1;
  }

  const PhysicalSearchData& data_;
  const phy::PhyModel& phy_;
  double weight_ = 0.0;
  std::vector<double> interference_;  ///< by slot, >= 0
  std::vector<int> blocked_;          ///< node-sharing member count
  std::vector<char> in_set_;
  std::vector<std::size_t> members_;  ///< slots, insertion order
  std::vector<phy::RateIndex> rates_;  ///< parallel to members_
  std::vector<phy::RateIndex> scored_rates_;  ///< the last score()'s rates
  std::vector<phy::RateBand> bands_;  ///< by slot; any start's

  // Snapshot taken before each drop-one move.
  std::vector<double> saved_interference_;
  std::vector<int> saved_blocked_;
  std::vector<std::size_t> saved_members_;
  std::vector<phy::RateIndex> saved_rates_;
  double saved_weight_ = 0.0;

  std::vector<std::size_t> pass_members_;  ///< members at a pass's start
  std::vector<double> key_;                ///< jittered key, by slot
  std::vector<std::size_t> order_;         ///< slots in start order
};

/// Serial best-of reduction over per-start outcomes: maximum weight, ties
/// to the lowest start index — identical at every MRWSN_THREADS.
template <typename Outcome>
std::size_t pick_winner(const std::vector<Outcome>& outcomes) {
  std::size_t winner = outcomes.size();
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    if (outcomes[s].members.empty()) continue;
    if (winner == outcomes.size() ||
        outcomes[s].weight > outcomes[winner].weight)
      winner = s;
  }
  return winner;
}

/// Runner-up starts above the floor, signature-distinct from the winner and
/// each other, ordered weight descending then lowest start first.
template <typename Outcome, typename SignatureFn>
std::vector<std::size_t> pick_runners(const std::vector<Outcome>& outcomes,
                                      std::size_t winner, double floor,
                                      SignatureFn&& signature) {
  std::set<decltype(signature(outcomes[winner]))> seen;
  seen.insert(signature(outcomes[winner]));
  std::vector<std::size_t> runners;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    if (s == winner || outcomes[s].members.empty()) continue;
    if (outcomes[s].weight <= floor) continue;
    if (!seen.insert(signature(outcomes[s])).second) continue;
    runners.push_back(s);
  }
  std::stable_sort(runners.begin(), runners.end(),
                   [&](std::size_t a, std::size_t b) {
                     return outcomes[a].weight > outcomes[b].weight;
                   });
  if (runners.size() > kMaxHeuristicExtras) runners.resize(kMaxHeuristicExtras);
  return runners;
}

}  // namespace

MaxWeightSetResult max_weight_independent_set_protocol(
    const ConflictMatrix& matrix, const phy::RateTable& rates,
    std::span<const double> link_weight, double floor) {
  const ProtocolPricerData data = build_protocol_data(matrix, rates, link_weight);
  MaxWeightSetResult result;
  const auto best = run_roots<ProtocolRootSearch>(
      data, data.roots.size(), floor, &result.max_weight);
  if (!best) return result;
  result.weight = best->best.weight();
  result.set = protocol_members_to_set(matrix, rates, best->set);
  result.extras.reserve(best->extras.size());
  for (const auto& members : best->extras)
    result.extras.push_back(protocol_members_to_set(matrix, rates, members));
  return result;
}

MaxWeightSetResult max_weight_independent_set_physical(
    const PricingContext& context, std::span<const double> link_weight,
    double floor) {
  const PhysicalPricerData pricer = build_physical_data(context, link_weight);
  PhysicalSearchData data = build_physical_search_data(pricer);
  add_clique_cover(data);
  MaxWeightSetResult result;
  const auto best =
      run_roots<PhysicalRootSearch>(data, data.size, floor, &result.max_weight);
  if (!best) return result;
  result.weight = best->best.weight();
  result.set =
      physical_members_to_set(context, best->set.members, best->set.rates);
  result.extras.reserve(best->extras.size());
  for (const PhysicalSet& extra : best->extras)
    result.extras.push_back(
        physical_members_to_set(context, extra.members, extra.rates));
  return result;
}

double max_weight_upper_bound_protocol(const ConflictMatrix& matrix,
                                       const phy::RateTable& rates,
                                       std::span<const double> link_weight) {
  const ProtocolPricerData data =
      build_protocol_data(matrix, rates, link_weight);
  return padded(link_run_bound(data, data.pool.data()));
}

double max_weight_upper_bound_physical(const PricingContext& context,
                                       std::span<const double> link_weight) {
  const PhysicalPricerData pricer = build_physical_data(context, link_weight);
  PhysicalSearchData data = build_physical_search_data(pricer);
  add_clique_cover(data);
  // The cover numbers its cliques in the order of their first slots, and
  // slots run in descending alone score, so a clique's first slot is its
  // best.
  double bound = 0.0;
  std::size_t next = 0;
  for (std::size_t slot = 0; slot < data.size; ++slot) {
    if (data.clique[slot] != next) continue;
    bound += pricer.w_alone[pricer.order[slot]];
    ++next;
  }
  return padded(bound);
}

MaxWeightSetResult heuristic_weight_independent_set_protocol(
    const ConflictMatrix& matrix, const phy::RateTable& rates,
    std::span<const double> link_weight, double floor,
    std::size_t starts) {
  const ProtocolPricerData data =
      build_protocol_data(matrix, rates, link_weight);
  MaxWeightSetResult result;
  if (starts == 0 || data.roots.empty()) return result;

  // Starts are independent; each writes its own slot, so the fan-out
  // schedule cannot leak into the answer.
  std::vector<ProtocolStartOutcome> outcomes(starts);
  util::parallel_for(starts, [&](std::size_t s) {
    outcomes[s] = protocol_heuristic_start(data, s);
  });

  const std::size_t winner = pick_winner(outcomes);
  if (winner == outcomes.size() || outcomes[winner].weight <= floor)
    return result;
  result.weight = outcomes[winner].weight;
  result.set = protocol_members_to_set(matrix, rates, outcomes[winner].members);
  for (std::size_t s : pick_runners(
           outcomes, winner, floor,
           [](const ProtocolStartOutcome& o) { return o.members; }))
    result.extras.push_back(
        protocol_members_to_set(matrix, rates, outcomes[s].members));
  return result;
}

MaxWeightSetResult heuristic_weight_independent_set_physical(
    const PricingContext& context, std::span<const double> link_weight,
    double floor, std::size_t starts) {
  const PhysicalPricerData pricer = build_physical_data(context, link_weight);
  MaxWeightSetResult result;
  if (starts == 0 || pricer.order.empty()) return result;
  const PhysicalSearchData data = build_physical_search_data(pricer);

  // Each worker reuses one search for a fixed stride of starts; a start's
  // outcome depends only on its index, so the split cannot leak into it.
  std::vector<PhysicalStartOutcome> outcomes(starts);
  const std::size_t workers =
      std::min(util::configured_threads(), starts);
  util::parallel_for(workers, [&](std::size_t w) {
    PhysicalHeuristicSearch search(data);
    for (std::size_t s = w; s < starts; s += workers)
      outcomes[s] = search.run(s);
  });

  const std::size_t winner = pick_winner(outcomes);
  if (winner == outcomes.size() || outcomes[winner].weight <= floor)
    return result;
  result.weight = outcomes[winner].weight;
  result.set = physical_members_to_set(context, outcomes[winner].members,
                                       outcomes[winner].rates);
  for (std::size_t s : pick_runners(outcomes, winner, floor,
                                    [](const PhysicalStartOutcome& o) {
                                      return physical_signature(o.members,
                                                                o.rates);
                                    }))
    result.extras.push_back(physical_members_to_set(
        context, outcomes[s].members, outcomes[s].rates));
  return result;
}

}  // namespace mrwsn::core
