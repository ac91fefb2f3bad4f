#include "core/admission_engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "core/colgen_driver.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mrwsn::core {

namespace {

/// Background feasibility threshold on total airtime; matches
/// flows_feasible().
constexpr double kAirtimeTol = 1e-9;
/// Tier-0 cap: at most this many pool columns enter a master per pricing
/// round. The scored scan already orders candidates best-first, so the cap
/// bounds master growth (and LP size) without losing any column the duals
/// keep asking for — it simply arrives a round later.
constexpr std::size_t kTier0PerRound = 64;

/// Tier 0 of both engine masters, by pool scan: the live pool columns not
/// yet in the master (`slot_of_pool[idx] < 0`) whose links all have a row
/// (`row_of_link[link] >= 0`), ranked under `weight` (by link id) above
/// `floor`, at most kTier0PerRound. A master only ever holds columns its
/// duals asked for, so its size tracks the active basis, not the pool.
std::vector<std::size_t> scan_pool(const AdmissionEngine::PoolSeg& pool,
                                   std::span<const int> slot_of_pool,
                                   std::span<const int> row_of_link,
                                   std::span<const double> weight,
                                   double floor) {
  Tier0Ranking ranking(weight, floor);
  pool.for_each([&](std::size_t idx, const IndependentSet& set) {
    // Tombstoned by churn, or already in the master.
    if (set.links.empty() || slot_of_pool[idx] >= 0) return;
    if (std::all_of(set.links.begin(), set.links.end(),
                    [&](net::LinkId link) { return row_of_link[link] >= 0; }))
      ranking.offer(idx, set);
  });
  return ranking.best(kTier0PerRound);
}

/// One query's Eq. 6 master (maximize f against the background rows and
/// the query path), grown in place: f is VarId 0 and λ columns follow in
/// arrival order, so every row stays sorted as columns append. Pricing
/// runs over every link id, so the duals land at link-id positions.
/// Columns come from the snapshot's pool (Tier 0 and the warm-basis seed)
/// or are generated here; `generated()` hands the latter back for the
/// persistent pool.
class QueryMaster final : public ColGenMaster {
 public:
  QueryMaster(const AdmissionEngine::PoolSeg& pool,
              std::span<const net::LinkId> universe,
              std::span<const int> position,
              std::span<const net::LinkId> path,
              const AdmissionEngine::DemandSeg& demand, lp::Engine engine)
      : pool_(pool),
        universe_(universe),
        position_(position),
        slot_of_pool_(pool.size(), -1),
        engine_(engine) {
    const lp::VarId f = master_.add_variable(1.0, "f");
    master_.add_constraint({}, lp::Sense::kLessEqual, 1.0);
    for (const net::LinkId link : universe) {
      std::vector<std::pair<lp::VarId, double>> row;
      if (std::find(path.begin(), path.end(), link) != path.end())
        row.emplace_back(f, -1.0);
      master_.add_constraint(row, lp::Sense::kGreaterEqual, demand[link]);
    }
  }

  /// Take pool column `idx` into the master; returns its column slot
  /// (its VarId is 1 + slot).
  int add_pool_column(std::size_t idx) {
    const int slot = static_cast<int>(num_columns());
    slot_of_pool_[idx] = slot;
    seen_.insert(column_signature(pool_[idx]));
    append(pool_[idx]);
    return slot;
  }

  void set_basis(lp::Basis basis) { basis_ = std::move(basis); }
  std::size_t pivots() const { return pivots_; }
  std::vector<IndependentSet>& generated() { return generated_; }

  lp::Objective sense() const override { return lp::Objective::kMaximize; }

  lp::Solution solve() override {
    lp::SolveOptions solve_options;
    solve_options.engine = engine_;
    solve_options.context = &context_;
    if (!basis_.empty()) solve_options.warm_start = &basis_;
    lp::SolveStats lp_stats;
    solve_options.stats = &lp_stats;
    lp::Solution solution = lp::solve(master_, solve_options);
    pivots_ += lp_stats.pivots;
    if (solution.optimal()) basis_ = solution.basis;
    return solution;
  }

  void duals(const lp::Solution& solution,
             std::span<double> out) const override {
    std::fill(out.begin(), out.end(), 0.0);
    out[0] = solution.dual(0);
    for (std::size_t p = 0; p < universe_.size(); ++p)
      out[1 + universe_[p]] = solution.dual(1 + p);
  }

  std::size_t tier0(std::span<const double> link_weight,
                    double floor) override {
    const std::vector<std::size_t> picked =
        scan_pool(pool_, slot_of_pool_, position_, link_weight, floor);
    for (const std::size_t idx : picked) add_pool_column(idx);
    return picked.size();
  }

  bool add_column(IndependentSet set) override {
    if (!seen_.insert(column_signature(set)).second) return false;
    append(set);
    generated_.push_back(std::move(set));
    return true;
  }

  std::size_t num_columns() const override {
    return master_.num_variables() - 1;
  }

 private:
  void append(const IndependentSet& set) {
    const lp::VarId id = master_.add_variable(0.0);
    master_.append_term(0, id, 1.0);
    for (std::size_t k = 0; k < set.links.size(); ++k)
      master_.append_term(
          1 + static_cast<std::size_t>(position_[set.links[k]]), id,
          set.mbps[k]);
  }

  const AdmissionEngine::PoolSeg& pool_;
  std::span<const net::LinkId> universe_;
  std::span<const int> position_;  ///< by link id; -1 = not in universe
  std::vector<int> slot_of_pool_;  ///< by pool index; -1 = not taken
  std::set<std::vector<std::uint64_t>> seen_;  ///< every column's signature
  std::vector<IndependentSet> generated_;
  lp::Problem master_{lp::Objective::kMaximize};
  lp::Engine engine_;
  lp::Basis basis_;
  lp::RevisedContext context_;
  std::size_t pivots_ = 0;
};

}  // namespace

/// The background master (minimize total airtime subject to delivering
/// every background demand), grown in place over the engine's members.
/// Its columns cost one unit of airtime each and it has no Σλ row, so it
/// reports y_0 = −1 (ColGenMaster's convention). The first solve of a
/// refresh chains the dual-simplex row re-solve from the stored basis.
class AdmissionEngine::BackgroundMaster final : public ColGenMaster {
 public:
  explicit BackgroundMaster(AdmissionEngine& engine) : e_(engine) {}

  lp::Objective sense() const override { return lp::Objective::kMinimize; }

  lp::Solution solve() override {
    lp::SolveOptions solve_options;
    solve_options.engine = e_.options_.engine;
    solve_options.context = &e_.bg_context_;
    lp::SolveStats lp_stats;
    solve_options.stats = &lp_stats;
    const bool warm = !e_.bg_basis_.empty();
    if (warm) {
      solve_options.warm_start = &e_.bg_basis_;
      // Only the first master after a commit has changed rows/rhs; later
      // rounds append columns and chain primal warm starts as usual. A
      // genuine re-solve lands within a handful of dual pivots; the cap
      // keeps a degenerate dual stall from costing more than the cold
      // solve it is trying to avoid.
      solve_options.dual_resolve = first_;
      solve_options.dual_pivot_cap = e_.bg_master_.num_constraints() + 64;
    }
    lp::Solution solution = lp::solve(e_.bg_master_, solve_options);
    e_.stats_.lp_pivots += lp_stats.pivots;
    if (first_ && warm) {
      if (lp_stats.dual_phase &&
          lp_stats.fallback_reason == lp::Fallback::kNone) {
        ++e_.stats_.dual_resolves;
      } else {
        ++e_.stats_.dual_fallbacks;
        e_.stats_.last_fallback = lp_stats.fallback_reason;
      }
    }
    first_ = false;
    if (solution.optimal()) e_.bg_basis_ = solution.basis;
    return solution;
  }

  void duals(const lp::Solution& solution,
             std::span<double> out) const override {
    std::fill(out.begin(), out.end(), 0.0);
    out[0] = -1.0;
    for (std::size_t r = 0; r < e_.bg_links_.size(); ++r)
      out[1 + e_.bg_links_[r]] = solution.dual(r);
  }

  /// Columns priced by queries (or shelved by readers) since the last
  /// refresh enter here — but only when they improve this master.
  std::size_t tier0(std::span<const double> link_weight,
                    double floor) override {
    const std::vector<std::size_t> picked = scan_pool(
        e_.pool_, e_.master_var_of_pool_, e_.bg_row_of_, link_weight, floor);
    for (const std::size_t idx : picked) e_.enter_background_master(idx);
    return picked.size();
  }

  bool add_column(IndependentSet set) override {
    const auto [idx, fresh] = e_.pool_add(std::move(set));
    if (!fresh) ++e_.stats_.pool_hits;
    if (e_.master_var_of_pool_[idx] >= 0) return false;
    e_.enter_background_master(idx);
    return true;
  }

  std::size_t num_columns() const override {
    return e_.bg_master_cols_.size();
  }

 private:
  AdmissionEngine& e_;
  bool first_ = true;
};

AdmissionEngine::AdmissionEngine(const InterferenceModel& model,
                                 ColumnGenOptions options)
    : AdmissionEngine(model, AdmissionEngineOptions{options}) {}

AdmissionEngine::AdmissionEngine(const InterferenceModel& model,
                                 AdmissionEngineOptions options)
    : model_(&model),
      options_(options.colgen),
      shelf_capacity_(options.shelf_capacity),
      all_links_(model.num_links()),
      bg_row_of_(model.num_links(), -1),
      cols_of_link_(model.num_links()),
      bg_blocked_(model.num_links(), 0) {
  std::iota(all_links_.begin(), all_links_.end(), net::LinkId{0});
  bg_demand_.resize(model.num_links(), 0.0);
  // Epoch 0 — the empty background — is published from birth so
  // evaluate() never needs the commit lock, not even on the first call.
  auto snap = std::make_shared<Snapshot>();
  snap->demand = bg_demand_.share();
  published_ = std::move(snap);
}

std::pair<std::size_t, bool> AdmissionEngine::pool_add(IndependentSet set) {
  const auto [it, fresh] =
      pool_index_.try_emplace(column_signature(set), pool_.size());
  if (fresh) {
    const std::size_t idx = pool_.size();
    for (const net::LinkId link : set.links)
      cols_of_link_[link].push_back(static_cast<std::uint32_t>(idx));
    pool_.push_back(std::move(set));
    master_var_of_pool_.push_back(-1);
    pool_stamp_.push_back(0);
    ++pool_live_;
  }
  return {it->second, fresh};
}

void AdmissionEngine::enter_background_master(std::size_t idx) {
  const lp::VarId id = bg_master_.add_variable(1.0);
  master_var_of_pool_[idx] = id;
  bg_master_cols_.push_back(idx);
  const IndependentSet& set = pool_[idx];
  for (std::size_t k = 0; k < set.links.size(); ++k)
    bg_master_.append_term(static_cast<std::size_t>(bg_row_of_[set.links[k]]),
                           id, set.mbps[k]);
}

void AdmissionEngine::seed_singleton(net::LinkId link) {
  std::optional<IndependentSet> set = singleton_column(*model_, link);
  if (!set) return;
  const std::size_t idx = pool_add(std::move(*set)).first;
  if (master_var_of_pool_[idx] < 0) enter_background_master(idx);
}

void AdmissionEngine::update_blocked(net::LinkId link) {
  const char blocked =
      bg_demand_[link] > 0.0 && !model_->max_rate_alone(link) ? 1 : 0;
  if (blocked != bg_blocked_[link]) {
    bg_blocked_[link] = blocked;
    if (blocked)
      ++bg_blocked_count_;
    else
      --bg_blocked_count_;
  }
  bg_impossible_ = bg_blocked_count_ > 0;
}

void AdmissionEngine::add_background(LinkFlow flow) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  add_background_locked(std::move(flow));
}

void AdmissionEngine::add_background_locked(LinkFlow flow) {
  for (const net::LinkId link : flow.links) {
    MRWSN_REQUIRE(link < bg_demand_.size(),
                  "background flow references an unknown link");
    if (bg_row_of_[link] < 0) {
      bg_row_of_[link] = static_cast<int>(bg_links_.size());
      bg_links_.push_back(link);
      bg_master_.add_constraint({}, lp::Sense::kGreaterEqual, 0.0);
      // The singleton column of a brand-new row enters the background
      // master immediately: it guarantees the master stays feasible, and
      // its only nonzero sits on the new row whose extended dual is zero,
      // so it cannot break the dual feasibility the row re-solve needs.
      seed_singleton(link);
    }
    bg_demand_.mutate(link) += flow.demand_mbps;
    bg_master_.set_rhs(static_cast<std::size_t>(bg_row_of_[link]),
                       bg_demand_[link]);
    update_blocked(link);
  }
  background_.push_back(std::move(flow));
  bg_dirty_ = true;
  publish_stale_ = true;
  ++stats_.commits;
}

std::size_t AdmissionEngine::preload_columns(
    std::span<const IndependentSet> columns) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  std::size_t added = 0;
  for (const IndependentSet& candidate : columns) {
    if (candidate.links.empty()) continue;
    MRWSN_REQUIRE(candidate.links.size() == candidate.rates.size(),
                  "preloaded column needs one rate per link");
    MRWSN_REQUIRE(std::is_sorted(candidate.links.begin(),
                                 candidate.links.end()),
                  "preloaded column links must be sorted ascending");
    if (!model_->supports(candidate.links, candidate.rates)) continue;
    IndependentSet set;
    set.links = candidate.links;
    set.rates = candidate.rates;
    set.mbps.reserve(set.rates.size());
    for (const phy::RateIndex rate : set.rates)
      set.mbps.push_back(model_->rate_table()[rate].mbps);
    if (pool_add(std::move(set)).second) ++added;
  }
  if (added > 0) {
    stats_.pool_columns = pool_live_;
    publish_stale_ = true;
  }
  return added;
}

void AdmissionEngine::refresh_background() {
  if (!bg_dirty_) return;
  bg_dirty_ = false;
  ++stats_.background_solves;
  bg_converged_ = true;
  if (bg_impossible_ || bg_links_.empty()) {
    bg_feasible_ = !bg_impossible_;
    bg_airtime_ =
        bg_impossible_ ? std::numeric_limits<double>::infinity() : 0.0;
    bg_basis_.clear();
    bg_basis_snap_.reset();
    bg_context_.reset();
    return;
  }

  // Pricing runs over the full link set with zero weight off the
  // background rows. Both oracles drop zero-weight candidates before
  // searching, so the result (and its rate vector) is identical to
  // pricing over the restricted universe — but the model's pricing
  // context is built for `all_links_` once and reused forever instead of
  // being rebuilt for every distinct background link set. No early stop:
  // the airtime feeds parity gates across independently built engines,
  // so it must not depend on the path the solver took (DESIGN.md §9).
  BackgroundMaster master(*this);
  ColumnGenStats colgen;
  const ColGenOutcome outcome =
      ColGenDriver(*model_, all_links_, options_).run(master, &colgen);
  stats_.pricing_rounds += colgen.rounds;
  stats_.tier0_columns += colgen.pool_hit_columns;
  stats_.heuristic_columns += colgen.heuristic_columns;
  stats_.exact_rounds += colgen.exact_rounds;
  stats_.pool_columns = pool_live_;
  bg_converged_ = outcome.converged;
  bg_airtime_ = outcome.solved ? outcome.solution.objective
                               : std::numeric_limits<double>::infinity();
  // A capped run's restricted optimum is still a schedule: when it fits in
  // unit airtime the background is feasible, converged or not.
  bg_feasible_ = bg_airtime_ <= 1.0 + kAirtimeTol;
  // Freeze the refreshed basis once; every publish until the next
  // re-solve aliases this copy instead of copying the basis again.
  bg_basis_snap_ = std::make_shared<const lp::Basis>(bg_basis_);
}

double AdmissionEngine::background_airtime() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  return bg_airtime_;
}

bool AdmissionEngine::background_feasible() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  return bg_feasible_;
}

AdmissionAnswer AdmissionEngine::solve_query(
    std::span<const net::LinkId> path, double demand_mbps,
    const Snapshot& snap, std::vector<IndependentSet>* fresh_columns) const {
  MRWSN_REQUIRE(!path.empty(), "admission query needs a non-empty path");
  AdmissionAnswer answer;
  answer.converged = snap.converged;
  if (!snap.feasible) return answer;  // Eq. 6 infeasible: nothing available
  answer.background_feasible = true;

  const LinkSeg& bg_links = snap.links;
  const DemandSeg& bg_demand = snap.demand;
  const IndexSeg& master_cols = snap.master_cols;
  const PoolSeg& pool = snap.pool;
  const lp::Basis* bg_basis = snap.basis.get();

  // Canonical universe: background links plus the query path.
  std::vector<net::LinkId> universe(bg_links.begin(), bg_links.end());
  universe.insert(universe.end(), path.begin(), path.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  std::vector<int> position(bg_demand.size(), -1);
  for (std::size_t p = 0; p < universe.size(); ++p) {
    MRWSN_REQUIRE(universe[p] < bg_demand.size(),
                  "admission query references an unknown link");
    position[universe[p]] = static_cast<int>(p);
  }
  QueryMaster master(pool, universe, position, path, bg_demand,
                     options_.engine);

  // The query's columns, seeded LEAN: exactly the basis-referenced
  // background master columns (their links all sit on background rows ⊂
  // universe, and they reproduce the background's optimal point for the
  // warm start below), then singletons for universe links those leave
  // uncovered. The master's nonbasic columns — and the rest of the pool —
  // stay behind the per-round Tier-0 scan and only enter if this query's
  // own duals ask for them, so the query LP starts at basis size, not
  // master or pool size.
  std::vector<char> covered(universe.size(), 0);
  // Master position -> query column slot, for the warm-basis remap.
  std::vector<int> col_of_master_pos(master_cols.size(), -1);
  const bool basis_usable =
      bg_basis && bg_basis->size() == bg_links.size() && !bg_basis->empty();
  if (basis_usable) {
    for (const lp::BasisEntry& entry : *bg_basis) {
      if (entry.kind != lp::BasisEntry::Kind::kStructural) continue;
      const std::size_t pos = static_cast<std::size_t>(entry.index);
      if (pos >= master_cols.size()) continue;
      const std::size_t pool_idx = master_cols[pos];
      if (pool_idx == kRetiredColumn || pool[pool_idx].links.empty())
        continue;  // retired under churn; the basis repair fell to slack
      if (col_of_master_pos[pos] >= 0) continue;
      col_of_master_pos[pos] = master.add_pool_column(pool_idx);
      const IndependentSet& set = pool[pool_idx];
      if (set.size() == 1)
        covered[static_cast<std::size_t>(position[set.links[0]])] = 1;
    }
  }
  answer.tier0_columns = master.num_columns();
  for (std::size_t p = 0; p < universe.size(); ++p) {
    if (covered[p]) continue;
    if (auto set = singleton_column(*model_, universe[p]))
      master.add_column(std::move(*set));
  }

  // Seed the first solve with a primal-feasible basis derived from the
  // background master's optimum: the background's basic columns stay
  // basic in their (remapped) rows, every other row starts on its own
  // slack, and f is nonbasic at zero. That point delivers the background
  // demands within unit airtime by construction, so the solver skips
  // phase 1 outright and phase 2 only has to drive f up — the bulk of a
  // cold two-phase solve disappears from every query.
  lp::Basis basis;
  if (basis_usable) {
    basis.assign(1 + universe.size(), lp::BasisEntry{});
    basis[0] = {lp::BasisEntry::Kind::kSlack, 0};
    for (std::size_t p = 0; p < universe.size(); ++p)
      basis[1 + p] = {lp::BasisEntry::Kind::kSlack, static_cast<int>(1 + p)};
    for (std::size_t r = 0; r < bg_links.size(); ++r) {
      const int q = 1 + position[bg_links[r]];
      const lp::BasisEntry& entry = (*bg_basis)[r];
      if (entry.kind == lp::BasisEntry::Kind::kSlack) {
        // entry.index is the background row whose slack is basic — not
        // necessarily row r, the entry's position — so the slack's row is
        // remapped through the same link -> query-row translation.
        const std::size_t row = static_cast<std::size_t>(entry.index);
        if (row >= bg_links.size()) {
          basis.clear();
          break;
        }
        basis[static_cast<std::size_t>(q)] = {
            lp::BasisEntry::Kind::kSlack, 1 + position[bg_links[row]]};
        continue;
      }
      const std::size_t pos = static_cast<std::size_t>(entry.index);
      const int column =
          pos < col_of_master_pos.size() ? col_of_master_pos[pos] : -1;
      if (column < 0) {  // the basic column did not survive into the query
        basis.clear();
        break;
      }
      basis[static_cast<std::size_t>(q)] = {lp::BasisEntry::Kind::kStructural,
                                            1 + column};
    }
  }
  master.set_basis(std::move(basis));

  // Full-universe pricing (see refresh_background): zero weight outside
  // the query universe, so priced sets only ever contain universe links.
  ColumnGenStats colgen;
  const ColGenOutcome outcome =
      ColGenDriver(*model_, all_links_, options_).run(master, &colgen);
  answer.converged = snap.converged && outcome.converged;
  answer.pricing_rounds = colgen.rounds;
  answer.tier0_columns += colgen.pool_hit_columns;
  answer.heuristic_columns = colgen.heuristic_columns;
  answer.exact_rounds = colgen.exact_rounds;
  answer.lp_pivots = master.pivots();
  answer.master_columns = master.num_columns();
  if (outcome.solved)
    answer.available_mbps = std::max(0.0, outcome.solution.objective);
  answer.admitted = answer.available_mbps + kDemandSlack >= demand_mbps;
  *fresh_columns = std::move(master.generated());
  return answer;
}

// --- Publishing ------------------------------------------------------------

AdmissionEngine::SnapshotPtr AdmissionEngine::published() const {
  const std::lock_guard<std::mutex> lock(snap_mu_);
  return published_;
}

std::shared_ptr<AdmissionEngine::Snapshot> AdmissionEngine::capture_locked() {
  // Shelf first: the refresh then prices from the pool the previous reads
  // grew, exactly as if they had merged their columns themselves.
  merge_shelved_locked();
  refresh_background();
  // O(Δ) capture: every SegVector share() is a spine of chunk-pointer
  // copies — epoch N+1 aliases every chunk this commit/churn event did
  // not touch from epoch N — and the basis is aliased from the frozen
  // copy the last background re-solve left behind. Nothing here scales
  // with the background or pool size beyond chunk-count pointer copies.
  auto snap = std::make_shared<Snapshot>();
  snap->feasible = bg_feasible_;
  snap->converged = bg_converged_;
  snap->airtime = bg_airtime_;
  snap->background = background_.share();
  snap->links = bg_links_.share();
  snap->demand = bg_demand_.share();
  snap->basis = bg_basis_snap_;
  snap->master_cols = bg_master_cols_.share();
  snap->pool = pool_.share();
  return snap;
}

void AdmissionEngine::publish_locked(std::shared_ptr<Snapshot> snap) {
  snap->epoch = ++epoch_counter_;
  publish_stale_ = false;
  const std::lock_guard<std::mutex> lock(snap_mu_);
  published_ = std::move(snap);
}

void AdmissionEngine::merge_shelved_locked() {
  std::vector<IndependentSet> shelved;
  {
    const std::lock_guard<std::mutex> lock(shelf_mu_);
    shelved.swap(shelf_);
  }
  std::size_t merged = 0;
  for (IndependentSet& set : shelved) {
    // A shelved column may have been priced on a pre-churn epoch whose
    // topology no longer supports it; the pool only admits live columns.
    if (!model_->supports(set.links, set.rates)) continue;
    if (pool_add(std::move(set)).second) ++merged;
  }
  if (merged > 0) {
    stats_.pool_columns = pool_live_;
    publish_stale_ = true;
  }
}

AdmissionEngine::SnapshotPtr AdmissionEngine::snapshot() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  merge_shelved_locked();
  if (publish_stale_ || epoch_counter_ == 0) publish_locked(capture_locked());
  return published();
}

// --- Reads -----------------------------------------------------------------

std::shared_lock<std::shared_mutex> AdmissionEngine::lock_topology_for_read()
    const {
  // Shared against apply_topology_delta's mutation window: a snapshot is
  // immutable, but the solve reads the borrowed model's kernels and
  // caches, which that window patches in place. Loading the snapshot
  // inside the same hold is what pairs it with the model it was built
  // over — churn repairs publish before releasing the write side, so a
  // reader never solves a pre-churn epoch against a post-churn model.
  // Back off while a repair is waiting: rwlocks prefer readers, and a
  // steady read stream must not starve the churn path.
  while (churn_pending_.load(std::memory_order_acquire))
    std::this_thread::yield();
  return std::shared_lock<std::shared_mutex>(topo_mu_);
}

void AdmissionEngine::record_read(const AdmissionAnswer& answer,
                                  std::vector<IndependentSet>* fresh) {
  if (!fresh->empty()) {
    // Shelve reader-priced columns for the next capture to fold into the
    // persistent pool; bounded (AdmissionEngineOptions::shelf_capacity)
    // so a pathological query storm cannot grow the shelf without a
    // publish ever draining it. Overflow is dropped and counted.
    std::size_t taken = 0;
    std::size_t dropped = 0;
    {
      const std::lock_guard<std::mutex> lock(shelf_mu_);
      for (IndependentSet& set : *fresh) {
        if (shelf_.size() >= shelf_capacity_) {
          ++dropped;
          continue;
        }
        shelf_.push_back(std::move(set));
        ++taken;
      }
    }
    read_shelved_.fetch_add(taken, std::memory_order_relaxed);
    if (dropped > 0)
      read_shelf_dropped_.fetch_add(dropped, std::memory_order_relaxed);
  }
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  read_rounds_.fetch_add(answer.pricing_rounds, std::memory_order_relaxed);
  read_pivots_.fetch_add(answer.lp_pivots, std::memory_order_relaxed);
}

AdmissionAnswer AdmissionEngine::evaluate(std::span<const net::LinkId> path,
                                          double demand_mbps) {
  // One shared_ptr load pins one consistent epoch for the whole solve:
  // a commit publishing mid-flight retires the snapshot, not this read.
  std::vector<IndependentSet> fresh;
  AdmissionAnswer answer;
  {
    const std::shared_lock<std::shared_mutex> topo = lock_topology_for_read();
    const SnapshotPtr snap = published();
    answer = solve_query(path, demand_mbps, *snap, &fresh);
    answer.epoch = snap->epoch;
  }
  record_read(answer, &fresh);
  return answer;
}

AdmissionAnswer AdmissionEngine::query(std::span<const net::LinkId> path,
                                       double demand_mbps) {
  snapshot();
  return evaluate(path, demand_mbps);
}

std::vector<AdmissionAnswer> AdmissionEngine::query_batch(
    std::span<const AdmissionQuery> queries) {
  snapshot();
  // Workers solve against one pinned snapshot and collect new columns
  // locally; they are shelved in index order after the join, so answers
  // and the pool they grow are independent of the thread count.
  std::vector<AdmissionAnswer> answers(queries.size());
  std::vector<std::vector<IndependentSet>> fresh(queries.size());
  {
    const std::shared_lock<std::shared_mutex> topo = lock_topology_for_read();
    const SnapshotPtr snap = published();
    util::parallel_for(queries.size(), [&](std::size_t i) {
      answers[i] = solve_query(queries[i].path, queries[i].demand_mbps, *snap,
                               &fresh[i]);
      answers[i].epoch = snap->epoch;
    });
  }
  for (std::size_t i = 0; i < queries.size(); ++i)
    record_read(answers[i], &fresh[i]);
  return answers;
}

// --- Writes ----------------------------------------------------------------

AdmissionAnswer AdmissionEngine::commit(std::span<const net::LinkId> path,
                                        double demand_mbps) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  // Decide on an unpublished capture of the committed state, staged
  // writes included.
  const std::shared_ptr<const Snapshot> state = capture_locked();
  std::vector<IndependentSet> fresh;
  AdmissionAnswer answer = solve_query(path, demand_mbps, *state, &fresh);
  // The writer holds the lock, so its own columns go straight to the pool.
  for (IndependentSet& set : fresh)
    if (!pool_add(std::move(set)).second) ++stats_.pool_hits;
  ++stats_.queries;
  stats_.pricing_rounds += answer.pricing_rounds;
  stats_.lp_pivots += answer.lp_pivots;
  stats_.tier0_columns += answer.tier0_columns;
  stats_.heuristic_columns += answer.heuristic_columns;
  stats_.exact_rounds += answer.exact_rounds;
  stats_.pool_columns = pool_live_;
  if (answer.admitted)
    add_background_locked(LinkFlow{{path.begin(), path.end()}, demand_mbps});
  // Every commit publishes — even a rejection, whose epoch differs only by
  // pool columns. The k-th writer op therefore publishes epoch k+1 (after
  // the initial snapshot() publication), which is what lets the replay
  // harness verify reader answers against a sequential re-execution of
  // the same writer prefix. The capture re-solves an admitted flow's
  // background first, so readers on the new epoch inherit a warm basis.
  publish_locked(capture_locked());
  answer.epoch = epoch_counter_;
  return answer;
}

std::uint64_t AdmissionEngine::apply_topology_delta(
    const std::function<ModelRepair()>& mutate) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  // Merge first: anything shelved so far was priced on the pre-mutation
  // model and still validates against it; later shelvings revalidate at
  // their own merge.
  merge_shelved_locked();
  // The write hold spans mutation through publication so a reader always
  // pairs a published snapshot with the model it was repaired against.
  churn_pending_.store(true, std::memory_order_release);
  const std::unique_lock<std::shared_mutex> topo(topo_mu_);
  churn_pending_.store(false, std::memory_order_release);
  const ModelRepair repair = mutate();
  repair_engine_locked(repair);
  publish_locked(capture_locked());
  return epoch_counter_;
}

void AdmissionEngine::retire_pool_column(std::size_t idx) {
  const IndependentSet& column = pool_[idx];
  pool_index_.erase(column_signature(column));
  const int pos = master_var_of_pool_[idx];
  if (pos >= 0) {
    master_var_of_pool_[idx] = -1;
    // Zero the column out of its rows in place. The LP variable survives
    // as an inert placeholder — a zero column at cost 1 can never price
    // into the minimization — so every other master position (and
    // therefore the saved basis and its factorization, when the retiree
    // was nonbasic) stays exactly as it was.
    for (const net::LinkId link : column.links)
      bg_master_.remove_term(static_cast<std::size_t>(bg_row_of_[link]), pos);
    // A retired basic column hands its row back to that row's slack. The
    // patched basis need not stay feasible — the next re-solve's dual
    // audit (or the primal warm-start check) falls back cold when the
    // churn cut too deep; results never change.
    for (std::size_t r = 0; r < bg_basis_.size(); ++r) {
      lp::BasisEntry& entry = bg_basis_[r];
      if (entry.kind == lp::BasisEntry::Kind::kStructural &&
          entry.index == pos)
        entry = {lp::BasisEntry::Kind::kSlack, static_cast<int>(r)};
    }
    bg_master_cols_.set(static_cast<std::size_t>(pos), kRetiredColumn);
  }
  pool_.set(idx, IndependentSet{});  // tombstone; slot index stays stable
  --pool_live_;
}

void AdmissionEngine::repair_engine_locked(const ModelRepair& repair) {
  const std::size_t num_links = model_->num_links();
  MRWSN_REQUIRE(num_links >= bg_demand_.size(),
                "churn must keep the link id space append-only");
  if (num_links > all_links_.size()) {
    const std::size_t old_size = all_links_.size();
    all_links_.resize(num_links);
    std::iota(all_links_.begin() + static_cast<std::ptrdiff_t>(old_size),
              all_links_.end(), static_cast<net::LinkId>(old_size));
    bg_demand_.resize(num_links, 0.0);
    bg_row_of_.resize(num_links, -1);
    bg_blocked_.resize(num_links, 0);
    cols_of_link_.resize(num_links);
  }

  // Revalidate-or-retire ONLY the columns of affected links — the
  // inverted index makes churn O(Δ) in the pool dimension. A column with
  // no affected member is untouched by construction: an independent set's
  // feasibility involves only its own members' endpoints, and the repair
  // lists every link whose endpoints moved. The stamp dedups columns
  // touching several affected links.
  ++churn_stamp_;
  std::size_t dropped = 0;
  for (const net::LinkId link : repair.links) {
    MRWSN_REQUIRE(link < num_links, "repair references an unknown link");
    for (const std::uint32_t idx : cols_of_link_[link]) {
      if (pool_stamp_[idx] == churn_stamp_) continue;
      pool_stamp_[idx] = churn_stamp_;
      const IndependentSet& set = pool_[idx];
      if (set.links.empty()) continue;  // tombstoned by an earlier repair
      if (model_->supports(set.links, set.rates)) continue;
      retire_pool_column(idx);
      ++dropped;
    }
  }
  stats_.columns_dropped += dropped;

  // Affected background rows re-seed their singleton (the old one may
  // have just been retired, or a moved endpoint may now admit a better
  // rate) and refresh their blocked flag; unaffected links' alone-rates
  // cannot have changed, so the rest of the background needs nothing.
  for (const net::LinkId link : repair.links) {
    if (bg_row_of_[link] >= 0) seed_singleton(link);
    update_blocked(link);
  }

  bg_dirty_ = true;
  publish_stale_ = true;
  ++stats_.topology_repairs;
  stats_.pool_columns = pool_live_;
}

void AdmissionEngine::evict() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  background_.clear();
  const std::size_t num_links = bg_demand_.size();
  bg_demand_.clear();
  bg_demand_.resize(num_links, 0.0);
  bg_links_.clear();
  std::fill(bg_row_of_.begin(), bg_row_of_.end(), -1);
  bg_master_cols_.clear();
  std::fill(master_var_of_pool_.begin(), master_var_of_pool_.end(), -1);
  bg_master_ = lp::Problem(lp::Objective::kMinimize);
  bg_basis_.clear();
  bg_basis_snap_.reset();
  bg_context_.reset();
  bg_airtime_ = 0.0;
  bg_feasible_ = true;
  bg_converged_ = true;
  bg_dirty_ = false;
  bg_impossible_ = false;
  std::fill(bg_blocked_.begin(), bg_blocked_.end(), 0);
  bg_blocked_count_ = 0;
  publish_locked(capture_locked());
}

SnapshotReadStats AdmissionEngine::snapshot_read_stats() const {
  SnapshotReadStats stats;
  stats.queries = read_queries_.load(std::memory_order_relaxed);
  stats.pricing_rounds = read_rounds_.load(std::memory_order_relaxed);
  stats.lp_pivots = read_pivots_.load(std::memory_order_relaxed);
  stats.shelved_columns = read_shelved_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mrwsn::core
