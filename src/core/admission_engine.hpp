#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/available_bandwidth.hpp"
#include "lp/simplex.hpp"
#include "util/seg_vector.hpp"

namespace mrwsn::core {

/// Demand slack when deciding `admitted`: absorbs LP round-off at the
/// boundary. The one admission tolerance — routing's estimator policies
/// decide with it too.
inline constexpr double kDemandSlack = 1e-6;

/// One admission query against the engine's current background state.
struct AdmissionQuery {
  std::vector<net::LinkId> path;  ///< ordered links of the candidate path
  double demand_mbps = 0.0;
};

/// Answer to one admission query. `available_mbps` is the Eq. 6 optimum
/// for the path against the background at query time — identical (to LP
/// tolerance) to what a cold max_path_bandwidth() solve returns.
struct AdmissionAnswer {
  bool background_feasible = false;
  double available_mbps = 0.0;
  bool admitted = false;  ///< available_mbps covers the demand
                          ///< (kDemandSlack)
  /// Pricing proved optimality for this query and for the background it
  /// ran against. False when an effort cap (max_rounds, max_columns)
  /// stopped either master: `available_mbps` is then the restricted
  /// master's optimum, a schedulable lower bound on the exact value.
  bool converged = true;
  std::size_t pricing_rounds = 0;  ///< pricing rounds this query cost
  std::size_t master_columns = 0;  ///< columns in the query's final master
  std::size_t lp_pivots = 0;       ///< simplex pivots across this query's
                                   ///< master solves

  /// Per-tier pricing telemetry (mirrors ColumnGenStats): persistent-pool
  /// columns the query master took (its warm-basis seed plus the per-round
  /// Tier 0 scan), columns the heuristic tier added, and exact B&B
  /// invocations. Convergence always comes from an exact round, so a
  /// converged answer on a feasible background has `exact_rounds >= 1`.
  std::size_t tier0_columns = 0;
  std::size_t heuristic_columns = 0;
  std::size_t exact_rounds = 0;

  /// Epoch of the snapshot this answer was solved against; for commit(),
  /// the epoch the commit published. Every answer carries one.
  std::uint64_t epoch = 0;
};

/// Telemetry of the lock-free read side (evaluate(), query(), and each
/// query_batch() item); separate from AdmissionEngineStats because readers
/// run concurrently with commits and must not share its unguarded counters.
struct SnapshotReadStats {
  std::size_t queries = 0;         ///< reads answered
  std::size_t pricing_rounds = 0;  ///< pricing rounds across evaluations
  std::size_t lp_pivots = 0;       ///< simplex pivots across evaluations
  std::size_t shelved_columns = 0;  ///< fresh columns parked for the next
                                    ///< publish to fold into the pool
};

/// Aggregate telemetry over the engine's lifetime.
struct AdmissionEngineStats {
  std::size_t queries = 0;  ///< commit() decisions
  std::size_t commits = 0;  ///< background flows accepted into the row set
  std::size_t pricing_rounds = 0;     ///< pricing rounds across all masters
  std::size_t tier0_columns = 0;      ///< pool columns taken by masters
  std::size_t heuristic_columns = 0;  ///< columns from the heuristic tier
  std::size_t exact_rounds = 0;       ///< exact B&B invocations
  std::size_t pool_columns = 0;  ///< current persistent pool size
  std::size_t dual_resolves = 0;   ///< background re-solves kept warm by
                                   ///< the dual simplex phase
  std::size_t dual_fallbacks = 0;  ///< background re-solves that went cold
  std::size_t lp_pivots = 0;       ///< simplex pivots across all solves
  std::size_t topology_repairs = 0;  ///< apply_topology_delta() calls
  std::size_t columns_dropped = 0;   ///< pool columns invalidated by churn
  std::size_t shelf_dropped = 0;  ///< reader columns lost to a full shelf
};

/// Engine construction knobs beyond column generation.
struct AdmissionEngineOptions {
  ColumnGenOptions colgen;
  /// Capacity of the reader column shelf: fresh columns priced by reads
  /// park here until the next publish folds them into the pool. Overflow
  /// is dropped (counted in AdmissionEngineStats::shelf_dropped) so a
  /// query storm with no writes cannot grow the shelf unboundedly.
  std::size_t shelf_capacity = 4096;
};

/// Long-lived batch admission engine: amortizes the expensive substrate of
/// the Eq. 6 LP across thousands of admission queries on one topology.
///
/// What is shared and owned where:
///  - The InterferenceModel (borrowed, must outlive the engine) owns the
///    per-universe memos — ConflictMatrix, pricing contexts, rx-power
///    tables. They are keyed by canonical universe and thread-safe, so
///    every query over a recurring universe pays the build cost once.
///  - The engine owns a persistent cross-query column pool: every column
///    the pricing oracle ever generated, deduplicated by (links, rates)
///    signature. Every master's Tier 0 draws on it (see "Column
///    generation" below), which is what collapses per-query pricing to a
///    handful of rounds.
///  - Per-query state reduces to the background-flow row set: a background
///    "min total airtime subject to delivering every background demand"
///    master whose rows are the background links in first-seen order.
///    Committing a flow appends rows / bumps right-hand sides, and the
///    next refresh re-solves it with a dual simplex phase from the stored
///    basis and factorization (lp::SolveOptions::dual_resolve) instead of
///    cold — the rows-appended/rhs-bumped pattern keeps the old basis dual
///    feasible by construction.
///
/// Parity guarantee: query answers equal cold max_path_bandwidth() solves
/// to LP tolerance. The per-query master is a restricted master of the
/// exact Eq. 6 LP (pool columns never add infeasible sets) and pricing is
/// the same exact oracle, so a converged query is the exact optimum
/// regardless of what the pool happened to contain; the dual re-solve path
/// audits dual feasibility on entry and falls back cold otherwise, so it
/// never changes the background answer either.
///
/// One admission path (epoch/snapshot isolation): every answer is solved
/// against an immutable refcounted Snapshot of the committed state and
/// stamped with its epoch (AdmissionAnswer::epoch).
///  - Reads. evaluate() answers on the latest published snapshot; it never
///    takes the commit lock, so any number of readers run concurrently
///    with one another and with writers, and a read racing a write sees
///    the pre- or the post-write epoch in full, never a torn mix.
///    snapshot(), query() and query_batch() publish staged state first,
///    then read the same way; query_batch() pins one snapshot for the
///    whole batch and shards it over util::parallel_for.
///  - Writes. commit(), evict() and apply_topology_delta() serialize on
///    the commit lock and publish exactly one epoch each; commit() decides
///    on the committed state, staged writes included.
///  - Staging. add_background() and preload_columns() change the committed
///    state without publishing; the next publish carries them.
/// Columns a read prices are shelved in read order (batch index order for
/// query_batch(), so the pool does not depend on the thread count). Every
/// capture folds the shelf into the pool before it refreshes the
/// background, so a sequential query loop prices from the pool the
/// previous queries grew.
///
/// Column generation: both masters — the background refresh and each
/// query — are ColGenMaster adapters run by the shared ColGenDriver, so
/// every ColumnGenOptions knob applies with the one-shot solver's
/// semantics (effort caps, tiers, smoothing). Tier 0 is a per-round pool
/// scan: the live persistent columns that fit the master's rows and price
/// above the floor under its duals, best first, at most 64 per round. A
/// query master starts from the background's basic columns plus
/// singletons, so its LP tracks the active basis size, not the pool size.
/// An effort cap that stops either master clears the answer's
/// `converged`; a capped background whose restricted optimum fits in unit
/// airtime still counts as feasible, because that optimum is a schedule.
class AdmissionEngine {
 public:
  /// Committed state lives in persistent chunked vectors (structure
  /// sharing): publishing epoch N+1 aliases every chunk a commit or churn
  /// event did not touch from epoch N, so the publish step is O(Δ) pointer
  /// copies instead of a deep copy of the background. Chunk sizes follow
  /// element weight — small for heavy IndependentSet/LinkFlow records,
  /// larger for scalars. The pool's are smallest: the first append after
  /// each publish clones its tail chunk, and query() publishes on most
  /// reads of a sequential loop.
  using PoolSeg = util::SegVector<IndependentSet, 16>;
  using FlowSeg = util::SegVector<LinkFlow, 64>;
  using LinkSeg = util::SegVector<net::LinkId, 256>;
  using DemandSeg = util::SegVector<double, 256>;
  using IndexSeg = util::SegVector<std::size_t, 256>;

  /// Sentinel in `master_cols` / `bg_master_cols_`: the master column at
  /// this position was retired by churn. Its LP variable stays allocated
  /// (a zero column at cost 1 can never price into a minimization) so the
  /// VarId <-> master-position bijection — which saved bases rely on —
  /// survives in-place retirement.
  static constexpr std::size_t kRetiredColumn =
      static_cast<std::size_t>(-1);

  /// One published epoch of committed state: everything an evaluate-only
  /// query needs, immutable, shared by reference count. `pool` is the
  /// persistent column pool as of publication (retired columns read as
  /// empty sets); `master_cols` indexes into it (kRetiredColumn marks a
  /// retired position) and `basis` is the background master's optimal
  /// basis over `links`, aliased — not copied — from the writer's own
  /// refreshed copy.
  struct Snapshot {
    std::uint64_t epoch = 0;
    bool feasible = true;
    bool converged = true;  ///< the background refresh was not capped
    double airtime = 0.0;
    FlowSeg background;
    LinkSeg links;     ///< background rows, first-seen order
    DemandSeg demand;  ///< by link id, num_links entries
    std::shared_ptr<const lp::Basis> basis;
    IndexSeg master_cols;
    PoolSeg pool;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  explicit AdmissionEngine(const InterferenceModel& model,
                           AdmissionEngineOptions options = {});

  /// snapshot() then evaluate(): one read that sees every staged write.
  AdmissionAnswer query(std::span<const net::LinkId> path,
                        double demand_mbps);

  /// Publish staged state, then answer independent queries against one
  /// pinned snapshot, sharded over util::parallel_for. Commits nothing;
  /// answers do not depend on the thread count.
  std::vector<AdmissionAnswer> query_batch(
      std::span<const AdmissionQuery> queries);

  /// Stage a flow into the background unconditionally (preloading a
  /// scenario's background). Does not publish.
  void add_background(LinkFlow flow);

  /// Seed the persistent column pool with externally generated columns
  /// (e.g. a previous run's pool, or synthesized warm-up sets). Each
  /// candidate must be a sorted rate-coupled set; its mbps vector is
  /// recomputed from the model's rate table, candidates the current model
  /// does not support are skipped, and duplicates dedup against the pool.
  /// Returns how many columns were actually added. Stages; does not
  /// publish.
  std::size_t preload_columns(std::span<const IndependentSet> columns);

  /// Same as evict().
  void clear() { evict(); }

  /// Minimum total airtime that delivers the background demands (refreshed
  /// lazily; publishes nothing). The background is feasible iff this is
  /// <= 1.
  double background_airtime();
  bool background_feasible();

  /// The minimum-airtime schedule of the background (Eqs. 2/4) from the
  /// same refresh: the master's columns at positive time share, in master
  /// order, and background_airtime() as total_airtime. Empty entries when
  /// there is no background, or when a demanded link carries no rate
  /// (total_airtime is then infinite). Built on each call from the λ the
  /// refresh kept, so commits copy no schedule.
  AirtimeSchedule background_schedule();

  /// Lifetime telemetry, by value: `shelf_dropped` is folded in from the
  /// read side's atomic counter, which has no home in the unguarded
  /// writer-side struct.
  AdmissionEngineStats stats() const {
    AdmissionEngineStats out = stats_;
    out.shelf_dropped = read_shelf_dropped_.load(std::memory_order_relaxed);
    return out;
  }

  /// Thread-safe evaluate-only query against the latest published epoch.
  /// Never takes the commit lock; safe to call from any number of threads
  /// concurrently with one another and with commit()/evict(). Like every
  /// answer, throws PreconditionError for a path that lists a link twice.
  AdmissionAnswer evaluate(std::span<const net::LinkId> path,
                           double demand_mbps);

  /// Evaluate against the committed (not merely published) state and,
  /// when the demand fits, commit the flow; either way publish the next
  /// epoch. Serializes with other writers; readers keep answering on the
  /// previous epoch until the new one is published. The answer's epoch is
  /// the one this call published.
  AdmissionAnswer commit(std::span<const net::LinkId> path,
                         double demand_mbps);

  /// Drop the background state and publish the resulting empty epoch. The
  /// column pool and the model's caches survive — they depend only on the
  /// topology, and keeping them warm across scenario resets is the
  /// engine's reason to exist. Thread-safe against readers.
  void evict();

  /// Apply a topology mutation and repair the engine in place instead of
  /// rebuilding it. `mutate` runs under the engine's topology write lock
  /// (every read holds it shared, so the model is never patched
  /// under a solve in flight) and must perform exactly the mutation whose
  /// ModelRepair it returns — normally one core::TopologyDelta call on the
  /// network/model this engine was built over.
  ///
  /// The repair keeps every background flow and re-prices the world that
  /// changed, in O(Δ): link-indexed state grows for appended link ids,
  /// the columns of affected links (via the link->columns inverted index)
  /// are revalidated against the mutated model — a column no longer
  /// supported is tombstoned in the pool and retired from the live master
  /// IN PLACE (its terms zeroed out of its rows, a basis slot it held
  /// handed back to the row's slack), never by re-materializing the
  /// master — and the background re-solve chains the usual audited dual
  /// warm start with the cold fallback as safety net. Publishes the
  /// repaired state as the next epoch and returns it.
  ///
  /// Parity contract (held by the churn fuzz suite): the repaired engine's
  /// background airtime/feasibility and query answers match a cold
  /// AdmissionEngine built over a fresh model of the mutated network to LP
  /// tolerance.
  std::uint64_t apply_topology_delta(
      const std::function<ModelRepair()>& mutate);

  /// Publish staged state — add_background(), preload_columns() or shelved
  /// reader columns — as the next epoch, if there is any (the first call
  /// always publishes); returns the published snapshot.
  SnapshotPtr snapshot();

  /// Latest published snapshot; never blocks behind a commit. Non-null
  /// from construction (epoch 0 is the empty background).
  SnapshotPtr published() const;

  /// Epoch of the latest published snapshot.
  std::uint64_t epoch() const { return published()->epoch; }

  /// Read-side telemetry, tracked with atomics.
  SnapshotReadStats snapshot_read_stats() const;

 private:
  using Signature = std::vector<std::uint64_t>;

  /// The background master's ColGenMaster adapter (defined in the .cpp).
  class BackgroundMaster;

  /// Pool append with signature dedup; returns (pool index, was fresh).
  std::pair<std::size_t, bool> pool_add(IndependentSet set);
  /// Append pool column `idx` to the background master — bg_master_cols_
  /// and a new bg_master_ variable. It must not be there yet, and every
  /// one of its links must already have a row.
  void enter_background_master(std::size_t idx);
  /// Ensure the singleton column of `link` exists in pool and background
  /// master (no-op when the link carries no rate).
  void seed_singleton(net::LinkId link);
  /// Retire one pool column in place: tombstone the pool slot, erase the
  /// dedup index, zero its materialized master column (keeping the LP
  /// variable as an inert placeholder), and hand any basis slot it held
  /// back to that row's slack.
  void retire_pool_column(std::size_t idx);
  /// Recompute the blocked flag of one link (demanded but rate-less) and
  /// keep the aggregate count in step; bg_impossible_ == count > 0.
  void update_blocked(net::LinkId link);
  /// Re-solve the background master if commits happened since, chaining
  /// the dual-simplex row re-solve into the pricing loop.
  void refresh_background();
  /// Answer one query against `snap`; columns it generated land in
  /// `fresh_columns` for the caller to merge or shelve. Rejects a path
  /// that lists a link twice before looking at the snapshot.
  AdmissionAnswer solve_query(std::span<const net::LinkId> path,
                              double demand_mbps, const Snapshot& snap,
                              std::vector<IndependentSet>* fresh_columns) const;
  /// Shared hold of topo_mu_ for one read, taken after backing off while a
  /// repair waits for the write side.
  std::shared_lock<std::shared_mutex> lock_topology_for_read() const;
  /// Shelve one read's fresh columns and count it in the read stats.
  void record_read(const AdmissionAnswer& answer,
                   std::vector<IndependentSet>* fresh);
  void add_background_locked(LinkFlow flow);
  /// Move shelved reader columns into the pool, marking the state stale
  /// when any was fresh; caller holds commit_mu_.
  void merge_shelved_locked();
  /// Fold the shelf into the pool, refresh the background, and take an
  /// O(Δ) share() of the committed state as an unstamped, unpublished
  /// Snapshot; caller holds commit_mu_.
  std::shared_ptr<Snapshot> capture_locked();
  /// Stamp `snap` with the next epoch and publish it; caller holds
  /// commit_mu_.
  void publish_locked(std::shared_ptr<Snapshot> snap);
  /// apply_topology_delta() repair body; caller holds commit_mu_ (the
  /// model has already been mutated under the topology write lock).
  void repair_engine_locked(const ModelRepair& repair);

  const InterferenceModel* model_;
  ColumnGenOptions options_;
  std::size_t shelf_capacity_ = 4096;

  // Every link id in ascending order. Pricing always runs over this one
  // canonical universe (with zero weight outside the active row set), so
  // the model's per-universe caches warm up exactly once for the whole
  // engine lifetime instead of once per distinct background ∪ path set.
  std::vector<net::LinkId> all_links_;

  FlowSeg background_;
  DemandSeg bg_demand_;   // by link id, model_->num_links()
  LinkSeg bg_links_;      // background rows, first-seen order
  std::vector<int> bg_row_of_;  // by link id; -1 = no row

  // Persistent cross-query columns. Pool indices are STABLE for the
  // engine's lifetime: churn tombstones a dead column in place (an empty
  // IndependentSet) instead of compacting, which is what keeps every
  // published epoch's master_cols and every inverted-index entry valid
  // without a remap. Every pool scan skips `links.empty()` slots.
  PoolSeg pool_;
  std::map<Signature, std::size_t> pool_index_;  // live columns only
  std::size_t pool_live_ = 0;                    // non-tombstoned count
  // Inverted index link -> pool columns containing it, so churn touches
  // only the columns of affected links (O(Δ)) instead of scanning the
  // pool. Entries go stale on tombstoning (skipped via links.empty()).
  std::vector<std::vector<std::uint32_t>> cols_of_link_;
  // Churn revalidation stamps: a column touching two affected links is
  // checked once per repair, not once per link.
  std::vector<std::uint64_t> pool_stamp_;  // parallel to pool_
  std::uint64_t churn_stamp_ = 0;

  IndexSeg bg_master_cols_;  // pool indices; append-only positions,
                             // kRetiredColumn marks churn-retired slots
  std::vector<int> master_var_of_pool_;  // parallel to pool_; master
                                         // position / VarId, -1 = absent

  // The background master LP (minimize total airtime subject to
  // delivering every background demand) lives as long as the background
  // state and only ever mutates in place: a row per bg_links_ entry and a
  // variable per bg_master_cols_ entry, both append-only — which keeps a
  // saved basis (and its factorization) meaningful across commits —
  // demands via set_rhs, churn retirement via remove_term.
  lp::Problem bg_master_{lp::Objective::kMinimize};
  lp::Basis bg_basis_;
  // Frozen copy of bg_basis_ refreshed once per background re-solve;
  // capture_locked() aliases it into each snapshot, so an epoch costs no
  // basis copy at all when the basis did not move (rejected commits).
  std::shared_ptr<const lp::Basis> bg_basis_snap_;
  lp::RevisedContext bg_context_;
  double bg_airtime_ = 0.0;
  // The refreshed master's λ by master position (empty when the refresh
  // solved no master); background_schedule() reads it.
  std::vector<double> bg_lambda_;
  bool bg_feasible_ = true;
  bool bg_converged_ = true;  // the last refresh was not effort-capped
  bool bg_dirty_ = false;
  bool bg_impossible_ = false;  // a demanded link carries no usable rate
  std::vector<char> bg_blocked_;  // by link id: demanded but rate-less
  std::size_t bg_blocked_count_ = 0;

  AdmissionEngineStats stats_;

  // --- Snapshot service state ---
  // commit_mu_ serializes every mutation of the committed state above
  // (all public mutating and publishing entry points take it). snap_mu_ guards only the
  // published_ pointer swap — held for nanoseconds, which is what lets
  // readers load a snapshot without ever waiting on a commit in flight.
  // shelf_mu_ guards the reader column shelf.
  mutable std::mutex commit_mu_;
  // topo_mu_ fences topology mutation against lock-free readers: the
  // borrowed model is immutable to every engine path EXCEPT
  // apply_topology_delta's mutation window, which takes it unique while
  // every read holds it shared across its solve. commit()'s own solve
  // already serializes with mutations on commit_mu_ and never needs it.
  // churn_pending_ is the writer's anti-starvation gate: pthread rwlocks
  // prefer readers, so a steady evaluate() stream could park a repair
  // indefinitely — readers spin off the fast path while a writer waits.
  mutable std::shared_mutex topo_mu_;
  std::atomic<bool> churn_pending_{false};
  mutable std::mutex snap_mu_;
  SnapshotPtr published_;
  std::uint64_t epoch_counter_ = 0;  // commit_mu_ held
  // The committed state differs from the published epoch (staged writes
  // or merged shelf columns); false means published_ is a share of it.
  bool publish_stale_ = false;
  mutable std::mutex shelf_mu_;
  std::vector<IndependentSet> shelf_;  // reader-priced columns awaiting merge
  std::atomic<std::size_t> read_queries_{0};
  std::atomic<std::size_t> read_rounds_{0};
  std::atomic<std::size_t> read_pivots_{0};
  std::atomic<std::size_t> read_shelved_{0};
  std::atomic<std::size_t> read_shelf_dropped_{0};
};

}  // namespace mrwsn::core
