#include "common/admission_replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "geom/topology.hpp"
#include "phy/phy_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::benchx {

namespace {

/// Fewest-hop path via breadth-first search over the link adjacency (the
/// same routing perf_micro's admission replay uses: path choice must not
/// depend on the engine under test).
std::vector<net::LinkId> bfs_path(const net::Network& net, net::NodeId src,
                                  net::NodeId dst) {
  std::vector<int> prev(net.num_nodes(), -1);
  std::vector<net::NodeId> frontier{src};
  prev[src] = static_cast<int>(src);
  while (!frontier.empty() && prev[dst] < 0) {
    std::vector<net::NodeId> next;
    for (const net::NodeId u : frontier)
      for (net::NodeId v = 0; v < net.num_nodes(); ++v)
        if (prev[v] < 0 && net.find_link(u, v)) {
          prev[v] = static_cast<int>(u);
          next.push_back(v);
        }
    frontier = std::move(next);
  }
  std::vector<net::LinkId> links;
  if (prev[dst] < 0) return links;
  for (net::NodeId v = dst; v != src; v = static_cast<net::NodeId>(prev[v]))
    links.push_back(*net.find_link(static_cast<net::NodeId>(prev[v]), v));
  std::reverse(links.begin(), links.end());
  return links;
}

std::vector<core::AdmissionQuery> routed_queries(const net::Network& network,
                                                 std::size_t count,
                                                 double demand_lo,
                                                 double demand_hi, Rng& rng) {
  std::vector<core::AdmissionQuery> queries;
  const auto nodes = static_cast<int>(network.num_nodes());
  while (queries.size() < count) {
    const auto src = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    if (src == dst) continue;
    auto path = bfs_path(network, src, dst);
    if (path.empty()) continue;
    queries.push_back(core::AdmissionQuery{std::move(path),
                                           rng.uniform(demand_lo, demand_hi)});
  }
  return queries;
}

double percentile_us(std::vector<double>& sorted_ascending, double q) {
  if (sorted_ascending.empty()) return 0.0;
  const auto last = static_cast<double>(sorted_ascending.size() - 1);
  const auto idx = static_cast<std::size_t>(std::llround(q * last));
  return sorted_ascending[std::min(idx, sorted_ascending.size() - 1)];
}

}  // namespace

std::size_t ReplayTrace::evaluate_count() const {
  std::size_t count = 0;
  for (const ReplayOp& op : ops)
    if (op.kind == ReplayOp::Kind::kEvaluate) ++count;
  return count;
}

ReplayTrace make_replay_trace(std::shared_ptr<const net::Network> network,
                              const ReplayTraceOptions& options) {
  MRWSN_REQUIRE(network != nullptr, "replay trace needs a network");
  ReplayTrace trace;
  trace.network = std::move(network);
  trace.model =
      std::make_shared<core::PhysicalInterferenceModel>(*trace.network);

  Rng rng(options.seed * 7919 + 17);
  // Evaluate queries probe realistic demands; commit queries ask for small
  // slices so a long trace keeps admitting instead of saturating after a
  // handful of writes.
  const std::size_t evals = std::max<std::size_t>(1, options.distinct_queries);
  const std::size_t commits = std::max<std::size_t>(1, evals / 8);
  trace.queries = routed_queries(*trace.network, evals, 0.5, 3.0, rng);
  auto commit_queries =
      routed_queries(*trace.network, commits, 0.02, 0.2, rng);
  for (auto& query : commit_queries) trace.queries.push_back(std::move(query));

  trace.ops.reserve(options.num_ops);
  std::size_t writer_ops = 0;
  for (std::size_t i = 0; i < options.num_ops; ++i) {
    ReplayOp op;
    if (rng.uniform(0.0, 1.0) < options.commit_fraction) {
      ++writer_ops;
      if (options.evict_every > 0 && writer_ops % options.evict_every == 0) {
        op.kind = ReplayOp::Kind::kEvict;
      } else {
        op.kind = ReplayOp::Kind::kCommit;
        op.query = evals + static_cast<std::size_t>(
                               rng.uniform_int(0, int(commits) - 1));
      }
    } else {
      op.kind = ReplayOp::Kind::kEvaluate;
      op.query =
          static_cast<std::size_t>(rng.uniform_int(0, int(evals) - 1));
    }
    trace.ops.push_back(op);
  }
  return trace;
}

ReplayTrace make_replay_trace(const ReplayTraceOptions& options) {
  // The standard perf_micro admission replay floor plan: first connected
  // 26-node placement on 400x600 m whose network has >= 40 links.
  const phy::PhyModel phy = phy::PhyModel::paper_default();
  std::uint64_t seed = 1;
  while (true) {
    Rng rng(seed);
    auto points = geom::connected_random_rectangle(26, 400.0, 600.0,
                                                   phy.max_tx_range(), rng);
    auto network = std::make_shared<net::Network>(std::move(points), phy);
    if (network->num_links() >= 40)
      return make_replay_trace(std::move(network), options);
    ++seed;
  }
}

ReplayRunStats run_replay(const ReplayTrace& trace,
                          const ReplayRunOptions& options) {
  using Clock = std::chrono::steady_clock;

  core::AdmissionEngine engine(*trace.model);
  engine.snapshot();  // publish epoch 1 before any worker starts

  // Split the trace: evaluates drain from a shared index; writer ops keep
  // their trace position as a due-point (the number of evaluates that
  // precede them), so thread 0 interleaves them where the trace put them.
  // At threads == 1 this reproduces the exact sequential trace order.
  struct WriterOp {
    ReplayOp op;
    std::size_t due = 0;
  };
  std::vector<std::size_t> eval_query;
  std::vector<WriterOp> writers;
  for (const ReplayOp& op : trace.ops) {
    if (op.kind == ReplayOp::Kind::kEvaluate)
      eval_query.push_back(op.query);
    else
      writers.push_back(WriterOp{op, eval_query.size()});
  }

  struct EvalRecord {
    std::uint64_t epoch = 0;
    double available_mbps = 0.0;
    bool feasible = true;
    bool admitted = false;
  };
  std::vector<EvalRecord> records(eval_query.size());
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  std::vector<std::vector<double>> latencies(threads);
  for (auto& lane : latencies)
    lane.reserve(eval_query.size() / threads + 1);

  std::atomic<std::size_t> next_eval{0};
  ReplayRunStats stats;
  stats.commits = 0;
  std::size_t admitted_commits = 0;

  const auto reader_step = [&](std::size_t thread) {
    const std::size_t i = next_eval.fetch_add(1, std::memory_order_relaxed);
    if (i >= eval_query.size()) return false;
    const core::AdmissionQuery& query = trace.queries[eval_query[i]];
    const auto begin = Clock::now();
    const core::AdmissionAnswer answer =
        engine.evaluate(query.path, query.demand_mbps);
    const auto end = Clock::now();
    latencies[thread].push_back(
        std::chrono::duration<double, std::micro>(end - begin).count());
    records[i] = EvalRecord{answer.epoch, answer.available_mbps,
                            answer.background_feasible, answer.admitted};
    return true;
  };

  const auto wall_begin = Clock::now();
  {
    std::vector<std::thread> readers;
    readers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t)
      readers.emplace_back([&, t] {
        while (reader_step(t)) {
        }
      });

    // Thread 0: fire each writer op once its due-point of evaluates has
    // been claimed, reading between writer ops like everyone else.
    std::size_t w = 0;
    const auto fire_due_writers = [&](std::size_t due_now) {
      while (w < writers.size() && writers[w].due <= due_now) {
        const ReplayOp& op = writers[w].op;
        if (op.kind == ReplayOp::Kind::kEvict) {
          engine.evict();
          ++stats.evicts;
        } else {
          const core::AdmissionQuery& query = trace.queries[op.query];
          if (engine.commit(query.path, query.demand_mbps).admitted)
            ++admitted_commits;
          ++stats.commits;
        }
        ++w;
      }
    };
    for (;;) {
      fire_due_writers(next_eval.load(std::memory_order_relaxed));
      if (!reader_step(0)) break;
    }
    fire_due_writers(eval_query.size());

    for (std::thread& reader : readers) reader.join();
  }
  const auto wall_end = Clock::now();

  stats.evaluates = eval_query.size();
  stats.admitted_commits = admitted_commits;
  stats.wall_s = std::chrono::duration<double>(wall_end - wall_begin).count();
  stats.qps = stats.wall_s > 0.0
                  ? static_cast<double>(trace.ops.size()) / stats.wall_s
                  : 0.0;
  std::vector<double> all;
  all.reserve(eval_query.size());
  for (const auto& lane : latencies) all.insert(all.end(), lane.begin(), lane.end());
  std::sort(all.begin(), all.end());
  stats.eval_p50_us = percentile_us(all, 0.50);
  stats.eval_p99_us = percentile_us(all, 0.99);

  if (options.verify_parity) {
    // Re-execute the writer prefix on a sequential shadow engine. Every
    // evaluate stamped with epoch e must match the shadow's answer after
    // e-1 writer ops: same decision, same feasibility, objective within
    // 1e-6 — i.e. no reader ever saw a torn or stale-beyond-epoch state.
    std::vector<std::vector<std::size_t>> by_epoch(writers.size() + 2);
    for (std::size_t i = 0; i < records.size(); ++i) {
      MRWSN_REQUIRE(records[i].epoch >= 1 &&
                        records[i].epoch <= writers.size() + 1,
                    "replay evaluate saw an impossible epoch");
      by_epoch[records[i].epoch].push_back(i);
    }
    core::AdmissionEngine shadow(*trace.model);
    for (std::uint64_t epoch = 1; epoch <= writers.size() + 1; ++epoch) {
      std::unordered_map<std::size_t, core::AdmissionAnswer> expected;
      for (const std::size_t i : by_epoch[epoch]) {
        const std::size_t q = eval_query[i];
        auto it = expected.find(q);
        if (it == expected.end()) {
          const core::AdmissionQuery& query = trace.queries[q];
          it = expected
                   .emplace(q, shadow.query(query.path, query.demand_mbps))
                   .first;
        }
        const core::AdmissionAnswer& want = it->second;
        const EvalRecord& got = records[i];
        const double scale = std::max(1.0, std::abs(want.available_mbps));
        MRWSN_REQUIRE(
            got.admitted == want.admitted &&
                got.feasible == want.background_feasible &&
                std::abs(got.available_mbps - want.available_mbps) <=
                    1e-6 * scale,
            "replay parity violation at epoch " + std::to_string(epoch));
        ++stats.verified_answers;
      }
      if (epoch <= writers.size()) {
        const ReplayOp& op = writers[epoch - 1].op;
        if (op.kind == ReplayOp::Kind::kEvict) {
          shadow.evict();
        } else {
          const core::AdmissionQuery& query = trace.queries[op.query];
          shadow.commit(query.path, query.demand_mbps);
        }
      }
    }
  }
  return stats;
}

}  // namespace mrwsn::benchx
