// Admission workloads: input generation, service set-up, closed-loop
// traffic, and the two parity gates (per-epoch shadow replay and the
// cold rebuild after churn).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common/admission_replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mrwsn;

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The i-th draw of one op stream: a pure function of (key, stream, i).
std::uint64_t draw(std::uint64_t key, std::uint64_t stream, std::uint64_t i) {
  return mix(key ^ mix(stream * 0xd1342543de82ef95ull + i));
}

enum : std::uint64_t { kEvalStream = 1, kCommitStream = 2, kGapStream = 3 };

// The op-stream prefix the input digest covers.
constexpr std::uint64_t kDigestEvals = 4096;
constexpr std::uint64_t kDigestWriters = 512;

std::uint64_t digest_queries(const std::vector<core::AdmissionQuery>& queries,
                             std::uint64_t hash) {
  for (const core::AdmissionQuery& query : queries) {
    hash = fnv1a(query.path.data(), query.path.size() * sizeof(net::LinkId),
                 hash);
    hash = fnv1a_value(query.demand_mbps, hash);
  }
  return hash;
}

std::uint64_t digest_inputs(const AdmissionInputs& in) {
  std::uint64_t hash = fnv1a(in.scenario.positions.data(),
                             in.scenario.positions.size() * sizeof(geom::Point));
  hash = digest_queries(in.eval_queries, hash);
  hash = digest_queries(in.commit_queries, hash);
  for (std::uint64_t i = 0; i < kDigestEvals; ++i)
    hash = fnv1a_value(in.eval_query(i), hash);
  for (std::uint64_t k = 0; k < kDigestWriters; ++k) {
    const WriterOp op = in.writer_op(k);
    hash = fnv1a_value(op.kind, hash);
    hash = fnv1a_value(op.index, hash);
    hash = fnv1a_value(op.gap, hash);
  }
  for (const ChurnEvent& event : in.churn) {
    hash = fnv1a_value(event.kind, hash);
    hash = fnv1a_value(event.node, hash);
    hash = fnv1a_value(event.position, hash);
    hash = fnv1a_value(event.power_watt, hash);
  }
  return hash;
}

/// Reversible churn script over every node, in a seeded order: each node in
/// turn is perturbed (a move by up to `max_shift_m`, alternating with a
/// power raise) and then restored to its original position or power, so at
/// most one node is off its home at a time and churn cost averages over the
/// whole topology rather than depending on which few nodes a seed picks.
std::vector<ChurnEvent> make_churn_script(const net::Network& network,
                                          double max_shift_m, Rng& rng) {
  std::vector<net::NodeId> nodes(network.num_nodes());
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
  std::shuffle(nodes.begin(), nodes.end(), rng);
  std::vector<ChurnEvent> script;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ChurnEvent change, undo;
    change.node = undo.node = nodes[i];
    if (i % 2 == 0) {
      change.kind = undo.kind = ChurnEvent::Kind::kMove;
      const geom::Point home = network.node(nodes[i]).position;
      change.position = {home.x + rng.uniform(-max_shift_m, max_shift_m) / 2,
                         home.y + rng.uniform(-max_shift_m, max_shift_m)};
      undo.position = home;
    } else {
      change.kind = undo.kind = ChurnEvent::Kind::kPower;
      const double power = network.node_tx_power(nodes[i]);
      change.power_watt = power * rng.uniform(1.1, 1.4);
      undo.power_watt = power;
    }
    script.push_back(change);
    script.push_back(undo);
  }
  return script;
}

io::ScenarioFile scenario_of(const net::Network& network) {
  io::ScenarioFile scenario;
  for (const net::Node& node : network.nodes())
    scenario.positions.push_back(node.position);
  return scenario;
}

}  // namespace

core::ModelRepair apply_churn(core::TopologyDelta& delta,
                              const ChurnEvent& event) {
  return event.kind == ChurnEvent::Kind::kMove
             ? delta.move_node(event.node, event.position)
             : delta.set_power(event.node, event.power_watt);
}

namespace {

/// The standard replay floor plan (26 nodes on 400 x 600 m, ~188 links)
/// with the standard replay query set (BM_AdmissionReplay's: 64 recurring
/// evaluate queries, 8 small commit queries), plus a seeded churn script of
/// node moves (up to `max_shift_m`) and power raises. The query set is
/// fixed rather than drawn per seed: evaluate cost differs by up to 2x
/// between random 64-path sets, which would drown a program change in
/// input variance. The seed drives the op trace and the churn script.
AdmissionInputs floor_plan_inputs(double max_shift_m, Rng& rng) {
  benchx::ReplayTraceOptions trace_options;
  trace_options.num_ops = 0;
  trace_options.distinct_queries = 64;
  const benchx::ReplayTrace trace = benchx::make_replay_trace(trace_options);

  AdmissionInputs in;
  in.scenario = scenario_of(*trace.network);
  in.eval_queries.assign(trace.queries.begin(), trace.queries.begin() + 64);
  in.commit_queries.assign(trace.queries.begin() + 64, trace.queries.end());
  in.churn = make_churn_script(*trace.network, max_shift_m, rng);
  return in;
}

}  // namespace

std::uint8_t AdmissionInputs::eval_query(std::uint64_t i) const {
  return static_cast<std::uint8_t>(draw(key, kEvalStream, i) %
                                   eval_queries.size());
}

WriterOp AdmissionInputs::writer_op(std::uint64_t k) const {
  WriterOp op;
  if (write_heavy) {
    // A dedicated writer runs back to back: three commits per churn
    // event, and an evict every 120 writer ops, so the committed
    // background grows to ~90 flows before it is dropped.
    if (k % 120 == 118) {
      op.kind = WriterOp::Kind::kEvict;
      return op;
    }
  } else {
    // Writer ops are 5% of the op stream, fired by client 0 at their
    // positions: the evaluates between two of them are geometric with
    // mean 19. Every 4th is a churn event (~100 per traffic window, so
    // its p90 has 10 samples beyond it), every 40th an evict.
    const double u =
        1.0 - static_cast<double>(draw(key, kGapStream, k) >> 11) * 0x1p-53;
    op.gap = static_cast<std::uint32_t>(std::floor(std::log(u) / std::log(0.95)));
    if (k % 40 == 38) {
      op.kind = WriterOp::Kind::kEvict;
      return op;
    }
  }
  if (k % 4 == 3) {
    // Consecutive churn ops walk the script in order, so each perturbation
    // is followed by its restore.
    op.kind = WriterOp::Kind::kChurn;
    op.index = static_cast<std::uint32_t>((k / 4) % churn.size());
  } else {
    op.kind = WriterOp::Kind::kCommit;
    op.index = static_cast<std::uint32_t>(draw(key, kCommitStream, k) %
                                          commit_queries.size());
  }
  return op;
}

AdmissionInputs make_admit_read_inputs(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 101);
  AdmissionInputs in = floor_plan_inputs(6.0, rng);
  in.clients = 3;
  in.key = rng();
  in.digest = digest_inputs(in);
  return in;
}

AdmissionInputs make_admit_write_inputs(std::uint64_t seed) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ull + 202);
  // Small moves and tiny commits: the committed background rarely becomes
  // unschedulable, so how often the writer must evict does not swing with
  // the seed.
  AdmissionInputs in = floor_plan_inputs(3.0, rng);
  in.write_heavy = true;
  in.clients = 2;
  for (core::AdmissionQuery& query : in.commit_queries) query.demand_mbps *= 0.01;
  in.key = rng();
  in.digest = digest_inputs(in);
  return in;
}

Service build_service(const std::string& blob_path) {
  Service service;
  io::ScenarioFile scenario;
  {
    Span span("io.load_scenario");
    scenario = io::load_scenario(blob_path);
  }
  {
    Span span("net.Network");
    service.network = std::make_unique<net::Network>(io::build_network(scenario));
    span.attr("links", static_cast<double>(service.network->num_links()));
  }
  {
    Span span("core.PhysicalInterferenceModel");
    service.model =
        std::make_unique<core::PhysicalInterferenceModel>(*service.network);
  }
  {
    Span span("core.TopologyDelta");
    service.delta = std::make_unique<core::TopologyDelta>(service.network.get(),
                                                          service.model.get());
  }
  {
    Span span("core.AdmissionEngine");
    service.engine = std::make_unique<core::AdmissionEngine>(*service.model);
  }
  {
    Span span("core.snapshot");
    service.engine->snapshot();
  }
  return service;
}

void run_traffic(Service& service, const AdmissionInputs& in, double seconds,
                 Phase phase, bool alternate_tracing, TrafficResult& result) {
  core::AdmissionEngine& engine = *service.engine;
  if (result.writes.empty() && result.evals.empty()) {
    result.first_epoch = engine.epoch();
    result.next_due = in.writer_op(0).gap;
  }
  const bool serial = phase == Phase::kSerial;

  struct Lane {
    Samples eval_us, eval_cpu_us;
    std::vector<EvalRecord> records;
    std::size_t errors = 0;
  };
  const std::size_t lane_count = serial ? 1 : in.clients;
  std::vector<Lane> lanes(lane_count);
  std::atomic<std::uint64_t> next_eval{result.next_eval};
  std::atomic<std::uint64_t> next_op_id{result.next_eval + result.writes.size() + 1};
  std::size_t writer_errors = 0;

  // The concurrent phase lasts `seconds` of wall-clock time. The serial
  // phase runs kSerialOpsPerSecond ops per second asked for, so it does
  // the same work however fast the host runs; its windows are slices of
  // that op count.
  const std::int64_t begin = now_ns();
  const std::int64_t deadline =
      begin + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t op_budget =
      static_cast<std::uint64_t>(seconds * kSerialOpsPerSecond);
  std::uint64_t ops_done = 0;  // serial phase
  // The window an op ending at `at_ns` belongs to.
  const auto window_of = [&](std::int64_t at_ns) {
    const double progress =
        serial ? static_cast<double>(ops_done) / static_cast<double>(op_budget)
               : seconds_between(begin, at_ns) / seconds;
    return static_cast<std::uint32_t>(
        std::min<double>(kTrafficWindows - 1, progress * kTrafficWindows));
  };
  // Called by the thread that drives the writer ops, between ops.
  const auto steer_tracer = [&] {
    if (alternate_tracing) Tracer::enable(window_of(now_ns()) % 2 == 1);
  };

  const auto evaluate_one = [&](Lane& lane) {
    const std::uint64_t i = next_eval.fetch_add(1, std::memory_order_relaxed);
    const core::AdmissionQuery& query = in.eval_queries[in.eval_query(i)];
    const bool traced = Tracer::enabled();
    Span span("core.evaluate", next_op_id.fetch_add(1));
    const std::int64_t cpu0 = serial ? process_cpu_ns() : 0;
    const std::int64_t t0 = now_ns();
    try {
      const core::AdmissionAnswer answer =
          engine.evaluate(query.path, query.demand_mbps);
      if (serial) {
        lane.eval_cpu_us.add(static_cast<double>(process_cpu_ns() - cpu0) * 1e-3,
                             window_of(now_ns()));
      } else {
        const std::int64_t t1 = now_ns();
        lane.eval_us.add(static_cast<double>(t1 - t0) * 1e-3, window_of(t1));
      }
      if (!answer.converged) {
        ++lane.errors;
      } else {
        lane.records.push_back({i, answer.epoch, answer.available_mbps,
                                answer.background_feasible, answer.admitted});
      }
      if (traced) {
        span.attr("pricing_rounds", static_cast<double>(answer.pricing_rounds));
        span.attr("tier0_cols", static_cast<double>(answer.tier0_columns));
        span.attr("heuristic_cols", static_cast<double>(answer.heuristic_columns));
        span.attr("exact_rounds", static_cast<double>(answer.exact_rounds));
        span.attr("master_cols", static_cast<double>(answer.master_columns));
        span.attr("pivots", static_cast<double>(answer.lp_pivots));
        span.attr("epoch_lag",
                  static_cast<double>(engine.epoch() - answer.epoch));
        span.attr("serial", serial ? 1.0 : 0.0);
      }
    } catch (const std::exception&) {
      ++lane.errors;
    }
  };

  const auto write_one = [&](const WriterOp& op) {
    WriterRecord record;
    record.op = op;
    const std::uint64_t op_id = next_op_id.fetch_add(1);
    const bool traced = Tracer::enabled();
    const core::AdmissionEngineStats before =
        traced ? engine.stats() : core::AdmissionEngineStats{};
    const std::int64_t cpu0 = serial ? process_cpu_ns() : 0;
    const std::int64_t t0 = now_ns();
    // Wall-clock milliseconds in the concurrent phase, process CPU
    // milliseconds in the serial one.
    const auto took_ms = [&](Samples& wall, Samples& cpu) {
      if (serial) {
        cpu.add(static_cast<double>(process_cpu_ns() - cpu0) * 1e-6, window_of(now_ns()));
      } else {
        const std::int64_t t1 = now_ns();
        wall.add(seconds_between(t0, t1) * 1e3, window_of(t1));
      }
    };
    try {
      switch (op.kind) {
        case WriterOp::Kind::kCommit: {
          Span span("core.commit", op_id);
          const core::AdmissionQuery& query = in.commit_queries[op.index];
          record.answer = engine.commit(query.path, query.demand_mbps);
          took_ms(result.commit_ms, result.commit_cpu_ms);
          ++result.commits;
          if (record.answer.admitted) ++result.admitted_commits;
          if (!record.answer.converged) ++writer_errors;
          if (traced) {
            const core::AdmissionEngineStats after = engine.stats();
            span.attr("pricing_rounds", static_cast<double>(after.pricing_rounds - before.pricing_rounds));
            span.attr("exact_rounds", static_cast<double>(after.exact_rounds - before.exact_rounds));
            span.attr("pivots", static_cast<double>(after.lp_pivots - before.lp_pivots));
            span.attr("dual_resolves", static_cast<double>(after.dual_resolves - before.dual_resolves));
            span.attr("dual_fallbacks", static_cast<double>(after.dual_fallbacks - before.dual_fallbacks));
            span.attr("master_cols", static_cast<double>(record.answer.master_columns));
            span.attr("admitted", record.answer.admitted ? 1.0 : 0.0);
          }
          break;
        }
        case WriterOp::Kind::kEvict: {
          Span span("core.evict", op_id);
          engine.evict();
          ++result.evicts;
          break;
        }
        case WriterOp::Kind::kChurn: {
          Span span("core.apply_topology_delta", op_id);
          std::size_t links = 0;
          engine.apply_topology_delta([&] {
            Span inner("core.topology_delta", op_id);
            core::ModelRepair repair =
                apply_churn(*service.delta, in.churn[op.index]);
            links = repair.links.size();
            return repair;
          });
          took_ms(result.churn_ms, result.churn_cpu_ms);
          ++result.churns;
          if (traced) {
            span.attr("links", static_cast<double>(links));
            span.attr("columns_dropped",
                      static_cast<double>(engine.stats().columns_dropped -
                                          before.columns_dropped));
          }
          break;
        }
      }
    } catch (const std::exception&) {
      ++writer_errors;
    }
    // Every writer op publishes exactly one epoch; the shadow replay maps
    // epochs back to writer-log prefixes through this record.
    record.epoch = engine.epoch();
    result.writes.push_back(std::move(record));
  };
  // Churn can leave the committed background unschedulable, after which
  // every evaluate short-circuits to "infeasible". The service then drops
  // the background, as an operator would; the evict is logged like any
  // other writer op, so the shadow replays it too.
  const auto write_next = [&] {
    const WriterOp op = in.writer_op(result.next_writer++);
    write_one(op);
    if (op.kind == WriterOp::Kind::kChurn && !engine.published()->feasible)
      write_one(WriterOp{WriterOp::Kind::kEvict, 0, 0});
  };
  // admit-read: fire every writer op whose position has been claimed.
  const auto write_due = [&] {
    const std::uint64_t claimed = next_eval.load(std::memory_order_relaxed);
    while (result.next_due <= claimed) {
      write_next();
      result.next_due += in.writer_op(result.next_writer).gap;
    }
  };

  if (!serial) result.before = sample_process();
  steer_tracer();  // before the readers start
  {
    std::vector<std::thread> threads;
    const auto reader = [&](std::size_t lane) {
      while (now_ns() < deadline) evaluate_one(lanes[lane]);
    };
    if (serial) {
      // One thread, one op in flight: the workload's writer mix with two
      // evaluates per writer op (admit-write) or at their positions.
      while (ops_done < op_budget) {
        steer_tracer();
        const std::size_t writes_before = result.writes.size();
        if (in.write_heavy) {
          write_next();
          evaluate_one(lanes[0]);
          evaluate_one(lanes[0]);
        } else {
          write_due();
          evaluate_one(lanes[0]);
        }
        ops_done += result.writes.size() - writes_before + (in.write_heavy ? 2 : 1);
      }
    } else if (in.write_heavy) {
      for (std::size_t t = 0; t < in.clients; ++t) threads.emplace_back(reader, t);
      while (now_ns() < deadline) {
        steer_tracer();
        write_next();
      }
    } else {
      for (std::size_t t = 1; t < in.clients; ++t) threads.emplace_back(reader, t);
      // Client 0 fires each writer op once its position has been claimed,
      // and evaluates like every other client in between.
      while (now_ns() < deadline) {
        steer_tracer();
        write_due();
        evaluate_one(lanes[0]);
      }
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (!serial) {
    result.wall_s = seconds_between(begin, now_ns());
    result.after = sample_process();
  }
  result.next_eval = next_eval.load();

  for (Lane& lane : lanes) {
    result.evaluates += lane.eval_us.size() + lane.eval_cpu_us.size();
    result.eval_us.append(lane.eval_us);
    result.eval_cpu_us.append(lane.eval_cpu_us);
    result.evals.insert(result.evals.end(), lane.records.begin(),
                        lane.records.end());
    result.errors += lane.errors;
  }
  result.errors += writer_errors;
}

double tracing_overhead(const Samples& samples) {
  std::vector<double> traced, untraced;
  for (std::size_t i = 0; i < samples.size(); ++i)
    (samples.windows[i] % 2 == 1 ? traced : untraced).push_back(samples.values[i]);
  const double base = median(std::move(untraced));
  return base > 0.0 ? median(std::move(traced)) / base - 1.0 : 0.0;
}

void check_answer(double got_mbps, bool got_feasible, bool got_admitted,
                  const core::AdmissionAnswer& want, const std::string& what) {
  const double scale = std::max(1.0, std::abs(want.available_mbps));
  if (got_admitted != want.admitted || got_feasible != want.background_feasible ||
      !(std::abs(got_mbps - want.available_mbps) <= 1e-6 * scale))
    throw GateFailure(what + ": got " + std::to_string(got_mbps) +
                      " Mbps, reference " + std::to_string(want.available_mbps));
}

std::size_t verify_shadow_parity(const AdmissionInputs& in,
                                 const TrafficResult& traffic) {
  // The twin is built from the same inputs, so its state before the first
  // writer op equals the live engine's first published epoch.
  net::Network network = io::build_network(in.scenario);
  core::PhysicalInterferenceModel model(network);
  core::TopologyDelta delta(&network, &model);
  core::AdmissionEngine shadow(model);

  const std::uint64_t first = traffic.first_epoch;
  std::vector<std::vector<const EvalRecord*>> by_epoch(traffic.writes.size() + 1);
  for (const EvalRecord& record : traffic.evals) {
    if (record.epoch < first || record.epoch > first + traffic.writes.size())
      throw GateFailure("evaluate answered on impossible epoch " +
                        std::to_string(record.epoch));
    by_epoch[record.epoch - first].push_back(&record);
  }
  for (std::size_t w = 0; w < traffic.writes.size(); ++w)
    if (traffic.writes[w].epoch != first + w + 1)
      throw GateFailure("writer op " + std::to_string(w) +
                        " published epoch " +
                        std::to_string(traffic.writes[w].epoch));

  std::size_t checked = 0;
  for (std::size_t step = 0; step <= traffic.writes.size(); ++step) {
    // Every distinct query of this epoch once, as one parallel batch.
    std::map<std::uint8_t, std::size_t> slot;
    std::vector<core::AdmissionQuery> batch;
    for (const EvalRecord* record : by_epoch[step]) {
      const std::uint8_t q = in.eval_query(record->index);
      if (slot.emplace(q, batch.size()).second) batch.push_back(in.eval_queries[q]);
    }
    const std::vector<core::AdmissionAnswer> want = shadow.query_batch(batch);
    for (const core::AdmissionAnswer& answer : want)
      if (!answer.converged) throw GateFailure("shadow query did not converge");
    for (const EvalRecord* record : by_epoch[step]) {
      check_answer(record->available_mbps, record->feasible, record->admitted,
                   want[slot.at(in.eval_query(record->index))],
                   "evaluate at epoch " + std::to_string(first + step));
      ++checked;
    }
    if (step == traffic.writes.size()) break;

    const WriterRecord& write = traffic.writes[step];
    switch (write.op.kind) {
      case WriterOp::Kind::kCommit: {
        const core::AdmissionQuery& query = in.commit_queries[write.op.index];
        const core::AdmissionAnswer reference =
            shadow.query(query.path, query.demand_mbps);
        check_answer(write.answer.available_mbps,
                     write.answer.background_feasible, write.answer.admitted,
                     reference, "commit at epoch " + std::to_string(write.epoch));
        ++checked;
        if (write.answer.admitted)
          shadow.add_background({query.path, query.demand_mbps});
        break;
      }
      case WriterOp::Kind::kEvict:
        shadow.clear();
        break;
      case WriterOp::Kind::kChurn:
        shadow.apply_topology_delta(
            [&] { return apply_churn(delta, in.churn[write.op.index]); });
        break;
    }
  }
  return checked;
}

std::size_t verify_cold_rebuild(Service& service, const AdmissionInputs& in,
                                double perturb_mbps) {
  core::AdmissionEngine& live = *service.engine;
  const core::PhysicalInterferenceModel fresh(*service.network);
  core::AdmissionEngine cold(fresh);
  const core::AdmissionEngine::SnapshotPtr snap = live.published();
  for (std::size_t i = 0; i < snap->background.size(); ++i)
    cold.add_background(snap->background[i]);

  const double live_airtime = live.background_airtime() + perturb_mbps;
  const double cold_airtime = cold.background_airtime();
  if (live.background_feasible() != cold.background_feasible() ||
      !(std::abs(live_airtime - cold_airtime) <=
        1e-6 * std::max(1.0, cold_airtime)))
    throw GateFailure("cold rebuild: background airtime " +
                      std::to_string(live_airtime) + " vs " +
                      std::to_string(cold_airtime));
  std::size_t checked = 1;
  for (const core::AdmissionQuery& query : in.eval_queries) {
    const core::AdmissionAnswer got = live.evaluate(query.path, query.demand_mbps);
    const core::AdmissionAnswer want = cold.query(query.path, query.demand_mbps);
    if (!got.converged || !want.converged)
      throw GateFailure("cold rebuild: query did not converge");
    check_answer(got.available_mbps + perturb_mbps, got.background_feasible,
                 got.admitted, want, "cold rebuild query");
    ++checked;
  }
  return checked;
}

}  // namespace perfbench
