#include "tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/admission_replay.hpp"
#include "common/scaled_fig4.hpp"
#include "core/admission_engine.hpp"
#include "core/estimation.hpp"
#include "core/idle_time.hpp"
#include "core/interference.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "io/mobility.hpp"
#include "io/scenario.hpp"
#include "io/scenario_blob.hpp"
#include "mac/parallel_sim.hpp"
#include "routing/admission.hpp"
#include "routing/qos_router.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mrwsn::cli {

std::uint64_t parse_unsigned(const std::string& what, const std::string& text,
                             std::uint64_t max) {
  const auto fail = [&] {
    throw PreconditionError(what + " needs an unsigned integer no larger " +
                            "than " + std::to_string(max) + ", got '" + text +
                            "'");
  };
  if (text.empty()) fail();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') fail();
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) fail();
    value = value * 10 + digit;
  }
  return value;
}

double parse_nonnegative_double(const std::string& what,
                                const std::string& text, double max) {
  const auto fail = [&] {
    std::ostringstream message;
    message << what << " needs an unsigned decimal";
    if (max < std::numeric_limits<double>::max())
      message << " no larger than " << max;
    message << ", got '" << text << "'";
    throw PreconditionError(message.str());
  };
  const auto dots = std::count(text.begin(), text.end(), '.');
  const auto digits = std::count_if(text.begin(), text.end(),
                                    [](char c) { return c >= '0' && c <= '9'; });
  if (digits == 0 || dots > 1 ||
      static_cast<std::size_t>(digits + dots) != text.size())
    fail();
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value > max)
    fail();
  return value;
}

namespace {

/// A command-line usage error: the plain message, with no C++ expression
/// or source location (MRWSN_REQUIRE's text, meant for library misuse).
void require_usage(bool ok, const std::string& message) {
  if (!ok) throw PreconditionError(message);
}

net::NodeId parse_node(const std::string& text) {
  return static_cast<net::NodeId>(parse_unsigned(
      "node id", text, std::numeric_limits<net::NodeId>::max()));
}

/// Tiny option parser: `--key value` pairs after the positional args.
/// Each command names the flags it takes with only().
class Options {
 public:
  Options(const std::vector<std::string>& args, std::size_t first) {
    for (std::size_t i = first; i < args.size();) {
      require_usage(args[i].rfind("--", 0) == 0, "expected --option, got " + args[i]);
      if (args[i] == "--arf" || args[i] == "--serve" ||
          args[i] == "--bench-replay") {  // value-less flags
        values_[args[i]] = "1";
        ++i;
        continue;
      }
      require_usage(i + 1 < args.size(), "missing value for " + args[i]);
      values_[args[i]] = args[i + 1];
      i += 2;
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback,
                    double max = std::numeric_limits<double>::max()) const {
    const auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : parse_nonnegative_double(key, it->second, max);
  }
  std::uint64_t get_u64(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parse_unsigned(key, it->second, max);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Reject every flag `command` does not take.
  void only(const std::string& command,
            std::initializer_list<std::string_view> flags) const {
    for (const auto& entry : values_)
      if (std::find(flags.begin(), flags.end(), entry.first) == flags.end())
        throw PreconditionError("unknown option " + entry.first + " for " +
                                command);
  }

 private:
  std::map<std::string, std::string> values_;
};

routing::Metric parse_metric(const std::string& name) {
  if (name == "hop") return routing::Metric::kHopCount;
  if (name == "td") return routing::Metric::kE2eTxDelay;
  if (name == "avg") return routing::Metric::kAverageE2eDelay;
  throw PreconditionError("unknown metric '" + name + "' (hop|td|avg)");
}

routing::AdmissionPolicy parse_policy(const std::string& name) {
  if (name == "lp") return routing::AdmissionPolicy::kLpOracle;
  if (name == "eq10") return routing::AdmissionPolicy::kBottleneckNode;
  if (name == "eq11") return routing::AdmissionPolicy::kCliqueConstraint;
  if (name == "eq12") return routing::AdmissionPolicy::kMinCliqueBottleneck;
  if (name == "eq13") return routing::AdmissionPolicy::kConservativeClique;
  if (name == "eq15") return routing::AdmissionPolicy::kExpectedCliqueTime;
  throw PreconditionError("unknown policy '" + name +
                          "' (lp|eq10|eq11|eq12|eq13|eq15)");
}

std::vector<core::LinkFlow> background_of(const io::ScenarioFile& scenario,
                                          const net::Network& network) {
  std::vector<core::LinkFlow> background;
  for (const net::Flow& flow : io::build_flows(scenario, network))
    background.push_back(core::LinkFlow{flow.path.links(), flow.demand_mbps});
  return background;
}

std::string path_text(const net::Path& path) {
  std::string text;
  for (net::NodeId node : path.nodes()) {
    if (!text.empty()) text += "->";
    text += std::to_string(node);
  }
  return text;
}

int cmd_generate(const Options& options, std::ostream& out) {
  options.only("generate", {"--nodes", "--width", "--height", "--seed",
                            "--flows", "--demand"});
  const std::size_t nodes = options.get_u64("--nodes", 30);
  const double width = options.get_double("--width", 400.0);
  const double height = options.get_double("--height", 600.0);
  const std::uint64_t seed = options.get_u64("--seed", 1);
  const std::size_t num_flows = options.get_u64("--flows", 0);
  const double demand = options.get_double("--demand", 2.0);

  Rng rng(seed);
  phy::PhyModel phy = phy::PhyModel::paper_default();
  io::ScenarioFile scenario;
  scenario.positions = geom::connected_random_rectangle(nodes, width, height,
                                                        phy.max_tx_range(), rng);
  for (std::size_t i = 0; i < num_flows; ++i) {
    io::ScenarioFile::Request request;
    do {
      request.src = rng.uniform_int(0, nodes - 1);
      request.dst = rng.uniform_int(0, nodes - 1);
    } while (request.src == request.dst);
    request.demand_mbps = demand;
    scenario.requests.push_back(request);
  }
  out << io::serialize_scenario(scenario);
  return 0;
}

int cmd_info(const io::ScenarioFile& scenario, std::ostream& out) {
  const net::Network network = io::build_network(scenario);
  out << "nodes: " << network.num_nodes() << "\nlinks: " << network.num_links()
      << '\n';
  std::map<double, int> rate_histogram;
  for (const net::Link& link : network.links()) ++rate_histogram[link.best_mbps_alone];
  Table table({"lone rate [Mbps]", "links"});
  for (const auto& [rate, count] : rate_histogram)
    table.add_row({Table::num(rate, 0), std::to_string(count)});
  table.print(out);
  out << "background flows: " << scenario.flows.size()
      << "\nrequests: " << scenario.requests.size() << '\n';
  return 0;
}

int cmd_capacity(const io::ScenarioFile& scenario, net::NodeId src,
                 net::NodeId dst, std::ostream& out, std::ostream& err) {
  const net::Network network = io::build_network(scenario);
  core::PhysicalInterferenceModel model(network);
  routing::QosRouter router(network, model);
  const std::vector<double> idle(network.num_nodes(), 1.0);
  const auto path = router.find_path(src, dst, routing::Metric::kE2eTxDelay, idle);
  if (!path) {
    err << "no path from " << src << " to " << dst << '\n';
    return 1;
  }
  out << "path: " << path_text(*path) << '\n'
      << "capacity (Eq. 6, empty network): "
      << core::path_capacity(model, path->links()) << " Mbps\n";
  return 0;
}

int cmd_available(const io::ScenarioFile& scenario, net::NodeId src,
                  net::NodeId dst, const Options& options, std::ostream& out,
                  std::ostream& err) {
  options.only("available", {"--metric", "--starts"});
  const net::Network network = io::build_network(scenario);
  core::PhysicalInterferenceModel model(network);
  const auto background = background_of(scenario, network);
  routing::QosRouter router(network, model);
  const core::IdleResult idle =
      core::schedule_idle_ratios(network, model, background);
  if (!idle.feasible) {
    err << "the scenario's background flows are not jointly schedulable\n";
    return 1;
  }
  const auto metric = parse_metric(options.get("--metric", "avg"));
  const auto path = router.find_path(src, dst, metric, idle.node_idle);
  if (!path) {
    err << "no usable path from " << src << " to " << dst << '\n';
    return 1;
  }
  core::ColumnGenOptions colgen_options;
  colgen_options.heuristic_starts = static_cast<std::size_t>(options.get_u64(
      "--starts", colgen_options.heuristic_starts, kMaxStarts));
  const auto lp = core::max_path_bandwidth(model, background, path->links(),
                                           colgen_options);
  const auto input = core::make_path_estimate_input(network, model,
                                                    path->links(), idle.node_idle);
  out << "path (" << routing::metric_name(metric) << "): " << path_text(*path)
      << '\n'
      << "solver: column generation, " << lp.num_independent_sets
      << " columns\n"
      << "pricing: " << lp.colgen.rounds << " rounds (pool "
      << lp.colgen.pool_hit_columns << ", heuristic "
      << lp.colgen.heuristic_columns << " columns, exact "
      << lp.colgen.exact_rounds << " calls)"
      << (lp.colgen.certified ? ", certified optimal" : "") << '\n';
  Table table({"method", "Mbps"});
  table.add_row({"Eq. 6 LP (truth)",
                 Table::num(lp.background_feasible ? lp.available_mbps : 0.0, 3)});
  table.add_row({"Eq. 10 bottleneck node",
                 Table::num(core::estimate_bottleneck_node(input), 3)});
  table.add_row({"Eq. 11 clique constraint",
                 Table::num(core::estimate_clique_constraint(input), 3)});
  table.add_row({"Eq. 12 min of both",
                 Table::num(core::estimate_min_clique_bottleneck(input), 3)});
  table.add_row({"Eq. 13 conservative clique",
                 Table::num(core::estimate_conservative_clique(input), 3)});
  table.add_row({"Eq. 15 expected clique time",
                 Table::num(core::estimate_expected_clique_time(input), 3)});
  table.print(out);
  return 0;
}

int cmd_admit(const io::ScenarioFile& scenario, const Options& options,
              std::ostream& out, std::ostream& err) {
  options.only("admit", {"--metric", "--policy"});
  if (scenario.requests.empty()) {
    err << "the scenario has no request lines\n";
    return 1;
  }
  const net::Network network = io::build_network(scenario);
  core::PhysicalInterferenceModel model(network);
  routing::AdmissionController controller(
      network, model, parse_metric(options.get("--metric", "avg")));
  controller.set_policy(parse_policy(options.get("--policy", "lp")));
  // The scenario's `flow` lines are traffic that is already in the network.
  controller.preload_background(background_of(scenario, network));

  std::vector<routing::FlowRequest> requests;
  for (const auto& r : scenario.requests)
    requests.push_back(routing::FlowRequest{r.src, r.dst, r.demand_mbps});
  const auto outcome = controller.run(requests, /*stop_at_first_failure=*/false);

  Table table({"request", "path", "decision value", "LP truth", "admitted"});
  for (std::size_t i = 0; i < outcome.records.size(); ++i) {
    const auto& record = outcome.records[i];
    table.add_row({std::to_string(record.request.src) + "->" +
                       std::to_string(record.request.dst),
                   record.path ? path_text(*record.path) : "(none)",
                   Table::num(record.available_mbps, 2),
                   Table::num(record.true_available_mbps, 2),
                   record.admitted ? (record.over_admitted ? "OVER" : "yes")
                                   : "no"});
  }
  table.print(out);
  out << "admitted " << outcome.admitted_count << " of "
      << outcome.records.size() << " (" << outcome.over_admissions
      << " over-admissions)\n";
  return 0;
}

/// Shared setup of the batch/serve admission service: network, model,
/// hop-count routing over a fully idle channel (deterministic, path choice
/// does not depend on the admission order), and one long-lived engine
/// preloaded with the scenario's `flow` lines. Each session owns all of it.
struct AdmissionService {
  AdmissionService(const io::ScenarioFile& scenario, const Options& options)
      : metric(parse_metric(options.get("--metric", "hop"))),
        network(io::build_network(scenario)),
        model(network),
        engine(model),
        router(network, model) {
    for (const core::LinkFlow& flow : background_of(scenario, network))
      engine.add_background(flow);
    engine.snapshot();  // publish the current epoch for evaluate()
  }

  std::optional<net::Path> route(net::NodeId src, net::NodeId dst) const {
    const std::vector<double> idle(network.num_nodes(), 1.0);
    return router.find_path(src, dst, metric, idle);
  }

  routing::Metric metric;
  net::Network network;
  core::PhysicalInterferenceModel model;
  core::AdmissionEngine engine;
  routing::QosRouter router;
};

std::string decision_name(const core::AdmissionAnswer& answer) {
  if (!answer.background_feasible) return "infeasible";
  return answer.admitted ? "admit" : "reject";
}

/// One parsed line of a --batch query file.
struct BatchQuery {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double demand_mbps = 0.0;
  bool commit = false;
  std::optional<net::Path> path;
};

std::vector<BatchQuery> parse_batch_file(const std::string& file_name) {
  std::ifstream file(file_name);
  require_usage(file.good(), "cannot open batch file " + file_name);
  std::vector<BatchQuery> queries;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ',')) parts.push_back(field);
    require_usage(parts.size() == 3 || parts.size() == 4,
                  "batch line needs src,dst,demand[,commit]: " + line);
    BatchQuery query;
    query.src = parse_node(parts[0]);
    query.dst = parse_node(parts[1]);
    query.demand_mbps = parse_nonnegative_double(
        "batch demand", parts[2], std::numeric_limits<double>::max());
    if (parts.size() == 4) {
      require_usage(parts[3] == "commit" || parts[3] == "query",
                    "batch line flag must be commit|query: " + line);
      query.commit = parts[3] == "commit";
    }
    queries.push_back(query);
  }
  return queries;
}

void print_batch_row(std::ostream& out, std::size_t id, const BatchQuery& query,
                     const core::AdmissionAnswer& answer) {
  out << id << ',' << query.src << ',' << query.dst << ','
      << Table::num(query.demand_mbps, 3) << ','
      << (query.path ? decision_name(answer) : "no-route") << ','
      << Table::num(answer.available_mbps, 6) << ','
      << (query.path ? path_text(*query.path) : "") << '\n';
}

int cmd_batch(const io::ScenarioFile& scenario, const Options& options,
              std::ostream& out, std::ostream& err) {
  options.only("admit --batch", {"--batch", "--metric"});
  AdmissionService service(scenario, options);
  std::vector<BatchQuery> queries = parse_batch_file(options.get("--batch", ""));
  for (BatchQuery& query : queries) query.path = service.route(query.src, query.dst);

  out << "id,src,dst,demand_mbps,decision,available_mbps,path\n";
  // Runs of evaluate-only lines share one background snapshot, so they can
  // go through query_batch (parallel workers, deterministic answers); a
  // commit line is a sequence point that mutates the background.
  std::size_t next = 0;
  while (next < queries.size()) {
    if (queries[next].commit) {
      const BatchQuery& query = queries[next];
      core::AdmissionAnswer answer;
      if (query.path) answer = service.engine.commit(query.path->links(), query.demand_mbps);
      print_batch_row(out, next, query, answer);
      ++next;
      continue;
    }
    std::size_t segment_end = next;
    std::vector<core::AdmissionQuery> segment;
    std::vector<std::size_t> segment_ids;
    while (segment_end < queries.size() && !queries[segment_end].commit) {
      const BatchQuery& query = queries[segment_end];
      if (query.path) {
        segment.push_back(core::AdmissionQuery{query.path->links(),
                                               query.demand_mbps});
        segment_ids.push_back(segment_end);
      }
      ++segment_end;
    }
    const std::vector<core::AdmissionAnswer> answers =
        service.engine.query_batch(segment);
    std::map<std::size_t, const core::AdmissionAnswer*> answer_of;
    for (std::size_t i = 0; i < segment_ids.size(); ++i)
      answer_of[segment_ids[i]] = &answers[i];
    for (std::size_t id = next; id < segment_end; ++id) {
      const auto it = answer_of.find(id);
      print_batch_row(out, id, queries[id],
                      it == answer_of.end() ? core::AdmissionAnswer{} : *it->second);
    }
    next = segment_end;
  }

  const core::AdmissionEngineStats& stats = service.engine.stats();
  err << "batch: "
      << stats.queries + service.engine.snapshot_read_stats().queries
      << " queries, " << stats.commits
      << " commits, " << stats.dual_resolves << " dual re-solves, "
      << stats.dual_fallbacks << " cold fallbacks, pool "
      << stats.pool_columns << " columns\n";
  return 0;
}

/// Reader thread pool for `admit --serve --readers N`: `query` lines are
/// dispatched to N threads running engine.evaluate() on the published
/// snapshot, so evaluates overlap one another and never block behind a
/// commit happening on the session thread. Responses carry `id=<n>` (the
/// submission order) and arrive in completion order.
class ServeReaders {
 public:
  ServeReaders(std::size_t readers, core::AdmissionEngine& engine,
               std::ostream& out, std::mutex& out_mu)
      : engine_(engine), out_(out), out_mu_(out_mu) {
    for (std::size_t i = 0; i < readers; ++i)
      threads_.emplace_back([this] { reader_loop(); });
  }

  ~ServeReaders() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  void submit(std::size_t id, std::vector<net::LinkId> path, double demand,
              std::string path_name) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(Job{id, std::move(path), demand, std::move(path_name)});
      ++pending_;
    }
    queue_cv_.notify_one();
  }

  /// Block until every submitted query has been answered.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  struct Job {
    std::size_t id = 0;
    std::vector<net::LinkId> path;
    double demand_mbps = 0.0;
    std::string path_name;
  };

  void reader_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      std::string response;
      try {
        const core::AdmissionAnswer answer =
            engine_.evaluate(job.path, job.demand_mbps);
        response = "ok id=" + std::to_string(job.id) +
                   " decision=" + decision_name(answer) +
                   " available=" + Table::num(answer.available_mbps, 6) +
                   " epoch=" + std::to_string(answer.epoch) +
                   " path=" + job.path_name;
      } catch (const std::exception& e) {
        response = "err id=" + std::to_string(job.id) + " " + e.what();
      }
      {
        const std::lock_guard<std::mutex> lock(out_mu_);
        out_ << response << '\n' << std::flush;
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_cv_.notify_all();
      }
    }
  }

  core::AdmissionEngine& engine_;
  std::ostream& out_;
  std::mutex& out_mu_;
  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

int cmd_serve(const io::ScenarioFile& scenario, const Options& options,
              std::istream& in, std::ostream& out, std::ostream& err) {
  options.only("admit --serve", {"--serve", "--metric", "--readers"});
  AdmissionService service(scenario, options);
  const auto readers = static_cast<std::size_t>(
      options.get_u64("--readers", 0, util::kMaxThreads));
  std::mutex out_mu;
  std::unique_ptr<ServeReaders> async;
  if (readers > 0)
    async = std::make_unique<ServeReaders>(readers, service.engine, out,
                                           out_mu);
  const auto respond = [&](const std::string& text) {
    const std::lock_guard<std::mutex> lock(out_mu);
    out << text << '\n' << std::flush;
  };

  std::size_t next_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string command;
    if (!(words >> command)) continue;  // blank line
    try {
      if (command == "quit") break;
      if (command == "stats") {
        if (async) async->drain();
        const core::AdmissionEngineStats& stats = service.engine.stats();
        const core::SnapshotReadStats reads =
            service.engine.snapshot_read_stats();
        std::ostringstream text;
        text << "ok queries=" << stats.queries << " commits=" << stats.commits
             << " dual_resolves=" << stats.dual_resolves
             << " dual_fallbacks=" << stats.dual_fallbacks
             << " pool=" << stats.pool_columns
             << " epoch=" << service.engine.epoch()
             << " snapshot_queries=" << reads.queries
             << " shelved=" << reads.shelved_columns;
        respond(text.str());
      } else if (command == "reset") {
        service.engine.evict();
        respond("ok reset");
      } else if (command == "query" || command == "admit" ||
                 command == "background") {
        std::string src_text, dst_text, demand_text;
        if (!(words >> src_text >> dst_text >> demand_text)) {
          respond("err " + command + " needs <src> <dst> <demand>");
          continue;
        }
        const net::NodeId src = parse_node(src_text);
        const net::NodeId dst = parse_node(dst_text);
        const double demand = parse_nonnegative_double(
            "demand", demand_text, std::numeric_limits<double>::max());
        const auto path = service.route(src, dst);
        if (!path) {
          respond("err no route " + std::to_string(src) + " -> " +
                  std::to_string(dst));
          continue;
        }
        if (command == "background") {
          service.engine.add_background(
              core::LinkFlow{path->links(), demand});
          service.engine.snapshot();  // publish for concurrent readers
          respond("ok committed airtime=" +
                  Table::num(service.engine.background_airtime(), 6));
          continue;
        }
        if (command == "query" && async) {
          // Evaluate-only: hand to the reader pool and keep consuming
          // input — a following `admit` commits concurrently with these.
          async->submit(next_id++, {path->links().begin(),
                                    path->links().end()},
                        demand, path_text(*path));
          continue;
        }
        const core::AdmissionAnswer answer =
            command == "admit"
                ? service.engine.commit(path->links(), demand)
                : service.engine.evaluate(path->links(), demand);
        respond("ok decision=" + decision_name(answer) +
                " available=" + Table::num(answer.available_mbps, 6) +
                " epoch=" + std::to_string(answer.epoch) +
                " path=" + path_text(*path));
      } else {
        respond("err unknown command '" + command +
                "' (query|admit|background|stats|reset|quit)");
      }
    } catch (const std::exception& e) {
      respond(std::string("err ") + e.what());
    }
  }
  if (async) async->drain();
  (void)err;
  return 0;
}

/// `mrwsn admit <scenario> --bench-replay`: drive a deterministic mixed
/// evaluate/commit/evict trace over the scenario's topology at one or more
/// thread counts and print p50/p99 evaluate latency and throughput.
int cmd_bench_replay(const io::ScenarioFile& scenario, const Options& options,
                     std::ostream& out) {
  options.only("admit --bench-replay",
               {"--bench-replay", "--ops", "--queries", "--seed",
                "--commit-ratio", "--threads", "--verify"});
  benchx::ReplayTraceOptions trace_options;
  trace_options.num_ops = options.get_u64("--ops", 1000);
  trace_options.distinct_queries = options.get_u64("--queries", 64);
  trace_options.seed = options.get_u64("--seed", 1);
  // Writer-path pressure knob: 0.3 makes roughly 30% of the ops commits
  // (minus the periodic evicts), the write-heavy mix of the commit-latency
  // benchmarks.
  trace_options.commit_fraction =
      options.get_double("--commit-ratio", trace_options.commit_fraction, 1.0);
  auto network = std::make_shared<net::Network>(io::build_network(scenario));
  const benchx::ReplayTrace trace =
      benchx::make_replay_trace(std::move(network), trace_options);

  std::vector<std::size_t> thread_counts;
  {
    std::istringstream list(options.get("--threads", "1,4"));
    std::string item;
    while (std::getline(list, item, ','))
      thread_counts.push_back(
          parse_unsigned("--threads", item, util::kMaxThreads));
    require_usage(!thread_counts.empty(), "--threads needs a list like 1,4");
  }
  const bool verify = options.get("--verify", "on") == "on";

  out << "replay: " << trace.ops.size() << " ops ("
      << trace.evaluate_count() << " evaluates) over "
      << trace.network->num_links() << " links\n";
  Table table({"threads", "p50 [us]", "p99 [us]", "QPS", "commits", "evicts",
               "verified"});
  for (const std::size_t threads : thread_counts) {
    benchx::ReplayRunOptions run_options;
    run_options.threads = threads;
    run_options.verify_parity = verify;
    const benchx::ReplayRunStats stats =
        benchx::run_replay(trace, run_options);
    table.add_row({std::to_string(threads), Table::num(stats.eval_p50_us, 1),
                   Table::num(stats.eval_p99_us, 1), Table::num(stats.qps, 0),
                   std::to_string(stats.commits), std::to_string(stats.evicts),
                   verify ? std::to_string(stats.verified_answers) : "off"});
  }
  table.print(out);
  return 0;
}

/// `mrwsn scenario pack|unpack <in> <out>`: convert between the text
/// scenario format and the versioned binary blob. Both directions accept
/// either input encoding (load_scenario sniffs the magic).
int cmd_scenario(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.size() < 4 || (args[1] != "pack" && args[1] != "unpack")) {
    err << "usage: mrwsn scenario pack|unpack <in> <out>\n";
    return 2;
  }
  const io::ScenarioFile scenario = io::load_scenario(args[2]);
  if (args[1] == "pack") {
    io::save_scenario_blob(scenario, args[3]);
  } else {
    std::ofstream file(args[3], std::ios::trunc);
    require_usage(file.good(), "cannot create scenario file: " + args[3]);
    file << io::serialize_scenario(scenario);
    require_usage(file.good(), "short write to scenario file: " + args[3]);
  }
  out << args[1] << "ed " << args[2] << " -> " << args[3] << " (hash="
      << io::scenario_hash(scenario) << ")\n";
  return 0;
}

/// Replay one mobility event through the delta, validating the references
/// the parser could not (node/link ids against the evolving network).
core::ModelRepair replay_event(core::TopologyDelta& delta,
                               const net::Network& network,
                               const io::MobilityTrace::Event& event,
                               std::size_t index) {
  using Kind = io::MobilityTrace::Event::Kind;
  auto fail = [&](const std::string& why) -> void {
    throw PreconditionError("mobility event " + std::to_string(index + 1) +
                            ": " + why);
  };
  const auto need_live_node = [&](net::NodeId node) {
    if (node >= network.num_nodes())
      fail("unknown node " + std::to_string(node));
    if (!network.node(node).alive)
      fail("node " + std::to_string(node) + " already departed");
  };
  switch (event.kind) {
    case Kind::kMove:
      need_live_node(event.node);
      return delta.move_node(event.node, event.position);
    case Kind::kPower:
      need_live_node(event.node);
      return delta.set_power(event.node, event.tx_power_watt);
    case Kind::kRate: {
      need_live_node(event.tx);
      need_live_node(event.rx);
      const auto link = network.find_link(event.tx, event.rx);
      if (!link)
        fail("no link " + std::to_string(event.tx) + "->" +
             std::to_string(event.rx));
      if (event.rate_cap >= network.phy().rates().size())
        fail("rate cap out of range");
      return delta.set_rate(*link, event.rate_cap);
    }
    case Kind::kJoin:
      return delta.add_node(event.position);
    case Kind::kLeave:
      need_live_node(event.node);
      return delta.remove_node(event.node);
  }
  fail("corrupt event kind");
  return {};
}

std::string event_text(const io::MobilityTrace::Event& event) {
  using Kind = io::MobilityTrace::Event::Kind;
  switch (event.kind) {
    case Kind::kMove:
      return "move " + std::to_string(event.node) + " -> (" +
             Table::num(event.position.x, 1) + "," +
             Table::num(event.position.y, 1) + ")";
    case Kind::kPower:
      return "power " + std::to_string(event.node) + " = " +
             Table::num(event.tx_power_watt * 1e3, 1) + " mW";
    case Kind::kRate:
      return "rate " + std::to_string(event.tx) + "->" +
             std::to_string(event.rx) + " cap " +
             std::to_string(event.rate_cap);
    case Kind::kJoin:
      return "join (" + Table::num(event.position.x, 1) + "," +
             Table::num(event.position.y, 1) + ")";
    case Kind::kLeave:
      return "leave " + std::to_string(event.node);
  }
  return "?";
}

/// `mrwsn mobility <scenario> <trace>`: replay a churn trace through the
/// incremental repair path (TopologyDelta + apply_topology_delta), one
/// published epoch per event. --verify re-solves every epoch against a
/// cold engine on a fresh model of the mutated network and reports the
/// parity check; the scenario's `request` lines are re-admitted against
/// the final topology.
int cmd_mobility(const io::ScenarioFile& scenario, const Options& options,
                 std::ostream& out, std::ostream& err) {
  options.only("mobility", {"--trace", "--verify"});
  if (scenario.shadowing_sigma_db > 0.0) {
    err << "mobility replay does not support shadowed scenarios "
           "(incremental repair needs deterministic gains)\n";
    return 1;
  }
  const std::string trace_file = options.get("--trace", "");
  require_usage(!trace_file.empty(), "mobility needs --trace <file>");
  const io::MobilityTrace trace = io::load_mobility(trace_file);
  const bool verify = options.get("--verify", "off") == "on";

  net::Network network = io::build_network(scenario);
  core::PhysicalInterferenceModel model(network);
  core::TopologyDelta delta(&network, &model);
  core::AdmissionEngine engine(model);
  const auto background = background_of(scenario, network);
  for (const core::LinkFlow& flow : background) engine.add_background(flow);
  engine.snapshot();

  Table table(verify ? std::vector<std::string>{"event", "epoch", "links",
                                                "airtime", "feasible", "parity"}
                     : std::vector<std::string>{"event", "epoch", "links",
                                                "airtime", "feasible"});
  std::size_t verified = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const io::MobilityTrace::Event& event = trace.events[i];
    const std::uint64_t epoch = engine.apply_topology_delta(
        [&] { return replay_event(delta, network, event, i); });
    std::size_t alive_links = 0;
    for (const net::Link& link : network.links())
      if (link.alive) ++alive_links;
    std::vector<std::string> row{event_text(event), std::to_string(epoch),
                                 std::to_string(alive_links),
                                 Table::num(engine.background_airtime(), 4),
                                 engine.background_feasible() ? "yes" : "no"};
    if (verify) {
      // Shadow check: a cold engine over a fresh model of the mutated
      // network must agree with the repaired engine to LP tolerance.
      const core::PhysicalInterferenceModel fresh(network);
      core::AdmissionEngine cold(fresh);
      for (const core::LinkFlow& flow : background) cold.add_background(flow);
      const double a = engine.background_airtime();
      const double b = cold.background_airtime();
      const bool match =
          (std::isinf(a) && std::isinf(b)) ||
          std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
      row.push_back(match ? "ok" : "MISMATCH");
      if (match) ++verified;
    }
    table.add_row(std::move(row));
  }
  table.print(out);

  const core::AdmissionEngineStats& stats = engine.stats();
  out << "churn: " << stats.topology_repairs << " repairs, "
      << stats.columns_dropped << " columns dropped, "
      << stats.dual_resolves << " dual re-solves, " << stats.dual_fallbacks
      << " cold fallbacks, epoch " << engine.epoch() << '\n';
  if (verify)
    out << "verified " << verified << "/" << trace.events.size()
        << " epochs against cold rebuilds\n";

  if (!scenario.requests.empty()) {
    // Re-admit the scenario's requests on the post-churn topology.
    routing::QosRouter router(network, model);
    const std::vector<double> idle(network.num_nodes(), 1.0);
    Table admissions({"request", "path", "available [Mbps]", "admitted"});
    for (const auto& request : scenario.requests) {
      std::optional<net::Path> path;
      if (request.src < network.num_nodes() &&
          request.dst < network.num_nodes() &&
          network.node(request.src).alive && network.node(request.dst).alive)
        path = router.find_path(request.src, request.dst,
                                routing::Metric::kHopCount, idle);
      core::AdmissionAnswer answer;
      if (path) answer = engine.query(path->links(), request.demand_mbps);
      admissions.add_row({std::to_string(request.src) + "->" +
                              std::to_string(request.dst),
                          path ? path_text(*path) : "(none)",
                          Table::num(answer.available_mbps, 3),
                          path && answer.admitted ? "yes" : "no"});
    }
    admissions.print(out);
  }
  return 0;
}

int cmd_simulate(const io::ScenarioFile& scenario, const Options& options,
                 std::ostream& out, std::ostream& err) {
  options.only("simulate", {"--seconds", "--arf", "--seed"});
  if (scenario.flows.empty()) {
    err << "the scenario has no flow lines to simulate\n";
    return 1;
  }
  const net::Network network = io::build_network(scenario);
  mac::MacParams params;
  params.enable_arf = options.has("--arf");
  mac::ParallelCsmaSimulator sim(network, params,
                                 mac::ShardParams::one_region(),
                                 options.get_u64("--seed", 1));
  for (const net::Flow& flow : io::build_flows(scenario, network))
    sim.add_flow(flow.path.links(), flow.demand_mbps);
  const mac::SimReport report =
      sim.run(options.get_double("--seconds", 2.0));

  Table table({"flow", "offered [Mbps]", "delivered [Mbps]", "mean lat [ms]",
               "drops"});
  for (std::size_t i = 0; i < report.flows.size(); ++i) {
    const auto& stats = report.flows[i];
    table.add_row({std::to_string(i), Table::num(stats.offered_mbps, 2),
                   Table::num(stats.delivered_mbps, 2),
                   Table::num(stats.mean_latency_s * 1e3, 2),
                   std::to_string(stats.dropped_packets)});
  }
  table.print(out);
  double idle_sum = 0.0;
  for (double idle : report.node_idle) idle_sum += idle;
  out << "mean node idle ratio: "
      << Table::num(idle_sum / static_cast<double>(report.node_idle.size()), 3)
      << '\n';
  return 0;
}

/// The scaled Fig. 4 rerun (bench/common/scaled_fig4.*): estimators vs LP
/// truth on a constant-density topology whose idle ratios are measured by
/// the sharded parallel CSMA simulator.
int cmd_fig4(const Options& options, std::ostream& out) {
  options.only("fig4", {"--nodes", "--flows", "--seed", "--threads",
                        "--seconds", "--demand", "--rts"});
  benchx::ScaledFig4Options scaled;
  scaled.num_nodes = static_cast<std::size_t>(options.get_u64("--nodes", 500));
  scaled.num_flows = static_cast<std::size_t>(options.get_u64("--flows", 8));
  scaled.seed = options.get_u64("--seed", 4);
  scaled.threads = static_cast<std::size_t>(
      options.get_u64("--threads", 0, util::kMaxThreads));
  scaled.measure_s = options.get_double("--seconds", 0.5);
  scaled.demand_mbps = options.get_double("--demand", 2.0);
  const std::string rts = options.get("--rts", "both");
  require_usage(rts == "on" || rts == "off" || rts == "both",
                "--rts must be on|off|both");
  scaled.run_with_rts = rts != "off";
  scaled.run_without_rts = rts != "on";
  return benchx::run_scaled_fig4(scaled, out);
}

void usage(std::ostream& os) {
  os << "usage: mrwsn "
         "<generate|info|scenario|capacity|available|admit|mobility|simulate|"
         "fig4|help> "
         "...\n"
         "  mrwsn generate --nodes 30 --seed 1 --flows 8\n"
         "  mrwsn info scenario.txt\n"
         "  mrwsn scenario pack scenario.txt scenario.mrwb\n"
         "  mrwsn scenario unpack scenario.mrwb scenario.txt\n"
         "  mrwsn capacity scenario.txt <src> <dst>\n"
         "  mrwsn available scenario.txt <src> <dst> [--metric hop|td|avg]\n"
         "                 [--starts N (default "
     << core::ColumnGenOptions{}.heuristic_starts << "; 0: exact only)]\n"
         "  mrwsn admit scenario.txt [--metric avg] [--policy lp|eq13|...]\n"
         "  mrwsn admit scenario.txt --batch queries.csv [--metric hop]\n"
         "  mrwsn admit scenario.txt --serve [--metric hop] [--readers N]\n"
         "  mrwsn admit scenario.txt --bench-replay [--ops 1000]\n"
         "                 [--threads 1,4] [--queries 64] [--seed 1]\n"
         "                 [--commit-ratio 0.05] [--verify on|off]\n"
         "  mrwsn mobility scenario.txt --trace trace.txt [--verify on|off]\n"
         "  mrwsn simulate scenario.txt [--seconds 2] [--arf] [--seed 1]\n"
         "  mrwsn fig4 [--nodes 500] [--threads 8] [--seed 4] [--flows 8]\n"
         "             [--rts on|off|both] [--seconds 0.5]\n"
         "scenario files load from text or packed binary (sniffed by magic)\n"
         "each command rejects flags it does not take; counts take unsigned\n"
         "integers, and sizes, demands, seconds and ratios unsigned decimals\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  return run_cli(args, std::cin, out, err);
}

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  try {
    if (args.empty()) {
      usage(err);
      return 2;
    }
    const std::string& command = args[0];
    if (command == "help" || command == "--help" || command == "-h") {
      usage(out);
      return 0;
    }
    if (command == "generate") return cmd_generate(Options(args, 1), out);
    if (command == "fig4") return cmd_fig4(Options(args, 1), out);
    if (command == "scenario") return cmd_scenario(args, out, err);

    // The remaining commands read a scenario file; an unknown command must
    // reach the usage message below without touching one.
    const auto load = [&] {
      require_usage(args.size() >= 2, command + " needs a scenario file");
      return io::load_scenario(args[1]);
    };
    if (command == "info") {
      const io::ScenarioFile scenario = load();
      Options(args, 2).only("info", {});
      return cmd_info(scenario, out);
    }
    if (command == "capacity" || command == "available") {
      const io::ScenarioFile scenario = load();
      require_usage(args.size() >= 4, command + " needs <src> <dst>");
      const net::NodeId src = parse_node(args[2]);
      const net::NodeId dst = parse_node(args[3]);
      const std::size_t nodes = scenario.positions.size();
      for (const auto& [name, node] :
           {std::pair{"<src>", src}, std::pair{"<dst>", dst}})
        if (node >= nodes)
          throw PreconditionError(command + ": " + name +
                                  " must be a node id below " +
                                  std::to_string(nodes) + ", got " +
                                  std::to_string(node));
      if (src == dst)
        throw PreconditionError(command + ": <src> and <dst> must differ, got " +
                                std::to_string(src) + " for both");
      if (command == "capacity") {
        Options(args, 4).only("capacity", {});
        return cmd_capacity(scenario, src, dst, out, err);
      }
      return cmd_available(scenario, src, dst, Options(args, 4), out, err);
    }
    if (command == "admit") {
      const io::ScenarioFile scenario = load();
      const Options options(args, 2);
      if (options.has("--batch")) return cmd_batch(scenario, options, out, err);
      if (options.has("--serve")) return cmd_serve(scenario, options, in, out, err);
      if (options.has("--bench-replay"))
        return cmd_bench_replay(scenario, options, out);
      return cmd_admit(scenario, options, out, err);
    }
    if (command == "mobility")
      return cmd_mobility(load(), Options(args, 2), out, err);
    if (command == "simulate")
      return cmd_simulate(load(), Options(args, 2), out, err);
    usage(err);
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace mrwsn::cli
