// perfbench: one run of one workload. perfbench/run.py builds this binary
// and turns its result line into the benchmark's report.
//
//   perfbench --workload admit-read|admit-write --seed N --seconds S
//             --work-dir DIR [--trace-file PATH]
//   perfbench --self-test --work-dir DIR
//
// A run sets up the admission service and the scaled Fig. 4 study
// several times (setup_s is the median), drives the
// admission traffic (a fixed number of ops per second asked for of the
// workload's op mix on one thread, then S/2 wall seconds of its
// closed-loop clients), runs the
// study a few times, then checks every answer. The last
// stdout line is a JSON object; a failed gate prints the reason to stderr
// and exits 3 without one.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "io/scenario_blob.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Set-ups at each of three points of a run (before the traffic, before
// the studies, after them); setup_s reports the median of all nine. One
// set-up takes tens of milliseconds, and the host's speed drifts over tens
// of seconds, so spreading them over the run steadies the median.
constexpr int kSetupsPerPoint = 3;
// Studies per run; study_s, truth_s and sim_rate report their medians.
constexpr int kStudyRepeats = 3;

struct Args {
  std::string workload, work_dir, trace_file;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload admit-read|admit-write --seed N "
               "--seconds S --work-dir DIR [--trace-file PATH]\n"
               "       perfbench --self-test --work-dir DIR\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--work-dir") args.work_dir = value;
      else if (flag == "--trace-file") args.trace_file = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!args.self_test && args.workload != "admit-read" &&
      args.workload != "admit-write")
    usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Progress on stderr: the phase just finished and its wall time.
void progress(const std::string& phase, std::int64_t since_ns) {
  std::fprintf(stderr, "perfbench: %s %.3f s\n", phase.c_str(),
               seconds_between(since_ns, now_ns()));
}

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

int run(const Args& args) {
  Tracer::enable(!args.trace_file.empty());
  std::int64_t phase = now_ns();
  const AdmissionInputs inputs = args.workload == "admit-read"
                                     ? make_admit_read_inputs(args.seed)
                                     : make_admit_write_inputs(args.seed);
  const StudyInputs study_inputs = make_study_inputs(args.seed);
  const std::string prefix = args.work_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed);
  const std::string service_blob = prefix + "-service.mrwb";
  const std::string study_blob = prefix + "-study.mrwb";
  mrwsn::io::save_scenario_blob(inputs.scenario, service_blob);
  mrwsn::io::save_scenario_blob(study_inputs.scenario, study_blob);
  progress("inputs", phase);

  // Set-up: scenario load, network, model, topology delta, engine and its
  // first publish, and the study's network and model. The study only reads
  // its state, so later set-ups rebuild it in place; they build a spare
  // service, so the peak memory stays that of one set-up.
  const bool traced = !args.trace_file.empty();
  std::vector<double> setup_s;
  Service service;
  StudyState study_state;
  const auto set_up = [&](Service& into) {
    for (int rep = 0; rep < kSetupsPerPoint; ++rep) {
      into = Service{};
      study_state = StudyState{};
      const std::int64_t t0 = now_ns();
      into = build_service(service_blob);
      study_state = build_study(study_blob);
      setup_s.push_back(seconds_between(t0, now_ns()));
      progress("setup", t0);
    }
  };
  set_up(service);

  const std::size_t shelved_before =
      service.engine->snapshot_read_stats().shelved_columns;
  // A traced run traces alternate windows of each traffic phase and the
  // middle study only; the untraced rest is the base of the tracing
  // overhead, measured in the same process over the same stretch of time.
  TrafficResult traffic;
  const double phase_s = args.seconds / 2;
  phase = now_ns();
  const ProcessSample serial_before = sample_process();
  run_traffic(service, inputs, phase_s, Phase::kSerial, traced, traffic);
  const ProcessSample serial_after = sample_process();
  progress("serial traffic", phase);
  phase = now_ns();
  run_traffic(service, inputs, phase_s, Phase::kConcurrent, traced, traffic);
  progress("concurrent traffic", phase);
  const std::size_t shelved =
      service.engine->snapshot_read_stats().shelved_columns - shelved_before;
  Tracer::enable(traced);
  {
    Service spare;
    set_up(spare);
  }
  std::vector<StudyResult> studies;
  std::vector<double> study_s, truth_s, truth_cpu_s, sim_rate;
  for (int rep = 0; rep < kStudyRepeats; ++rep) {
    Tracer::enable(traced && rep == 1);
    phase = now_ns();
    studies.push_back(run_study(study_state, study_inputs));
    study_s.push_back(studies.back().study_s);
    truth_s.push_back(studies.back().truth_s);
    truth_cpu_s.push_back(studies.back().truth_cpu_s);
    sim_rate.push_back(studies.back().sim_air_s / studies.back().sim_wall_s);
    progress("study", phase);
  }
  Tracer::enable(traced);
  {
    Service spare;
    set_up(spare);
  }
  std::remove(service_blob.c_str());
  std::remove(study_blob.c_str());
  const StudyResult& study = studies.front();

  // Correctness gates, outside every timed region.
  phase = now_ns();
  std::size_t verified = verify_shadow_parity(inputs, traffic);
  progress("shadow parity gate", phase);
  phase = now_ns();
  verified += verify_cold_rebuild(service, inputs);
  progress("cold rebuild gate", phase);
  phase = now_ns();
  verify_study(study_state, study_inputs, study);
  for (const StudyResult& again : studies) {
    if (again.errors != 0) throw GateFailure("study: a repeat failed an op");
    check_same_report(study.rts_off, again.rts_off, "CSMA RTS off, repeat");
    check_same_report(study.rts_on, again.rts_on, "CSMA RTS on, repeat");
  }
  progress("study gates", phase);
  const ProcessSample end = sample_process();

  const double traffic_cpu = traffic.after.cpu_s - traffic.before.cpu_s;
  const double ops = static_cast<double>(traffic.evaluates + traffic.commits +
                                         traffic.evicts + traffic.churns);
  const std::size_t attempted = traffic.evaluates + traffic.commits +
                                traffic.evicts + traffic.churns +
                                kStudyRepeats * (study.flows.size() + 2);
  // A study op that fails has already failed the gates above.
  const std::size_t failed = traffic.errors;
  {
    // Run-level counters for the trace report.
    const mrwsn::core::AdmissionEngineStats stats = service.engine->stats();
    Span span("run.counters");
    span.attr("evaluates", static_cast<double>(traffic.evaluates));
    span.attr("commits", static_cast<double>(traffic.commits));
    span.attr("churns", static_cast<double>(traffic.churns));
    span.attr("ops", ops);
    span.attr("shelved", static_cast<double>(shelved));
    span.attr("shelf_dropped", static_cast<double>(stats.shelf_dropped));
    span.attr("pool_columns", static_cast<double>(stats.pool_columns));
    span.attr("traffic_wall_s", traffic.wall_s);
    span.attr("traffic_cpu_s", traffic_cpu);
    span.attr("traffic_switches",
              (traffic.after.voluntary_switches - traffic.before.voluntary_switches) +
                  (traffic.after.involuntary_switches -
                   traffic.before.involuntary_switches));
    span.attr("studies", kStudyRepeats);
    span.attr("study_wall_s", study.study_s);
    span.attr("study_cpu_s", study.after.cpu_s - study.before.cpu_s);
    span.attr("serial_cpu_s", serial_after.cpu_s - serial_before.cpu_s);
    span.attr("serial_sys_s", serial_after.sys_s - serial_before.sys_s);
    if (traced) {
      span.attr("overhead_eval_cpu", tracing_overhead(traffic.eval_cpu_us));
      span.attr("overhead_commit_cpu", tracing_overhead(traffic.commit_cpu_ms));
      span.attr("overhead_churn_cpu", tracing_overhead(traffic.churn_cpu_ms));
      span.attr("overhead_eval_p50", tracing_overhead(traffic.eval_us));
      span.attr("overhead_truth_cpu",
                truth_cpu_s[1] / ((truth_cpu_s[0] + truth_cpu_s[2]) / 2) - 1.0);
    }
  }
  if (Tracer::enabled()) Tracer::write(args.trace_file);

  Json metrics;
  const double window_s = phase_s / kTrafficWindows;
  metrics.num("eval_cpu_us", windowed_percentile(traffic.eval_cpu_us, 50, kTrafficWindows))
      .num("commit_cpu_ms", windowed_percentile(traffic.commit_cpu_ms, 50, kTrafficWindows))
      .num("churn_cpu_ms", windowed_percentile(traffic.churn_cpu_ms, 50, kTrafficWindows))
      .num("truth_cpu_s", median(truth_cpu_s))
      .num("eval_p50_us", windowed_percentile(traffic.eval_us, 50, kTrafficWindows))
      .num("eval_p99_us", windowed_percentile(traffic.eval_us, 99, kTrafficWindows))
      .num("eval_per_s", windowed_count(traffic.eval_us, kTrafficWindows) / window_s)
      .num("commit_p50_ms", windowed_percentile(traffic.commit_ms, 50, kTrafficWindows))
      .num("commit_p90_ms", windowed_percentile(traffic.commit_ms, 90, kTrafficWindows))
      .num("churn_p50_ms", windowed_percentile(traffic.churn_ms, 50, kTrafficWindows))
      .num("churn_p90_ms", windowed_percentile(traffic.churn_ms, 90, kTrafficWindows))
      .num("error_rate", static_cast<double>(failed) /
                             static_cast<double>(attempted))
      .num("setup_s", median(setup_s))
      .num("peak_rss_mb", end.max_rss_mib)
      .num("study_s", median(study_s))
      .num("truth_s", median(truth_s))
      .num("sim_rate", median(sim_rate));
  Json counts;
  counts.num("evaluates", static_cast<double>(traffic.evaluates))
      .num("commits", static_cast<double>(traffic.commits))
      .num("admitted_commits", static_cast<double>(traffic.admitted_commits))
      .num("evicts", static_cast<double>(traffic.evicts))
      .num("churn_events", static_cast<double>(traffic.churns))
      .num("truth_flows", static_cast<double>(study.flows.size()))
      .num("verified_answers", static_cast<double>(verified))
      .num("traffic_wall_s", traffic.wall_s)
      .num("traffic_cpu_s", traffic_cpu)
      .num("setup_repeats", static_cast<double>(setup_s.size()))
      .num("serial_cpu_s", serial_after.cpu_s - serial_before.cpu_s)
      .num("serial_sys_s", serial_after.sys_s - serial_before.sys_s)
      .num("serial_ops", static_cast<double>(traffic.eval_cpu_us.size() +
                                             traffic.commit_cpu_ms.size() +
                                             traffic.churn_cpu_ms.size()));
  Json rms;
  const char* kEstimators[] = {"eq10", "eq11", "eq12", "eq13", "eq15"};
  for (std::size_t e = 0; e < study.rms_error.size(); ++e)
    rms.num(kEstimators[e], study.rms_error[e]);
  const char* env_threads = std::getenv("MRWSN_THREADS");
  Json result;
  result.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .str("input_digest", hex(inputs.digest ^ study_inputs.digest))
      .num("configured_threads",
           static_cast<double>(mrwsn::util::configured_threads()))
      .str("mrwsn_threads_env", env_threads ? env_threads : "")
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .obj("metrics", metrics)
      .obj("counts", counts)
      .obj("estimator_rms_error", rms);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return args.self_test ? run_self_tests(args.work_dir) : run(args);
  } catch (const GateFailure& failure) {
    std::cerr << "perfbench: correctness gate failed: " << failure.what() << "\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 4;
  }
}
