// Self-tests of the harness itself: the percentile helper, input
// determinism, and that every correctness gate trips on a perturbed
// answer. perfbench/selftest.py runs them and also checks the printed
// metric names against BENCHMARK.json.

#include <cmath>
#include <functional>
#include <iostream>

#include "io/scenario_blob.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checker {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  }
  void expect_trips(const std::function<void()>& gate, const std::string& what) {
    bool tripped = false;
    try {
      gate();
    } catch (const GateFailure&) {
      tripped = true;
    }
    expect(tripped, what);
  }
};

void percentile_cases(Checker& check) {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  check.expect(percentile(ten, 50) == 5, "nearest-rank p50 of 1..10 is 5");
  check.expect(percentile(ten, 90) == 9, "nearest-rank p90 of 1..10 is 9");
  check.expect(percentile(ten, 99) == 10, "nearest-rank p99 of 1..10 is 10");
  check.expect(percentile(ten, 10) == 1, "nearest-rank p10 of 1..10 is 1");
  check.expect(percentile({3, 1, 2}, 33) == 1, "p33 of {1,2,3} is 1");
  check.expect(percentile({3, 1, 2}, 34) == 2, "p34 of {1,2,3} is 2");
  check.expect(percentile({7}, 99) == 7, "any percentile of one sample");
  check.expect(percentile({}, 50) == 0, "empty input gives 0");
  Samples windows;
  for (const double v : {10.0, 12.0, 30.0}) windows.add(v, 0);
  for (const double v : {11.0, 13.2, 33.0}) windows.add(v, 1);
  windows.add(14.0, 2);
  check.expect(std::abs(tracing_overhead(windows) - 0.1) < 1e-12,
               "tracing overhead: odd-window median 13.2 over even 12, minus 1");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  check.expect(percentile(thousand, 99) == 990,
               "p99 of 1..1000 is 990 (10 samples beyond it)");
}

void digest_cases(Checker& check) {
  check.expect(make_admit_read_inputs(7).digest == make_admit_read_inputs(7).digest,
               "admit-read: one seed gives one input digest");
  check.expect(make_admit_read_inputs(7).digest != make_admit_read_inputs(8).digest,
               "admit-read: different seeds give different inputs");
  check.expect(make_admit_write_inputs(7).digest == make_admit_write_inputs(7).digest,
               "admit-write: one seed gives one input digest");
  check.expect(make_admit_write_inputs(7).digest != make_admit_write_inputs(8).digest,
               "admit-write: different seeds give different inputs");
  check.expect(make_study_inputs(7).digest == make_study_inputs(7).digest,
               "study: one seed gives one input digest");
  check.expect(make_study_inputs(7).digest != make_study_inputs(8).digest,
               "study: different seeds give different inputs");
}

void gate_cases(Checker& check, const std::string& work_dir) {
  // A short real admit-read run, so the gates see genuine answers.
  const AdmissionInputs inputs = make_admit_read_inputs(3);
  const std::string blob = work_dir + "/selftest-service.mrwb";
  mrwsn::io::save_scenario_blob(inputs.scenario, blob);
  Service service = build_service(blob);
  TrafficResult traffic;
  run_traffic(service, inputs, 0.3, Phase::kConcurrent, false, traffic);
  run_traffic(service, inputs, 0.3, Phase::kSerial, false, traffic);
  check.expect(traffic.evaluates > 0 && traffic.commits > 0 && traffic.errors == 0,
               "short admit-read run evaluates and commits without errors");
  check.expect(traffic.eval_us.size() > 0 && traffic.eval_cpu_us.size() > 0,
               "both traffic phases time evaluates");
  check.expect(verify_shadow_parity(inputs, traffic) > 0,
               "shadow parity passes on the unperturbed run");
  check.expect(verify_cold_rebuild(service, inputs) > 0,
               "cold-rebuild parity passes on the unperturbed run");

  TrafficResult bad_eval = traffic;
  bad_eval.evals[bad_eval.evals.size() / 2].available_mbps += 1e-3;
  check.expect_trips([&] { verify_shadow_parity(inputs, bad_eval); },
                     "shadow parity trips on a perturbed evaluate answer");
  TrafficResult bad_commit = traffic;
  for (WriterRecord& write : bad_commit.writes)
    if (write.op.kind == WriterOp::Kind::kCommit) {
      write.answer.available_mbps *= 1.001;
      write.answer.available_mbps += 1e-3;
      break;
    }
  check.expect_trips([&] { verify_shadow_parity(inputs, bad_commit); },
                     "shadow parity trips on a perturbed commit answer");
  check.expect_trips([&] { verify_cold_rebuild(service, inputs, 1e-3); },
                     "cold-rebuild parity trips on a perturbed answer");

  // Study gates: an uncertified truth, and SimReports one bit apart.
  const StudyInputs study_inputs = make_study_inputs(3);
  StudyResult uncertified;
  uncertified.routed = study_inputs.requests.size();
  uncertified.flows.resize(1);
  check.expect_trips([&] { verify_study(StudyState{}, study_inputs, uncertified); },
                     "study gate trips on an uncertified LP truth");
  mrwsn::mac::SimReport report;
  report.node_idle = {0.25, 0.5};
  mrwsn::mac::SimReport flipped = report;
  flipped.node_idle[1] = std::nextafter(0.5, 1.0);
  check_same_report(report, report, "identical reports");
  check.expect_trips([&] { check_same_report(report, flipped, "flipped"); },
                     "SimReport identity trips on a one-ulp difference");
}

}  // namespace

int run_self_tests(const std::string& work_dir) {
  Checker check;
  percentile_cases(check);
  digest_cases(check);
  gate_cases(check, work_dir);
  std::cout << (check.failures ? "self-test FAILED" : "self-test passed")
            << " (" << check.failures << " failures)\n";
  return check.failures ? 1 : 0;
}

}  // namespace perfbench
