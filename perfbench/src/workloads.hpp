#pragma once

// The benchmark's two workloads share one shape: an admission service on
// the standard replay floor plan (set up from an MRWB scenario file, then
// driven by closed-loop clients for the run's seconds) followed by one
// scaled Fig. 4 study. The inputs of both are generated in-process from
// the run's seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/admission_engine.hpp"
#include "core/topology_delta.hpp"
#include "io/scenario.hpp"
#include "mac/csma.hpp"
#include "net/network.hpp"
#include "routing/admission.hpp"

namespace perfbench {

namespace core = mrwsn::core;
namespace geom = mrwsn::geom;
namespace io = mrwsn::io;
namespace mac = mrwsn::mac;
namespace net = mrwsn::net;
namespace routing = mrwsn::routing;

// ---------------------------------------------------------------------------
// Admission service
// ---------------------------------------------------------------------------

/// One step of a reversible churn script: move a node or set its power to
/// an absolute value, so replaying the script on a twin topology repeats
/// exactly the same mutations.
struct ChurnEvent {
  enum class Kind : std::uint8_t { kMove, kPower };
  Kind kind = Kind::kMove;
  net::NodeId node = 0;
  geom::Point position;
  double power_watt = 0.0;
};

core::ModelRepair apply_churn(core::TopologyDelta& delta,
                              const ChurnEvent& event);

struct WriterOp {
  enum class Kind : std::uint8_t { kCommit, kEvict, kChurn };
  Kind kind = Kind::kCommit;
  std::uint32_t index = 0;  ///< commit query or churn event
  /// admit-read: evaluates claimed since the previous writer op before
  /// this one fires.
  std::uint32_t gap = 0;
};

/// The inputs of an admission workload. The op streams are counter-based:
/// evaluate i and writer op k are pure functions of (key, i) and (key, k),
/// computed when a client reaches them, so a run of any length needs no
/// pre-generated trace.
struct AdmissionInputs {
  bool write_heavy = false;  ///< admit-write: a dedicated writer thread
  std::size_t clients = 0;   ///< evaluate threads (client 0 also writes on
                             ///< admit-read)
  io::ScenarioFile scenario;
  std::vector<core::AdmissionQuery> eval_queries;
  std::vector<core::AdmissionQuery> commit_queries;
  std::vector<ChurnEvent> churn;
  std::uint64_t key = 0;     ///< seed-derived key of the op streams
  std::uint64_t digest = 0;  ///< FNV-1a over the inputs and a stream prefix

  /// Index into eval_queries of the i-th evaluate.
  std::uint8_t eval_query(std::uint64_t i) const;
  /// The k-th writer op.
  WriterOp writer_op(std::uint64_t k) const;
};

AdmissionInputs make_admit_read_inputs(std::uint64_t seed);
AdmissionInputs make_admit_write_inputs(std::uint64_t seed);

/// Everything an admission workload builds before its first timed op.
/// Members are heap-held so the borrowed pointers between them stay valid.
struct Service {
  std::unique_ptr<net::Network> network;
  std::unique_ptr<core::PhysicalInterferenceModel> model;
  std::unique_ptr<core::TopologyDelta> delta;
  std::unique_ptr<core::AdmissionEngine> engine;
};

/// Load the scenario from `blob_path`, build network, model, topology
/// delta and engine, and publish the first epoch. Every layer call is
/// wrapped in a Span.
Service build_service(const std::string& blob_path);

struct EvalRecord {
  std::uint64_t index = 0;  ///< evaluate number in the op stream
  std::uint64_t epoch = 0;
  double available_mbps = 0.0;
  bool feasible = false;
  bool admitted = false;
};

struct WriterRecord {
  WriterOp op;
  std::uint64_t epoch = 0;  ///< published epoch after the op
  core::AdmissionAnswer answer;  ///< commits only
};

/// Each traffic phase is cut into this many equal windows; its figures
/// are medians over the windows. In a traced run the odd windows are
/// traced and the even ones not, which gives the tracing overhead.
constexpr std::size_t kTrafficWindows = 6;

/// kConcurrent: the workload's closed-loop clients for `seconds` of wall
/// time; every op is timed call to return on the wall clock. kSerial: one
/// thread runs the same op mix, one op in flight, for kSerialOpsPerSecond
/// ops per second asked for; each op is charged the process CPU time it
/// took, its internal fan-out threads included.
enum class Phase { kConcurrent, kSerial };

/// Serial-phase ops per second asked for: 3,000 ops took 1-1.5 s on a
/// 4-vCPU Xeon host. A fixed count makes every run do the same work.
constexpr double kSerialOpsPerSecond = 3000;

/// Both phases of a run append to one result, so the shadow replay sees
/// one writer log. The op-stream cursors carry over from phase to phase.
struct TrafficResult {
  std::uint64_t first_epoch = 0;  ///< published epoch before any traffic
  std::uint64_t next_eval = 0, next_writer = 0, next_due = 0;
  // Concurrent phase
  double wall_s = 0.0;
  Samples eval_us, commit_ms, churn_ms;
  ProcessSample before, after;
  // Serial phase
  Samples eval_cpu_us, commit_cpu_ms, churn_cpu_ms;
  // Both phases
  std::size_t evaluates = 0, commits = 0, admitted_commits = 0, evicts = 0,
              churns = 0, errors = 0;
  std::vector<EvalRecord> evals;  ///< converged evaluates, any order
  std::vector<WriterRecord> writes;  ///< in execution order
};

/// Run one traffic phase for `seconds`, appending to `result`. With
/// `alternate_tracing` the tracer is on in odd windows only.
void run_traffic(Service& service, const AdmissionInputs& inputs,
                 double seconds, Phase phase, bool alternate_tracing,
                 TrafficResult& result);

/// Odd-window over even-window median of `samples`, minus 1: the tracing
/// overhead of a phase run with alternate_tracing.
double tracing_overhead(const Samples& samples);

/// Per-epoch shadow replay: a twin network/model/engine replays the
/// writer log in order; every evaluate and commit answer must match the
/// twin's sequential answer for the same epoch to 1e-6. Returns the number
/// of answers checked; throws GateFailure on a mismatch.
std::size_t verify_shadow_parity(const AdmissionInputs& inputs,
                                 const TrafficResult& traffic);

/// Cold-rebuild parity after the churn script: a fresh model over the
/// mutated network and a cold engine replaying the live background must
/// give the live engine's background airtime and every query answer.
/// Returns the number of answers checked; throws GateFailure.
/// `perturb_mbps` is added to every live answer before the comparison;
/// the self-tests use it to show the gate trips.
std::size_t verify_cold_rebuild(Service& service, const AdmissionInputs& inputs,
                                double perturb_mbps = 0.0);

/// Objective parity of two answers (decision, feasibility, 1e-6 relative
/// available bandwidth); throws GateFailure naming `what`.
void check_answer(double got_mbps, bool got_feasible, bool got_admitted,
                  const core::AdmissionAnswer& want, const std::string& what);

// ---------------------------------------------------------------------------
// Scaled Fig. 4 study
// ---------------------------------------------------------------------------

struct StudyInputs {
  io::ScenarioFile scenario;
  std::vector<routing::FlowRequest> requests;
  std::uint64_t mac_seed = 0;
  std::uint64_t digest = 0;
};

/// The repository's standard scaled Fig. 4 instance (500 nodes, target
/// degree 12, 8 flows of 2 Mbps, topology seed 4); the run seed drives the
/// CSMA simulator's random stream.
StudyInputs make_study_inputs(std::uint64_t seed);

struct StudyState {
  std::unique_ptr<net::Network> network;
  std::unique_ptr<core::PhysicalInterferenceModel> model;
};

StudyState build_study(const std::string& blob_path);

struct StudyFlow {
  std::vector<net::LinkId> links;
  double demand_mbps = 0.0;
  double truth_mbps = 0.0;
  bool certified = false;
};

struct StudyResult {
  double study_s = 0.0;  ///< routing + truth + both CSMA runs + estimators
  double truth_s = 0.0;
  double truth_cpu_s = 0.0;  ///< process CPU time of the LP truth
  double sim_wall_s = 0.0;  ///< both CSMA runs
  double sim_air_s = 0.0;   ///< simulated seconds of both runs
  std::vector<StudyFlow> flows;
  mac::SimReport rts_off, rts_on;
  std::vector<double> rms_error;  ///< per estimator, mean over RTS modes
  std::size_t routed = 0, errors = 0;
  ProcessSample before, after;
};

StudyResult run_study(const StudyState& state, const StudyInputs& inputs);

/// Study gates: certified LP truth on every flow, and the configured-thread
/// SimReports bit-identical to a 1-thread rerun of each RTS mode.
void verify_study(const StudyState& state, const StudyInputs& inputs,
                  const StudyResult& result);

/// Bit-for-bit SimReport comparison; throws GateFailure naming `what`.
void check_same_report(const mac::SimReport& a, const mac::SimReport& b,
                       const std::string& what);

/// Run the harness self-tests; returns the process exit code.
int run_self_tests(const std::string& work_dir);

}  // namespace perfbench
