#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace mrwsn::cli {
namespace {

/// A scenario file on disk, deleted at scope exit.
class TempScenario {
 public:
  // The file name carries the test's name: ctest runs each test in its
  // own process, so a bare counter would collide across concurrent tests.
  explicit TempScenario(const std::string& contents) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::string(::testing::TempDir()) + "cli_test_" +
            (test ? std::string(test->test_suite_name()) + "." + test->name()
                  : std::string("scenario")) +
            "_" + std::to_string(counter_++) + ".txt";
    std::ofstream(path_) << contents;
  }
  ~TempScenario() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

constexpr const char* kChain = R"(node 0 0 0
node 1 70 0
node 2 140 0
node 3 210 0
flow 3.0 0 1
request 2 3 2.0
request 3 0 2.0
)";

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

CliResult run_with_input(const std::vector<std::string>& args,
                         const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out, err;
  const int code = run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const CliResult r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliResult r = run({"frobnicate", "x"});
  EXPECT_NE(r.code, 0);
}

TEST(Cli, HelpPrintsUsageAndSucceeds) {
  for (const char* flag : {"help", "--help", "-h"}) {
    const CliResult r = run({flag});
    EXPECT_EQ(r.code, 0) << flag;
    EXPECT_NE(r.out.find("usage:"), std::string::npos) << flag;
    EXPECT_EQ(r.err, "") << flag;
  }
}

TEST(Cli, UnknownCommandPrintsUsageBeforeReadingAnyFile) {
  // Neither a missing scenario argument nor an unreadable file may mask
  // the real problem: the command itself is unknown.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"frobnicate"},
        std::vector<std::string>{"frobnicate", "/nonexistent/file.txt"}}) {
    const CliResult r = run(args);
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
    EXPECT_EQ(r.err.find("needs a scenario file"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("cannot open"), std::string::npos) << r.err;
  }
}

TEST(Cli, GenerateProducesParsableScenario) {
  const CliResult r = run({"generate", "--nodes", "12", "--seed", "3",
                           "--flows", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("node 0 "), std::string::npos);
  EXPECT_NE(r.out.find("request "), std::string::npos);
  // Feed it back through `info`.
  TempScenario file(r.out);
  const CliResult info = run({"info", file.path()});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("nodes: 12"), std::string::npos);
}

TEST(Cli, InfoSummarizesTopology) {
  TempScenario file(kChain);
  const CliResult r = run({"info", file.path()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("nodes: 4"), std::string::npos);
  EXPECT_NE(r.out.find("requests: 2"), std::string::npos);
}

TEST(Cli, CapacityReportsPathAndValue) {
  TempScenario file(kChain);
  const CliResult r = run({"capacity", file.path(), "0", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("0->1->2->3"), std::string::npos);
  EXPECT_NE(r.out.find("12"), std::string::npos);  // 36/3
}

TEST(Cli, CapacityUnreachableFails) {
  TempScenario file("node 0 0 0\nnode 1 5000 0\n");
  const CliResult r = run({"capacity", file.path(), "0", "1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no path"), std::string::npos);
}

TEST(Cli, AvailableListsEveryEstimator) {
  TempScenario file(kChain);
  const CliResult r = run({"available", file.path(), "2", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"Eq. 6", "Eq. 10", "Eq. 11", "Eq. 12", "Eq. 13", "Eq. 15"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
}

TEST(Cli, AvailableTakesStartsAndRejectsRemovedPricingFlags) {
  // There is no pricing mode or smoothing switch: --starts 0 is the
  // exact-only loop and smoothing always runs. Both flags fail like any
  // flag the command does not take.
  TempScenario file(kChain);
  for (const char* removed : {"pricing", "stabilize"}) {
    const std::string flag = std::string("--") + removed;
    const CliResult r =
        run({"available", file.path(), "2", "3", flag, "off"});
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_EQ(r.err, "error: unknown option " + flag + " for available\n");
  }

  // Without --starts the CLI runs the library's pricing default. On this
  // path of a generated 40-node scenario 8 starts cost one pricing round
  // more than 12, so a default other than 12 changes the report.
  const CliResult generated =
      run({"generate", "--nodes", "40", "--seed", "1", "--flows", "6"});
  ASSERT_EQ(generated.code, 0) << generated.err;
  TempScenario larger(generated.out);
  const std::vector<std::string> base = {"available", larger.path(), "2",
                                         "20"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra);
    return run(args);
  };
  const CliResult generated_default = with({});
  ASSERT_EQ(generated_default.code, 0) << generated_default.err;
  EXPECT_EQ(generated_default.out, with({"--starts", "12"}).out);
  EXPECT_NE(generated_default.out, with({"--starts", "8"}).out);
  // --starts 0 prints, byte for byte, what the exact-only pricing mode
  // printed before the mode was folded into the start count.
  const CliResult exact = with({"--starts", "0"});
  ASSERT_EQ(exact.code, 0) << exact.err;
  EXPECT_EQ(exact.out, R"(path (average-e2eD): 2->27->8->9->32->35->37->20
solver: column generation, 12 columns
pricing: 6 rounds (pool 0, heuristic 0 columns, exact 6 calls), certified optimal
| method                      | Mbps  |
|-----------------------------|-------|
| Eq. 6 LP (truth)            | 6     |
| Eq. 10 bottleneck node      | 18    |
| Eq. 11 clique constraint    | 4.696 |
| Eq. 12 min of both          | 4.696 |
| Eq. 13 conservative clique  | 4.696 |
| Eq. 15 expected clique time | 4.696 |
)");
}

TEST(Cli, UsageErrorsPrintOnlyTheirMessage) {
  // A usage error names what is wrong with the command line, not the C++
  // expression or the source file that caught it.
  TempScenario file(kChain);
  const struct {
    std::vector<std::string> args;
    std::string message;
  } cases[] = {
      {{"admit"}, "admit needs a scenario file"},
      {{"capacity", file.path(), "2"}, "capacity needs <src> <dst>"},
      {{"info", file.path(), "extra"}, "expected --option, got extra"},
      {{"fig4", "--rts", "x"}, "--rts must be on|off|both"},
      {{"available", file.path(), "2", "3", "--starts"},
       "missing value for --starts"},
      {{"available", file.path(), "2", "3", "--method", "enum"},
       "unknown option --method for available"},
  };
  for (const auto& c : cases) {
    const CliResult r = run(c.args);
    EXPECT_EQ(r.code, 1) << c.message;
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_EQ(r.err, "error: " + c.message + "\n");
  }
}

TEST(Cli, ParseUnsignedIsStrictAndBounded) {
  EXPECT_EQ(parse_unsigned("--n", "0", 256), 0u);
  EXPECT_EQ(parse_unsigned("--n", "256", 256), 256u);
  EXPECT_EQ(parse_unsigned("--n", "007", 256), 7u);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_unsigned("--n", "18446744073709551615", kMax), kMax);
  for (const char* bad : {"-1", "12abc", "", "+1", " 1", "1 ", "0x10", "1.5"})
    EXPECT_THROW(parse_unsigned("--n", bad, 256), PreconditionError) << bad;
  EXPECT_THROW(parse_unsigned("--n", "257", 256), PreconditionError);
  EXPECT_THROW(parse_unsigned("--n", "18446744073709551616", kMax),
               PreconditionError);
  try {
    parse_unsigned("--readers", "-1", 256);
    ADD_FAILURE() << "-1 parsed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--readers"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'-1'"), std::string::npos);
  }
}

TEST(Cli, ParseNonnegativeDoubleIsStrictAndBounded) {
  constexpr double kHuge = std::numeric_limits<double>::max();
  EXPECT_EQ(parse_nonnegative_double("--d", "2.5", kHuge), 2.5);
  EXPECT_EQ(parse_nonnegative_double("--d", "0", kHuge), 0.0);
  EXPECT_EQ(parse_nonnegative_double("--d", "007", kHuge), 7.0);
  EXPECT_EQ(parse_nonnegative_double("--d", ".5", kHuge), 0.5);
  EXPECT_EQ(parse_nonnegative_double("--d", "3.", kHuge), 3.0);
  EXPECT_EQ(parse_nonnegative_double("--d", "1", 1.0), 1.0);
  for (const char* bad : {"", ".", "2.5xyz", "nan", "inf", "-3", "+3", "1e3",
                          " 2", "2 ", "1.2.3", "0x10", "1,5"})
    EXPECT_THROW(parse_nonnegative_double("--d", bad, kHuge),
                 PreconditionError)
        << bad;
  EXPECT_THROW(parse_nonnegative_double("--d", "1.01", 1.0), PreconditionError);
  // More digits than a double can hold overflows instead of reading as inf.
  EXPECT_THROW(parse_nonnegative_double("--d", std::string(400, '9'), kHuge),
               PreconditionError);
  try {
    parse_nonnegative_double("--demand", "-3", kHuge);
    ADD_FAILURE() << "-3 parsed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--demand"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'-3'"), std::string::npos);
  }
}

TEST(Cli, RejectsMalformedDecimalFlags) {
  const auto expect_rejected = [](const CliResult& r, const std::string& flag) {
    EXPECT_EQ(r.code, 1);
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_NE(r.err.find("error: " + flag), std::string::npos) << r.err;
  };
  for (const char* bad : {"2.5xyz", "nan", "-3", "inf"})
    expect_rejected(
        run({"generate", "--nodes", "4", "--flows", "1", "--demand", bad}),
        "--demand");
  expect_rejected(run({"generate", "--nodes", "4", "--width", "-400"}),
                  "--width");
  const CliResult good =
      run({"generate", "--nodes", "4", "--flows", "1", "--demand", "2.5"});
  ASSERT_EQ(good.code, 0) << good.err;
  EXPECT_NE(good.out.find(" 2.5\n"), std::string::npos) << good.out;

  TempScenario file(kChain);
  expect_rejected(run({"simulate", file.path(), "--seconds", "nan"}),
                  "--seconds");
  expect_rejected(run({"admit", file.path(), "--bench-replay",
                       "--commit-ratio", "1.5"}),
                  "--commit-ratio");
  TempScenario queries("2,3,-3\n");
  expect_rejected(run({"admit", file.path(), "--batch", queries.path()}),
                  "batch demand");
}

TEST(Cli, RejectsOptionsACommandDoesNotTake) {
  TempScenario file(kChain);
  const auto expect_unknown = [](const CliResult& r, const std::string& text) {
    EXPECT_EQ(r.code, 1);
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_NE(r.err.find("error: unknown option " + text), std::string::npos)
        << r.err;
  };
  expect_unknown(
      run({"generate", "--nodes", "4", "--flows", "1", "--bogus", "7"}),
      "--bogus for generate");
  expect_unknown(run({"available", file.path(), "2", "3", "--bogus", "7"}),
                 "--bogus for available");
  // The dense engine is no longer selectable, and saying so is an error.
  expect_unknown(
      run({"available", file.path(), "2", "3", "--engine", "dense"}),
      "--engine for available");
  expect_unknown(run({"info", file.path(), "--metric", "hop"}),
                 "--metric for info");
  expect_unknown(run({"admit", file.path(), "--readers", "2"}),
                 "--readers for admit");
  expect_unknown(run({"simulate", file.path(), "--policy", "lp"}),
                 "--policy for simulate");
}

TEST(Cli, RejectsMalformedAndOverBoundCounts) {
  TempScenario file(kChain);
  const auto expect_rejected = [](const CliResult& r, const std::string& flag) {
    EXPECT_EQ(r.code, 1);
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_NE(r.err.find("error: " + flag), std::string::npos) << r.err;
  };
  expect_rejected(
      run_with_input({"admit", file.path(), "--serve", "--readers", "257"},
                     "quit\n"),
      "--readers");
  expect_rejected(run({"available", file.path(), "2", "3", "--starts",
                       std::to_string(kMaxStarts + 1)}),
                  "--starts");
  expect_rejected(
      run({"available", file.path(), "2", "3", "--starts", "12abc"}),
      "--starts");
  expect_rejected(run({"generate", "--nodes", "12abc"}), "--nodes");
  expect_rejected(run({"available", file.path(), "2abc", "3"}), "node id");
}

TEST(Cli, CapacityAndAvailableCheckNodeIds) {
  // Node ids are checked against the scenario before any routing: the
  // message names the argument and the bound, never the router's
  // internals.
  TempScenario file(kChain);
  for (const char* command : {"capacity", "available"}) {
    SCOPED_TRACE(command);
    const std::string name(command);
    const struct {
      const char* src;
      const char* dst;
      std::string err;
    } cases[] = {
        {"0", "999", name + ": <dst> must be a node id below 4, got 999"},
        {"4", "1", name + ": <src> must be a node id below 4, got 4"},
        {"3", "3", name + ": <src> and <dst> must differ, got 3 for both"},
    };
    for (const auto& c : cases) {
      const CliResult r = run({command, file.path(), c.src, c.dst});
      EXPECT_EQ(r.code, 1);
      EXPECT_TRUE(r.out.empty()) << r.out;
      EXPECT_EQ(r.err, "error: " + c.err + "\n");
    }
  }
}

TEST(Cli, AdmitProcessesRequestsWithPreloadedBackground) {
  TempScenario file(kChain);
  const CliResult r = run({"admit", file.path(), "--policy", "eq13"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2->3"), std::string::npos);
  EXPECT_NE(r.out.find("admitted"), std::string::npos);
  EXPECT_NE(r.out.find("over-admissions"), std::string::npos);
}

TEST(Cli, AdmitRejectsBadPolicy) {
  TempScenario file(kChain);
  const CliResult r = run({"admit", file.path(), "--policy", "bogus"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown policy"), std::string::npos);
}

TEST(Cli, MobilityReplaysTraceWithPerEpochVerification) {
  TempScenario scenario(kChain);
  TempScenario trace(
      "# waypoints for the kChain topology\n"
      "move 3 215 5\n"
      "power 2 0.15\n"
      "join 105 0\n"
      "move 3 210 0\n");
  const CliResult r = run({"mobility", scenario.path(), "--trace",
                           trace.path(), "--verify", "on"});
  ASSERT_EQ(r.code, 0) << r.err;
  // One epoch per event, each shadow-verified against a cold rebuild.
  EXPECT_NE(r.out.find("verified 4/4 epochs"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("churn: 4 repairs"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("MISMATCH"), std::string::npos) << r.out;
  // The scenario's requests are re-admitted on the final topology.
  EXPECT_NE(r.out.find("2->3"), std::string::npos) << r.out;
}

TEST(Cli, MobilityRequiresTraceFlag) {
  TempScenario scenario(kChain);
  const CliResult r = run({"mobility", scenario.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--trace"), std::string::npos) << r.err;
}

TEST(Cli, MobilityRejectsShadowedScenario) {
  TempScenario scenario(std::string(kChain) + "shadowing 4 7\n");
  TempScenario trace("move 3 210 5\n");
  const CliResult r =
      run({"mobility", scenario.path(), "--trace", trace.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("shadowed"), std::string::npos) << r.err;
}

TEST(Cli, MobilityRejectsDanglingEventReferences) {
  TempScenario scenario(kChain);
  TempScenario trace("leave 9\n");
  const CliResult r =
      run({"mobility", scenario.path(), "--trace", trace.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mobility event 1"), std::string::npos) << r.err;
}

TEST(Cli, MobilityRejectsNonFiniteAndUnindexableEvents) {
  TempScenario scenario(kChain);
  // Non-finite values fail at parse time, naming the trace line.
  for (const char* bad : {"move 1 nan 5\n", "power 1 inf\n"}) {
    TempScenario trace(std::string("# bad event\n") + bad);
    const CliResult r =
        run({"mobility", scenario.path(), "--trace", trace.path()});
    EXPECT_EQ(r.code, 1) << bad;
    EXPECT_NE(r.err.find("mobility line 2"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
  // A finite position beyond the spatial grid's key range fails in the
  // replay, before the node moves.
  TempScenario trace("move 1 1e300 5\n");
  const CliResult r =
      run({"mobility", scenario.path(), "--trace", trace.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("spatial grid"), std::string::npos) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(Cli, BatchEmitsOneCsvRowPerQueryInOrder) {
  TempScenario scenario(kChain);
  TempScenario queries(
      "# probe, commit, probe again, unroutable\n"
      "2,3,2.0\n"
      "2,3,2.0,commit\n"
      "2,3,2.0\n"
      "0,3,1.0\n");
  const CliResult r = run({"admit", scenario.path(), "--batch", queries.path()});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "id,src,dst,demand_mbps,decision,available_mbps,path");
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_EQ(lines[i].rfind(std::to_string(i - 1) + ",2", 0) == 0 ||
                  lines[i].rfind(std::to_string(i - 1) + ",0", 0) == 0,
              true)
        << lines[i];
  EXPECT_NE(lines[2].find(",admit,"), std::string::npos);
  EXPECT_NE(r.err.find("dual re-solves"), std::string::npos);
}

TEST(Cli, BatchAnswersMatchColdAvailableQueries) {
  // The committed flow must lower the follow-up probe exactly like a
  // fresh sequential `admit` of the same state: 2->3 alone on this chain
  // yields 12 with the background flow, and once 2 Mbps is committed on
  // it, the identical probe sees strictly less than before.
  TempScenario scenario(kChain);
  TempScenario queries("2,3,2.0\n2,3,2.0,commit\n2,3,2.0\n");
  const CliResult r = run({"admit", scenario.path(), "--batch", queries.path()});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 4u);
  const auto available_of = [](const std::string& line) {
    const auto fields = [&] {
      std::vector<std::string> parts;
      std::istringstream stream(line);
      std::string part;
      while (std::getline(stream, part, ',')) parts.push_back(part);
      return parts;
    }();
    return std::stod(fields.at(5));
  };
  const double before = available_of(lines[1]);
  const double at_commit = available_of(lines[2]);
  const double after = available_of(lines[3]);
  EXPECT_DOUBLE_EQ(before, at_commit);  // same background snapshot
  EXPECT_LT(after, before - 1.0);       // commit consumed real capacity
  EXPECT_GT(after, 0.0);
}

TEST(Cli, BatchRejectsMalformedLines) {
  TempScenario scenario(kChain);
  TempScenario queries("2,3\n");
  const CliResult r = run({"admit", scenario.path(), "--batch", queries.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("src,dst,demand"), std::string::npos);
}

/// Pulls `key=<token>` out of a serve response line.
std::string field_of(const std::string& line, const std::string& key) {
  const auto start = line.find(" " + key + "=");
  if (start == std::string::npos) return {};
  const auto value = start + key.size() + 2;
  return line.substr(value, line.find(' ', value) - value);
}

TEST(Cli, ServeAnswersQueriesAndTracksState) {
  TempScenario scenario(kChain);
  const CliResult r = run_with_input(
      {"admit", scenario.path(), "--serve"},
      "query 2 3 2.0\nadmit 2 3 2.0\nstats\nreset\nbogus\nquit\n");
  ASSERT_EQ(r.code, 0) << r.err;
  const auto lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("ok decision=admit available=", 0), 0u);
  // query then admit of the same state: identical availability, but the
  // commit publishes the next epoch while the evaluate-only query did not.
  EXPECT_EQ(field_of(lines[0], "available"), field_of(lines[1], "available"));
  EXPECT_EQ(std::stoull(field_of(lines[1], "epoch")),
            std::stoull(field_of(lines[0], "epoch")) + 1);
  // Engine-lifetime counter: preload + admit.
  EXPECT_NE(lines[2].find("commits=2"), std::string::npos);
  EXPECT_EQ(lines[3], "ok reset");
  EXPECT_EQ(lines[4].rfind("err unknown command", 0), 0u);
}

TEST(Cli, ServeSessionsOnOneScenarioStartAlike) {
  // Each session owns its engine: a second session on the same scenario in
  // the same process starts from the scenario's preloaded flows, not from
  // what the first one committed.
  TempScenario scenario(kChain);
  std::vector<std::string> stats;
  std::vector<std::string> available;
  for (int session = 0; session < 2; ++session) {
    const CliResult r = run_with_input({"admit", scenario.path(), "--serve"},
                                       "admit 2 3 2.0\nstats\nquit\n");
    ASSERT_EQ(r.code, 0) << r.err;
    const auto lines = lines_of(r.out);
    ASSERT_EQ(lines.size(), 2u);
    available.push_back(field_of(lines[0], "available"));
    stats.push_back(lines[1]);
  }
  for (const std::string& line : stats)
    EXPECT_NE(line.find(" commits=2 "), std::string::npos) << line;
  EXPECT_EQ(available[0], available[1]);
  EXPECT_FALSE(available[0].empty());
}

TEST(Cli, ServeRejectsNegativeAndMalformedNumbers) {
  TempScenario scenario("node 0 0 0\nnode 1 60 0\nnode 2 120 0\n"
                        "node 3 180 0\nflow 3.0 0 1\n");
  const CliResult r = run_with_input(
      {"admit", scenario.path(), "--serve"},
      "admit 2 3 -5\nquery 2 3 -3\nbackground 2 3 -1\nquery -1 3 1\n"
      "admit 2 3 nan\nquery 2 x 1\nstats\nquit\n");
  ASSERT_EQ(r.code, 0) << r.err;
  const auto lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[i].rfind("err demand needs an unsigned decimal", 0), 0u)
        << lines[i];
  }
  EXPECT_EQ(lines[3].rfind("err node id", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4].rfind("err demand", 0), 0u) << lines[4];
  EXPECT_EQ(lines[5].rfind("err node id", 0), 0u) << lines[5];
  // Nothing was committed beyond the preloaded flow.
  EXPECT_NE(lines[6].find("commits=1 "), std::string::npos) << lines[6];
}

TEST(Cli, ServeReadersAnswerAsyncQueriesWithIds) {
  TempScenario scenario(
      "node 0 0 0\nnode 1 70 0\nnode 2 140 0\nnode 3 210 0\nnode 4 280 0\n");
  const CliResult r = run_with_input(
      {"admit", scenario.path(), "--serve", "--readers", "2"},
      "query 0 2 1.0\nquery 1 3 1.0\nadmit 2 4 0.5\nstats\nreset\nquit\n");
  ASSERT_EQ(r.code, 0) << r.err;
  const auto lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[4], "ok reset");
  // Async reads respond in completion order tagged with their submit id;
  // the sync commit may interleave with them in any order, but `stats`
  // drains the queue first, so it always answers last.
  std::vector<std::string> ids;
  std::size_t sync_commits = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (lines[i].rfind("ok id=", 0) == 0) {
      EXPECT_NE(lines[i].find(" decision="), std::string::npos) << lines[i];
      ids.push_back(field_of(lines[i], "id"));
    } else {
      EXPECT_EQ(lines[i].rfind("ok decision=admit", 0), 0u) << lines[i];
      ++sync_commits;
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(sync_commits, 1u);
  EXPECT_NE(lines[3].find("snapshot_queries="), std::string::npos);
}

TEST(Cli, ScenarioPackRoundTripsAndAdmitLoadsBlob) {
  TempScenario text(kChain);
  const std::string blob = text.path() + ".mrwb";
  const CliResult packed = run({"scenario", "pack", text.path(), blob});
  ASSERT_EQ(packed.code, 0) << packed.err;
  EXPECT_NE(packed.out.find("hash="), std::string::npos);

  // Every scenario-taking command sniffs the format, so the packed blob
  // drops in wherever the text file did.
  const CliResult r = run({"admit", blob, "--policy", "eq13"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2->3"), std::string::npos);
  EXPECT_NE(r.out.find("admitted"), std::string::npos);
  std::remove(blob.c_str());
}

TEST(Cli, SimulateReportsFlows) {
  TempScenario file(kChain);
  const CliResult r =
      run({"simulate", file.path(), "--seconds", "0.5", "--seed", "4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("delivered"), std::string::npos);
  EXPECT_NE(r.out.find("mean node idle ratio"), std::string::npos);
}

TEST(Cli, SimulateWithoutFlowsFails) {
  TempScenario file("node 0 0 0\nnode 1 70 0\n");
  const CliResult r = run({"simulate", file.path()});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, Fig4RunsScaledEstimatorComparison) {
  // Deliberately tiny: the point is the wiring (topology draw, parallel
  // CSMA measurement, estimator tables), not the 500-node default.
  const CliResult r = run({"fig4", "--nodes", "40", "--flows", "2",
                           "--seconds", "0.1", "--threads", "2", "--rts",
                           "on", "--seed", "6"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("RTS/CTS on"), std::string::npos);
  EXPECT_EQ(r.out.find("RTS/CTS off"), std::string::npos);
  EXPECT_NE(r.out.find("Eq.13 conservative"), std::string::npos);
  EXPECT_NE(r.out.find("LP truth"), std::string::npos);
}

TEST(Cli, Fig4ReportsTheSimulatorsWorkerCount) {
  // This draw's auto grid is a single region, so the simulator runs one
  // worker whatever --threads asks for, and the report says so.
  const CliResult r = run({"fig4", "--nodes", "40", "--flows", "2",
                           "--seconds", "0.05", "--threads", "8", "--rts",
                           "off", "--seed", "6"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find(" s wall (1 thread);"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("8 threads"), std::string::npos);
}

TEST(Cli, Fig4RejectsBadRtsMode) {
  const CliResult r = run({"fig4", "--nodes", "40", "--rts", "sometimes"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--rts"), std::string::npos);
}

TEST(Cli, MissingScenarioFileIsAnError) {
  const CliResult r = run({"info", "/nonexistent/file.txt"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace mrwsn::cli
