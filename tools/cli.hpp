#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mrwsn::cli {

/// Upper bound of `available --starts`: each pricing round keeps one
/// outcome per start.
inline constexpr std::uint64_t kMaxStarts = 1024;

/// The CLI's one unsigned-number parser, for flag values and node ids:
/// decimal digits only (no sign, no blanks, no trailing characters) and at
/// most `max`. Throws PreconditionError naming `what` otherwise.
std::uint64_t parse_unsigned(const std::string& what, const std::string& text,
                             std::uint64_t max);

/// The CLI's one floating-point parser, for flag values and batch demands:
/// an unsigned decimal (digits with at most one '.', no sign, exponent,
/// blanks or trailing characters, so never nan or inf) no larger than
/// `max`. Throws PreconditionError naming `what` otherwise.
double parse_nonnegative_double(const std::string& what,
                                const std::string& text, double max);

/// Entry point of the `mrwsn` command-line tool, separated from main()
/// so the test-suite can drive it in-process.
///
/// Subcommands (args[0]):
///   generate  --nodes N [--width W] [--height H] [--seed S]
///             [--flows K] [--demand D]        -> scenario text on stdout
///   info      <scenario>                      -> topology summary
///   capacity  <scenario> <src> <dst>          -> path + Eq. 6 capacity
///   available <scenario> <src> <dst> [--metric hop|td|avg]
///             -> path, LP available bandwidth and all Section-4 estimates
///             (the scenario's `flow` lines are the background traffic)
///   admit     <scenario> [--metric hop|td|avg] [--policy lp|eq10|eq11|eq12|eq13|eq15]
///             -> sequential admission of the scenario's `request` lines
///   admit     <scenario> --batch <queries.csv> [--metric hop|td|avg]
///             -> batched admission replay through one core::AdmissionEngine;
///             input lines are `src,dst,demand[,commit]`, runs of non-commit
///             lines are evaluated in parallel, output is CSV on stdout:
///             id,src,dst,demand_mbps,decision,available_mbps,path
///   admit     <scenario> --serve [--metric hop|td|avg]
///             -> line-oriented REPL on stdin against the same engine:
///             query|admit <src> <dst> <demand>, background <src> <dst>
///             <demand>, stats, reset, quit
///   simulate  <scenario> [--seconds T] [--arf] [--seed S]
///             -> CSMA/CA run of the scenario's flows
///   help | --help | -h                        -> usage on `out`
///
/// Returns a process exit code (0 on success); diagnostics go to `err`.
/// No arguments or an unknown subcommand print usage on `err` and return
/// 2 before any file is read.
/// The first overload reads interactive input (--serve) from `in`; the
/// second is the production entry point and uses std::cin.
int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err);
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace mrwsn::cli
