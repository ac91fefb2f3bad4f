#pragma once

#include "lp/simplex.hpp"

namespace mrwsn::lp {

/// Test-only oracle: a dense vector-of-rows two-phase tableau simplex with
/// the revised engine's column layout and pivot rules, the reference the
/// parity and fuzz suites hold lp::solve to. Always cold; throws
/// InvariantError past 400000 pivots. Uses lp::solve's 1e-9 tolerance.
Solution solve_reference(const Problem& problem);

}  // namespace mrwsn::lp
