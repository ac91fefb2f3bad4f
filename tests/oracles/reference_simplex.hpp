#pragma once

#include "lp/simplex.hpp"

namespace mrwsn::lp {

/// Test-only oracle: the pre-flattening vector-of-rows tableau simplex,
/// kept as the reference the parity suite holds the shipping engines to.
/// Same algorithm and pivot rules as solve_dense(); only the tableau
/// storage differs. Throws InvariantError past 400000 pivots.
Solution solve_reference(const Problem& problem, double eps = 1e-9);

}  // namespace mrwsn::lp
