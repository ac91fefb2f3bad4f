#pragma once

#include <cstddef>
#include <vector>

#include "graph/undirected.hpp"

namespace mrwsn::graph {

/// Test-only oracle: the pre-bitset vector-based Bron–Kerbosch, kept as
/// the reference the parity suite holds maximal_cliques() to. Same
/// contract as maximal_cliques.
std::vector<std::vector<Vertex>> maximal_cliques_reference(
    const UndirectedGraph& g, std::size_t limit = 1u << 22);

}  // namespace mrwsn::graph
