#pragma once

#include <cstddef>
#include <vector>

#include "util/bitset.hpp"

namespace mrwsn::graph {

using Vertex = std::size_t;

/// A simple undirected graph over vertices 0..n-1, with both a packed
/// bitset adjacency matrix (O(1) edge queries and word-wise neighbourhood
/// intersection, the substrate of Bron–Kerbosch) and adjacency lists.
/// Used for conflict/compatibility graphs over (link, rate) couples.
class UndirectedGraph {
 public:
  explicit UndirectedGraph(std::size_t num_vertices);

  std::size_t size() const { return adjacency_.size(); }

  /// Add the edge {u, v}; self-loops are rejected, duplicates ignored.
  void add_edge(Vertex u, Vertex v);

  bool has_edge(Vertex u, Vertex v) const;

  const std::vector<Vertex>& neighbors(Vertex v) const;

  /// Packed neighbourhood row of `v` (util::BitMatrix layout, row_words()
  /// words). Stable while no edge is added.
  const util::BitWord* neighbor_bits(Vertex v) const { return matrix_.row(v); }

  /// Words per neighbourhood row.
  std::size_t row_words() const { return matrix_.words(); }

  /// The packed adjacency matrix itself (square, symmetric, zero diagonal).
  const util::BitMatrix& adjacency_matrix() const { return matrix_; }

  std::size_t num_edges() const { return num_edges_; }

  /// The complement graph (edges exactly where this graph has none).
  /// Maximal independent sets of G are maximal cliques of complement(G).
  UndirectedGraph complement() const;

 private:
  util::BitMatrix matrix_;
  std::vector<std::vector<Vertex>> adjacency_;
  std::size_t num_edges_ = 0;
};

/// Enumerate all maximal cliques with Bron–Kerbosch (Tomita pivoting) over
/// packed bitset candidate/excluded sets: P ∩ N(v) is word-wise AND +
/// popcount. Stops after `limit` cliques (throws InvariantError if
/// exceeded, so an unexpectedly huge enumeration fails loudly instead of
/// hanging). Each clique is sorted ascending; clique order is unspecified.
std::vector<std::vector<Vertex>> maximal_cliques(const UndirectedGraph& g,
                                                 std::size_t limit = 1u << 22);

/// Same enumeration over a graph given directly as a packed adjacency
/// matrix (square, symmetric, zero diagonal; row r = neighbourhood of r).
/// Lets callers that already hold bitset rows — core::ConflictMatrix — run
/// Bron–Kerbosch without materializing an UndirectedGraph.
std::vector<std::vector<Vertex>> maximal_cliques(
    const util::BitMatrix& adjacency, std::size_t limit = 1u << 22);

/// Enumerate all maximal independent sets (maximal cliques of the
/// complement graph).
std::vector<std::vector<Vertex>> maximal_independent_sets(
    const UndirectedGraph& g, std::size_t limit = 1u << 22);

}  // namespace mrwsn::graph
