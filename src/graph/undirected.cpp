#include "graph/undirected.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mrwsn::graph {

using util::BitWord;

UndirectedGraph::UndirectedGraph(std::size_t num_vertices)
    : matrix_(num_vertices, num_vertices), adjacency_(num_vertices) {}

void UndirectedGraph::add_edge(Vertex u, Vertex v) {
  MRWSN_REQUIRE(u < size() && v < size(), "vertex out of range");
  MRWSN_REQUIRE(u != v, "self-loops are not allowed");
  if (matrix_.test(u, v)) return;
  matrix_.set(u, v);
  matrix_.set(v, u);
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
}

bool UndirectedGraph::has_edge(Vertex u, Vertex v) const {
  MRWSN_REQUIRE(u < size() && v < size(), "vertex out of range");
  return matrix_.test(u, v);
}

const std::vector<Vertex>& UndirectedGraph::neighbors(Vertex v) const {
  MRWSN_REQUIRE(v < size(), "vertex out of range");
  return adjacency_[v];
}

UndirectedGraph UndirectedGraph::complement() const {
  UndirectedGraph g(size());
  for (Vertex u = 0; u < size(); ++u)
    for (Vertex v = u + 1; v < size(); ++v)
      if (!matrix_.test(u, v)) g.add_edge(u, v);
  return g;
}

namespace {

/// Bron–Kerbosch with Tomita pivoting where P and X are packed bitsets.
/// Each recursion level uses three preallocated rows from a contiguous
/// arena (depth is bounded by the vertex count), so the whole enumeration
/// performs no per-node heap allocation: the inner work is P ∩ N(v) as
/// word-wise AND and pivot scoring as AND + popcount.
class BitsetCliqueEnumerator {
 public:
  BitsetCliqueEnumerator(const util::BitMatrix& adj, std::size_t limit)
      : adj_(adj), limit_(limit), words_(adj.words()),
        arena_((adj.rows() + 1) * 3 * words_, 0) {}

  std::vector<std::vector<Vertex>> run() {
    const std::size_t n = adj_.rows();
    BitWord* p = frame_row(0, 0);
    BitWord* x = frame_row(0, 1);
    for (Vertex v = 0; v < n; ++v) util::bits_set(p, v);
    r_.reserve(n);
    expand(p, x, 0);
    return std::move(out_);
  }

 private:
  BitWord* frame_row(std::size_t depth, int which) {
    return arena_.data() + (depth * 3 + static_cast<std::size_t>(which)) * words_;
  }

  void expand(BitWord* p, BitWord* x, std::size_t depth) {
    if (util::bits_none(p, words_) && util::bits_none(x, words_)) {
      MRWSN_ASSERT(out_.size() < limit_, "maximal clique enumeration exceeded limit");
      out_.push_back(r_);
      return;
    }

    // Tomita pivot: the vertex of P ∪ X with the most neighbours in P.
    Vertex pivot = 0;
    std::size_t best = 0;
    bool found = false;
    for (const BitWord* pool : {p, x}) {
      util::bits_for_each(pool, words_, [&](std::size_t u) {
        const std::size_t count = util::bits_count_and(p, adj_.row(u), words_);
        if (!found || count > best) {
          pivot = u;
          best = count;
          found = true;
        }
      });
    }

    // Candidates: P minus the pivot's neighbourhood, fixed before the loop
    // (each candidate stays in P until its own turn, so the snapshot is
    // exactly the set the classic formulation walks).
    BitWord* cand = frame_row(depth, 2);
    util::bits_and_not(cand, p, adj_.row(pivot), words_);
    BitWord* p_next = frame_row(depth + 1, 0);
    BitWord* x_next = frame_row(depth + 1, 1);
    util::bits_for_each(cand, words_, [&](std::size_t v) {
      const BitWord* nv = adj_.row(v);
      util::bits_and(p_next, p, nv, words_);
      util::bits_and(x_next, x, nv, words_);
      r_.push_back(v);
      expand(p_next, x_next, depth + 1);
      r_.pop_back();

      util::bits_reset(p, v);
      util::bits_set(x, v);
    });
  }

  const util::BitMatrix& adj_;
  std::size_t limit_;
  std::size_t words_;
  std::vector<BitWord> arena_;  // two P/X rows per recursion depth
  std::vector<Vertex> r_;
  std::vector<std::vector<Vertex>> out_;
};

}  // namespace

std::vector<std::vector<Vertex>> maximal_cliques(const UndirectedGraph& g,
                                                 std::size_t limit) {
  return maximal_cliques(g.adjacency_matrix(), limit);
}

std::vector<std::vector<Vertex>> maximal_cliques(const util::BitMatrix& adjacency,
                                                 std::size_t limit) {
  if (adjacency.rows() == 0) return {};
  MRWSN_REQUIRE(adjacency.rows() == adjacency.cols(),
                "adjacency matrix must be square");
  BitsetCliqueEnumerator enumerator(adjacency, limit);
  auto cliques = enumerator.run();
  for (auto& clique : cliques) std::sort(clique.begin(), clique.end());
  return cliques;
}

std::vector<std::vector<Vertex>> maximal_independent_sets(const UndirectedGraph& g,
                                                          std::size_t limit) {
  return maximal_cliques(g.complement(), limit);
}

}  // namespace mrwsn::graph
