#include "oracles/reference_cliques.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mrwsn::graph {

namespace {

/// The original vector-based Bron–Kerbosch with a Tomita pivot.
class ReferenceCliqueEnumerator {
 public:
  ReferenceCliqueEnumerator(const UndirectedGraph& g, std::size_t limit)
      : g_(g), limit_(limit) {}

  std::vector<std::vector<Vertex>> run() {
    std::vector<Vertex> r;
    std::vector<Vertex> p(g_.size());
    for (Vertex v = 0; v < g_.size(); ++v) p[v] = v;
    expand(r, std::move(p), {});
    return std::move(out_);
  }

 private:
  void expand(std::vector<Vertex>& r, std::vector<Vertex> p, std::vector<Vertex> x) {
    if (p.empty() && x.empty()) {
      MRWSN_ASSERT(out_.size() < limit_, "maximal clique enumeration exceeded limit");
      out_.push_back(r);
      return;
    }
    // Tomita pivot: the vertex of P ∪ X with the most neighbours in P.
    Vertex pivot = 0;
    std::size_t best = 0;
    bool found = false;
    for (const auto& pool : {p, x}) {
      for (Vertex u : pool) {
        std::size_t count = 0;
        for (Vertex v : p)
          if (g_.has_edge(u, v)) ++count;
        if (!found || count > best) {
          pivot = u;
          best = count;
          found = true;
        }
      }
    }

    // Candidates: P minus the pivot's neighbourhood.
    std::vector<Vertex> candidates;
    for (Vertex v : p)
      if (!g_.has_edge(pivot, v)) candidates.push_back(v);

    for (Vertex v : candidates) {
      std::vector<Vertex> p_next, x_next;
      for (Vertex u : p)
        if (g_.has_edge(v, u)) p_next.push_back(u);
      for (Vertex u : x)
        if (g_.has_edge(v, u)) x_next.push_back(u);

      r.push_back(v);
      expand(r, std::move(p_next), std::move(x_next));
      r.pop_back();

      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  const UndirectedGraph& g_;
  std::size_t limit_;
  std::vector<std::vector<Vertex>> out_;
};

}  // namespace

std::vector<std::vector<Vertex>> maximal_cliques_reference(
    const UndirectedGraph& g, std::size_t limit) {
  if (g.size() == 0) return {};
  ReferenceCliqueEnumerator enumerator(g, limit);
  auto cliques = enumerator.run();
  for (auto& clique : cliques) std::sort(clique.begin(), clique.end());
  return cliques;
}

}  // namespace mrwsn::graph
