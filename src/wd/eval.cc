#include "wd/eval.h"

#include "hom/homomorphism.h"
#include "hom/pebble.h"
#include "ptree/tgraph.h"

namespace wdsparql {

Certificate HomCertificate(const TripleSource& graph) {
  return [&graph](const TripleSet& child, const VarAssignment& fixed) {
    return HasHomomorphism(child, fixed, graph);
  };
}

Certificate PebbleCertificate(const TripleSet& graph, int k, EvalStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  return [&graph, k, stats](const TripleSet& child, const VarAssignment& fixed) {
    PebbleGameStats game_stats;
    bool wins = PebbleGameWins(child, fixed, graph, k + 1, &game_stats);
    if (stats != nullptr) stats->pebble_maps_created += game_stats.maps_created;
    return wins;
  };
}

bool AnyChildExtends(const PatternTree& tree, const std::vector<NodeId>& children,
                     const VarAssignment& fixed, const Certificate& extends,
                     uint64_t* tests) {
  for (NodeId child : children) {
    if (tests != nullptr) ++*tests;
    if (extends(tree.pattern(child), fixed)) return true;
  }
  return false;
}

bool WdEvalWith(const PatternForest& forest, const TripleSource& graph,
                const Mapping& mu, EvalStats* stats, const Certificate& extends) {
  VarAssignment fixed = MappingToAssignment(mu);
  for (const PatternTree& tree : forest.trees) {
    if (stats != nullptr) ++stats->trees_probed;
    std::optional<Subtree> matched = FindMatchingSubtree(tree, mu, graph);
    if (!matched.has_value()) continue;
    if (stats != nullptr) ++stats->subtrees_matched;
    if (!AnyChildExtends(tree, SubtreeChildren(*matched), fixed, extends,
                         stats != nullptr ? &stats->extension_tests : nullptr)) {
      return true;  // mu ∈ JT_iKG.
    }
  }
  return false;
}

bool NaiveWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                 EvalStats* stats) {
  HashTripleSource scan(graph.triples());
  return NaiveWdEval(forest, scan, mu, stats);
}

bool NaiveWdEval(const PatternForest& forest, const TripleSource& graph,
                 const Mapping& mu, EvalStats* stats) {
  return WdEvalWith(forest, graph, mu, stats, HomCertificate(graph));
}

bool PebbleWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                  int k, EvalStats* stats) {
  HashTripleSource scan(graph.triples());
  return WdEvalWith(forest, scan, mu, stats, PebbleCertificate(graph.triples(), k, stats));
}

}  // namespace wdsparql
