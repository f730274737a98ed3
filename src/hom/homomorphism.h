#ifndef WDSPARQL_HOM_HOMOMORPHISM_H_
#define WDSPARQL_HOM_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/scan.h"
#include "rdf/triple_set.h"

/// \file
/// Homomorphisms between triple sets.
///
/// A homomorphism from a t-graph S to a t-graph (or RDF graph) S' is a
/// function h on vars(S) with h(t) in S' for every triple t in S; IRIs map
/// to themselves. The paper's three uses are all supported through the
/// `fixed` pre-assignment:
///
/// * `(S, X) -> (S', X)`   : fix every x in X to itself;
/// * `(S, X) ->mu G`       : fix every x in X to mu(x);
/// * endomorphisms for cores: source == target, optionally with banned
///   image terms (to search for proper retractions).
///
/// Deciding existence is NP-complete (Chandra-Merlin); the solver is a
/// backtracking CSP search with most-constrained-variable ordering and
/// index-driven candidate generation, exact but exponential in the worst
/// case. The polynomial relaxation `->mu_k` lives in pebble.h.
///
/// The search is a pull-based resumable cursor, `HomCursor`: its
/// backtracking is an explicit stack of frames (chosen variable, its
/// candidate values, the resume position, the domains saved before the
/// candidate was tried), so `Next` returns at each solution and resumes
/// exactly there. A caller that stops after the first solution pays for
/// one solution, not for the whole solution set. `FindHomomorphism`,
/// `HasHomomorphism` and `EnumerateHomomorphisms` are thin drivers over
/// a cursor, as `JoinEnumerate`/`JoinExists` are over `JoinCursor`
/// (engine/join.h).

namespace wdsparql {

/// A (total) variable assignment produced by the solver.
using VarAssignment = std::unordered_map<TermId, TermId>;

/// How aggressively the solver prunes candidate domains.
enum class PropagationLevel {
  /// Pure chronological backtracking: a value is rejected only when a
  /// fully determined triple fails. (Ablation baseline.)
  kNone,
  /// One-step forward checking: after each assignment, revise the
  /// domains of variables sharing a triple with the assigned one, without
  /// cascading. (Ablation midpoint.)
  kForward,
  /// AC-3 at the root plus full re-propagation after every assignment
  /// (MAC). Default; see bench_a1_solver_ablation for the measured gap.
  kFull,
};

/// Optional knobs for the homomorphism search.
struct HomOptions {
  /// Terms of the target that must not appear in the image of any
  /// variable (used by the core computation to force proper retracts).
  std::unordered_set<TermId> banned_image;

  /// Upper bound on backtracking nodes; 0 means unlimited. When the
  /// budget is exhausted the search reports "no" conservatively and sets
  /// `*budget_exhausted` if provided.
  uint64_t max_nodes = 0;
  bool* budget_exhausted = nullptr;

  /// Domain-pruning strategy (see PropagationLevel).
  PropagationLevel propagation = PropagationLevel::kFull;

  /// If non-null, receives the number of search nodes explored (a
  /// cursor rewrites it after every `Next`).
  uint64_t* nodes_explored = nullptr;
};

/// Pull-based resumable homomorphism search: each `Next` call produces
/// one homomorphism from `source` to `target` extending `fixed` (the
/// emitted assignment includes `fixed`) and suspends with the whole
/// search stack intact.
///
/// The search is AC-3 at the root, then minimum-remaining-values
/// variable choice with re-propagation after every assignment (as
/// `HomOptions::propagation` selects), under the `HomOptions` node
/// budget. The order of solutions is deterministic.
///
/// The cursor copies `source`'s triples, `fixed` and `options`, so the
/// arguments may die after construction. It borrows `target`, which must
/// outlive the cursor; so must the pointers inside `options`.
class HomCursor {
 public:
  HomCursor(const TripleSet& source, const VarAssignment& fixed,
            const TripleSource& target, const HomOptions& options = {});
  ~HomCursor();

  /// Produces the next homomorphism. Returns false once the search is
  /// exhausted or the node budget ran out (and from then on).
  bool Next(VarAssignment* out);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Searches for a homomorphism h from `source` to `target` extending
/// `fixed` (a pre-assignment of some variables of `source` to terms of
/// the target). Returns the full assignment (including `fixed`) or
/// nullopt.
///
/// The solver generates candidates through the `TripleSource` scan
/// interface, so any backend (hash-indexed or dictionary-encoded
/// permutation store) can serve as the target.
std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSource& target,
                                              const HomOptions& options = {});

/// Convenience overload over a bare `TripleSet` (hash backend).
std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSet& target,
                                              const HomOptions& options = {});

/// True iff a homomorphism extending `fixed` exists.
bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSource& target, const HomOptions& options = {});
bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSet& target, const HomOptions& options = {});

/// Enumerates every homomorphism from `source` to `target` extending
/// `fixed`, invoking `callback` for each; enumeration stops early if the
/// callback returns false. Deterministic order.
void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSource& target,
                            const std::function<bool(const VarAssignment&)>& callback);
void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSet& target,
                            const std::function<bool(const VarAssignment&)>& callback);

/// Applies `assignment` to `t` (variables outside the assignment are kept).
Triple ApplyAssignment(const VarAssignment& assignment, const Triple& t);

/// The image t-graph {h(t) : t in S} of `source` under `assignment`.
TripleSet ApplyAssignment(const VarAssignment& assignment, const TripleSet& source);

/// Builds the identity pre-assignment {x -> x : x in X} used for
/// homomorphisms between generalised t-graphs with the same X.
VarAssignment IdentityOn(const std::vector<TermId>& X);

}  // namespace wdsparql

#endif  // WDSPARQL_HOM_HOMOMORPHISM_H_
