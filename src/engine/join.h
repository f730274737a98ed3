#ifndef WDSPARQL_ENGINE_JOIN_H_
#define WDSPARQL_ENGINE_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/read_view.h"
#include "hom/homomorphism.h"

/// \file
/// Merge/leapfrog-style multiway join for conjunctive patterns.
///
/// A conjunctive (AND-only) subpattern is a set of triple patterns; its
/// solutions over a ground store are exactly the homomorphisms of the
/// pattern set. Where the generic CSP solver of hom/homomorphism.h
/// backtracks over per-variable domains with AC-3 propagation, this join
/// binds variables one at a time in a fixed global order — the
/// variable-at-a-time scheme of generic join and leapfrog triejoin.
///
/// A pattern *closes* at the level binding `v` when every one of its
/// variables other than `v` is bound above it. At each level:
///
///  * one pattern that closes there *drives* the level: the one whose
///    range under the current bindings is smallest by
///    `MergedScan::size_bound()` (base plus delta range length, O(1);
///    ties to the first). Its range is a prefix range with `v` next in
///    the permutation, so its values arrive sorted. Ranking reads only
///    the view and the bindings, so every cursor over the same inputs
///    walks the same values;
///  * every other pattern containing `v`, closing or still open, filters
///    those values with one existence probe per value — `v` bound, its
///    unbound variables wildcards, a binary search. So a popular value
///    bound above (a hub with thousands of in-edges) costs one probe per
///    candidate, not a walk of its whole range;
///  * at a level where nothing closes (the root of a constant-free
///    pattern), every pattern containing `v` contributes its projected
///    range, and the ranges are intersected smallest first.
///
/// Every pattern closes at exactly one level and is enforced there, so
/// the solution set does not depend on the variable order.
///
/// The join is exposed two ways: `JoinCursor`, a pull-based resumable
/// iterator (the engine's suspendable enumeration and the parallel
/// execution mode both build on it), and the callback-shaped
/// `JoinEnumerate`/`JoinExists`, which are thin drivers over a cursor.

namespace wdsparql {

/// Counters for one join run. Plain (non-atomic) integers owned by the
/// calling thread — cursors accumulate these locally and merge at close,
/// so no shared state sits on the enumeration hot path.
struct JoinStats {
  uint64_t ranges_scanned = 0;  ///< Permutation ranges materialised.
  uint64_t values_probed = 0;   ///< Candidate values tested in merges or probes.
  uint64_t emitted = 0;         ///< Solutions produced.
  uint64_t base_scanned = 0;    ///< Triples read from base runs.
  uint64_t delta_scanned = 0;   ///< Triples read from delta runs.
  uint64_t dict_encodes = 0;    ///< Term -> DataId dictionary probes.
  uint64_t dict_decodes = 0;    ///< DataId -> Term resolutions.
};

/// Pull-based resumable join: each `Next` call produces one assignment
/// and suspends with the whole descent state (one {values, position}
/// frame per bound variable) intact, so a caller that stops after the
/// first row pays for one row — not for the subtree's whole match set.
///
/// The cursor copies `fixed` and may share ownership of the view, so it
/// can outlive the `Execute` call that created it; `stats` (optional)
/// must outlive the cursor and is written from the pulling thread only.
///
/// Determinism: over a fixed view, every cursor for the same (patterns,
/// fixed) walks the identical variable order and value lists — the
/// parallel execution mode relies on this to stride one candidate space
/// across workers without coordination beyond a shared counter (see
/// `SetRootClaim`).
class JoinCursor {
 public:
  /// Shares ownership of `view` (the safe form for long-lived cursors).
  ///
  /// `var_order` (optional, both constructors) injects a planner-chosen
  /// variable binding order: the `TermId`s of the pattern's unbound
  /// variables, first-bound first. Any order over the same variable set
  /// yields the same solution set (a conjunctive pattern's homomorphisms
  /// do not depend on enumeration order), just different work. The
  /// pointer is only read during construction. An order that does not
  /// cover the unbound variables exactly is ignored in favour of the
  /// built-in heuristic, so a stale plan can never produce wrong
  /// answers. Passing null preserves the historic heuristic order
  /// exactly (the `ExecOptions::optimize = false` contract).
  JoinCursor(std::shared_ptr<const ReadView> view,
             const std::vector<Triple>& patterns, const VarAssignment& fixed,
             JoinStats* stats = nullptr,
             const std::vector<TermId>* var_order = nullptr);
  /// Borrows `view`, which must outlive the cursor (the classic
  /// callback drivers below use this form).
  JoinCursor(const ReadView& view, const std::vector<Triple>& patterns,
             const VarAssignment& fixed, JoinStats* stats = nullptr,
             const std::vector<TermId>* var_order = nullptr);
  ~JoinCursor();
  JoinCursor(JoinCursor&&) noexcept;
  JoinCursor& operator=(JoinCursor&&) noexcept;

  /// Produces the next solution (including `fixed`, same convention as
  /// EnumerateHomomorphisms). Returns false once exhausted (and from
  /// then on).
  bool Next(VarAssignment* out);

  /// Installs a work-partitioning claim consulted once per root-level
  /// binding, in the cursor's deterministic candidate order: `claim()`
  /// returning false skips that root value (and its whole sub-descent).
  /// A set of cursors over the same view and inputs whose claims
  /// partition the call sequence partitions the solution space exactly.
  /// Install before the first `Next`.
  void SetRootClaim(std::function<bool()> claim);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Enumerates every assignment of vars(`patterns`) \ dom(`fixed`) such
/// that all patterns, instantiated by the assignment plus `fixed`, are
/// triples of `view`. The emitted assignments include `fixed` (same
/// convention as EnumerateHomomorphisms). `callback` may return false to
/// stop. Deterministic order. Patterns may repeat variables within a
/// triple; `fixed` values must occur in the view for a match to exist.
///
/// Joins run over an immutable `ReadView`, so they are safe on any
/// thread concurrently with a live writer: pin a view
/// (`IndexedStore::PinView`) and keep it pinned for the join's duration.
void JoinEnumerate(const ReadView& view, const std::vector<Triple>& patterns,
                   const VarAssignment& fixed,
                   const std::function<bool(const VarAssignment&)>& callback,
                   JoinStats* stats = nullptr);

/// True iff at least one such assignment exists (early-exit join).
bool JoinExists(const ReadView& view, const std::vector<Triple>& patterns,
                const VarAssignment& fixed, JoinStats* stats = nullptr);

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_JOIN_H_
