#ifndef WDSPARQL_WD_ENUMERATE_H_
#define WDSPARQL_WD_ENUMERATE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "hom/homomorphism.h"
#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "sparql/mapping.h"
#include "wd/eval.h"
#include "wdsparql/stats.h"
#include "wdsparql/trace.h"

/// \file
/// Answer enumeration under the domination-width promise.
///
/// The paper's Section 5 lists enumeration as a natural variant of
/// wdEVAL (cf. Kroll-Pichler-Skritek). This module materialises JFKG by
/// enumerating, per tree, the homomorphisms of each subtree pattern and
/// certifying maximality with the same `Certificate`s and child loop
/// (`AnyChildExtends`) as the membership algorithms:
///
///  * `EnumerateSolutionsNaive`  — exact homomorphism maximality tests
///    (always correct; this is the ptree/semantics.h oracle re-exposed
///    with streaming callbacks and statistics);
///  * `EnumerateSolutionsPebble` — Theorem 1-style (k+1)-pebble
///    maximality tests: every emitted mapping is a genuine answer
///    (soundness is unconditional), and under the promise dw(F) <= k the
///    output is exactly JFKG.
///
/// A candidate mu is a homomorphism of pat(T'), so mu(pat(T')) ⊆ G holds
/// and dom(mu) = vars(T'): a child n extends mu iff
/// `(pat(n), vars(T')) ->mu G`, the paper's test minus its ground half.
/// Certificates get the child's pattern alone (see wd/eval.h).
///
/// Candidate generation is exponential in |P| (unavoidable: answers can
/// be exponentially many); the promise only de-NP-hardens the per-
/// candidate maximality certificates, mirroring the paper's separation
/// between candidate structure and extension tests.

namespace wdsparql {

/// Statistics of one enumeration run.
struct EnumerateStats {
  uint64_t candidates = 0;   ///< Homomorphisms considered.
  uint64_t emitted = 0;      ///< Answers produced (pre-deduplication).
  uint64_t maximality_tests = 0;
  /// Duplicates dropped at the cross-worker merge (parallel execution
  /// only; always 0 for a serial enumeration).
  uint64_t merge_dedup = 0;
};

/// What a cost-based generator decided for its subtree, surfaced for
/// EXPLAIN output: the estimates feed `ExecStats::Subpattern` so a
/// report shows estimated next to actual cardinality per subtree.
struct CandidatePlanInfo {
  double est_rows = 0;       ///< Estimated subtree solutions.
  double est_cost = 0;       ///< Estimated scan volume of the descent.
  uint64_t plan_ns = 0;      ///< Time spent planning this subtree.
  std::string description;   ///< e.g. "order=[?y ?x] scans=[POS SPO]".
};

/// One subtree's trace timing as plain values — what a `subtree` span
/// records. Enumerators running off the trace's thread (the parallel
/// workers) keep these for the consumer thread to emit as spans.
struct SubtreeTiming {
  std::size_t tree = 0;
  std::size_t subtree = 0;
  std::chrono::steady_clock::time_point start;
  uint64_t duration_ns = 0;
  uint64_t candidates = 0;  ///< Candidates pulled from the subtree.
};

/// A suspendable candidate source: one subtree pattern's homomorphisms,
/// delivered one `Next` call at a time. Generators carry their whole
/// search state between calls, so a consumer that stops early (row
/// limits, cancellation, a partitioned parallel worker) pays only for
/// the candidates it actually pulled — never for the subtree's whole
/// match set.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  /// Produces the next candidate homomorphism; false once exhausted
  /// (and from then on).
  virtual bool Next(VarAssignment* out) = 0;

  /// The cost-based plan behind this generator, when one was chosen
  /// (the indexed backend with statistics available); null otherwise.
  /// Valid as long as the generator lives.
  virtual const CandidatePlanInfo* plan_info() const { return nullptr; }
};

/// The storage side of the enumeration skeleton: where candidates come
/// from and how maximality is certified. Both hooks must be set.
struct EnumerationHooks {
  /// Opens the pull-based candidate source of one subtree pattern: its
  /// homomorphisms into the data, one per `Next` — a resumable
  /// `JoinCursor` on the indexed backend, a `HomCursor` in `HashHooks`.
  std::function<std::unique_ptr<CandidateGenerator>(const TripleSet& pattern)>
      open_candidates;
  /// Maximality certificate, run once per child of the open subtree
  /// with that child's pattern and the candidate's assignment.
  Certificate extends;
};

/// The hash backend's hooks over `graph`: resumable `HomCursor`
/// candidates, and exact homomorphism certificates, or (k+1)-pebble ones
/// when `k > 0`. The hooks share ownership of `graph`.
EnumerationHooks HashHooks(std::shared_ptr<const RdfGraph> graph, int k);

/// The enumeration skeleton every variant instantiates: per tree, per
/// subtree, stream candidates, deduplicate across trees/subtrees,
/// certify maximality against each child, emit. Plugging in the CSP
/// solver, the pebble game or the engine's merge join yields the
/// naive, Theorem 1 and indexed enumerators respectively.
void EnumerateSolutionsWith(const PatternForest& forest, const EnumerationHooks& hooks,
                            const std::function<bool(const Mapping&)>& callback,
                            EnumerateStats* stats = nullptr);

/// Pull-based, suspendable instantiation of the same skeleton — the
/// engine's `Cursor` runs on this. The enumeration is an explicit state
/// machine over (tree, subtree, candidate-generator) coordinates: each
/// `Next` call resumes exactly where the previous one stopped, pulls
/// candidates one at a time from the open subtree's generator, performs
/// deduplication and the per-child maximality certificates for as many
/// candidates as it takes to reach the next answer, and suspends again.
/// Candidate sources are pull cursors, so nothing is materialised: a
/// `row_limit=1` execution generates one candidate, not the subtree's
/// whole match set, on either backend.
///
/// The forest must outlive the enumerator, and the hooks must stay
/// valid (they typically close over the storage backend).
class SolutionEnumerator {
 public:
  enum class State {
    kStart,    ///< No Next() call yet.
    kActive,   ///< Mid-enumeration: at least one answer delivered or sought.
    kDone,     ///< Exhausted: every further Next() returns false.
  };

  SolutionEnumerator(const PatternForest& forest, EnumerationHooks hooks);
  ~SolutionEnumerator();

  /// Advances to the next distinct maximal solution. Returns false when
  /// the solution set is exhausted (state() == kDone from then on) or
  /// when the interruption probe fired (`interrupted()` distinguishes).
  bool Next(Mapping* out);

  /// Installs a cooperative interruption probe, consulted every
  /// `interval` enumeration steps (a step is one candidate pulled or one
  /// subtree opened — so the machine stops *mid-subtree*, within a
  /// bounded number of candidates, not at the next answer boundary).
  /// Once the probe returns true the enumeration is over: `Next` returns
  /// false from then on and `interrupted()` stays true.
  /// The engine's `Cursor` wires `ExecOptions` deadlines and
  /// cancellation tokens through this.
  void SetInterruptProbe(std::function<bool()> probe, uint32_t interval) {
    probe_ = std::move(probe);
    probe_interval_ = interval == 0 ? 1 : interval;
  }

  /// True iff the enumeration was stopped by the interruption probe
  /// (as opposed to running out of answers).
  bool interrupted() const { return interrupted_; }

  State state() const { return state_; }
  const EnumerateStats& stats() const { return stats_; }

  /// Installs an optional `ExecStats` sink for fine-grained collection:
  /// per-subpattern candidate/rejection/row counters (rendered through
  /// `pool`), interrupt-probe counts and enumeration totals, all written
  /// as plain cursor-local increments. Null sink (the default) keeps the
  /// hot path exactly as uninstrumented. Both pointers must outlive the
  /// enumerator; install before the first `Next`.
  void SetStatsSink(ExecStats* sink, const TermPool* pool) {
    sink_ = sink;
    sink_pool_ = pool;
  }

  /// Installs a request-scoped trace sink (see wdsparql/trace.h): the
  /// enumerator then emits one `subtree` span per wdpf subtree it opens,
  /// parented under `parent` — a span at subtree *boundaries*, never per
  /// candidate or per row, so the hot loop stays untouched. The context
  /// must outlive the enumerator; install before the first `Next`.
  void SetTraceSink(TraceContext* trace, uint32_t parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

  /// Plain-value counterpart of `SetTraceSink` for an enumerator that
  /// runs off the trace's thread: appends one `SubtreeTiming` per
  /// subtree it opens to `sink` (caller-owned, read once the enumerator
  /// is gone). Install before the first `Next`.
  void SetSubtreeTimingSink(std::vector<SubtreeTiming>* sink) { timings_ = sink; }

 private:
  /// Opens the next subtree (pattern, children, candidate generator,
  /// trace span). Returns false when every tree is exhausted.
  bool AdvanceSubtree();

  /// Counts one enumeration step; every `probe_interval_` steps asks
  /// the probe whether to stop. Returns (and latches) the interrupted
  /// state.
  bool CheckInterrupt();

  /// The `ExecStats::Subpattern` entry of the open subtree (valid only
  /// while `sink_` is set and the current subtree produced candidates).
  ExecStats::Subpattern* CurSubpattern();

  /// Ends the open subtree's trace span and timing, if any (subtree
  /// boundary, exhaustion, interruption, destruction — whichever comes
  /// first), recording the candidates pulled so far — a lazy generator
  /// only knows its candidate count at the boundary, not up front.
  void EndSubtreeSpan();

  const PatternForest* forest_;
  EnumerationHooks hooks_;
  EnumerateStats stats_;
  State state_ = State::kStart;

  // Optional fine-grained stats collection (see SetStatsSink).
  ExecStats* sink_ = nullptr;
  const TermPool* sink_pool_ = nullptr;
  bool sink_has_cur_ = false;  // Does subpatterns.back() describe the open subtree?

  // Optional per-subtree tracing (see SetTraceSink). `subtree_span_` is
  // the open subtree's span, ended at the next boundary (or destruction).
  TraceContext* trace_ = nullptr;
  uint32_t trace_parent_ = 0;
  uint32_t subtree_span_ = 0;
  std::vector<SubtreeTiming>* timings_ = nullptr;  // See SetSubtreeTimingSink.
  bool timing_open_ = false;  // Does timings_->back() describe the open subtree?

  // Cooperative interruption (see SetInterruptProbe).
  std::function<bool()> probe_;
  uint32_t probe_interval_ = 64;
  uint32_t steps_since_probe_ = 0;
  bool interrupted_ = false;

  // Explicit iteration coordinates. kNoTree marks "no tree loaded yet";
  // the first advance wraps it to tree 0.
  static constexpr std::size_t kNoTree = static_cast<std::size_t>(-1);
  std::size_t tree_idx_ = kNoTree;
  const PatternTree* cur_tree_ = nullptr;  // Tree of the open subtree.
  std::vector<Subtree> subtrees_;        // Subtrees of the current tree.
  std::size_t subtree_idx_ = 0;          // Next subtree to open.
  TripleSet pattern_;                    // pat(T') of the open subtree.
  std::vector<NodeId> children_;         // Children of the open subtree.
  /// The open subtree's candidate source (null between subtrees); it
  /// keeps the whole suspended join or CSP search state.
  std::unique_ptr<CandidateGenerator> generator_;
  uint64_t cur_candidates_ = 0;          // Candidates pulled from `generator_`.
  std::unordered_set<Mapping, MappingHash> seen_;  // Cross-subtree dedup.
};

/// Streams every mu in JFKG, using exact homomorphism maximality tests.
/// The callback may return false to stop. Duplicates across trees and
/// subtrees are suppressed.
void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             EnumerateStats* stats = nullptr);

/// Streams answers using (k+1)-pebble maximality tests. Every emitted
/// mapping is in JFKG; under dw(F) <= k the stream is exactly JFKG.
void EnumerateSolutionsPebble(const PatternForest& forest, const RdfGraph& graph,
                              int k, const std::function<bool(const Mapping&)>& callback,
                              EnumerateStats* stats = nullptr);

/// Convenience: materialise the pebble enumeration, sorted and unique.
std::vector<Mapping> AllSolutionsPebble(const PatternForest& forest,
                                        const RdfGraph& graph, int k,
                                        EnumerateStats* stats = nullptr);

/// |JFKG| via the naive enumeration (counting variant; Section 5).
uint64_t CountSolutions(const PatternForest& forest, const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_WD_ENUMERATE_H_
