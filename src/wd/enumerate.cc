#include "wd/enumerate.h"

#include <algorithm>
#include <unordered_set>

#include "hom/homomorphism.h"
#include "ptree/subtree.h"

namespace wdsparql {
namespace {

std::string RenderTerm(const TermPool& pool, TermId term) {
  std::string spelling(pool.Spelling(term));
  return IsVariable(term) ? "?" + spelling : spelling;
}

/// Renders pat(T') for the ExecStats subpattern breakdown, e.g.
/// "(?x knows ?y) AND (?y email ?e)".
std::string RenderPattern(const TermPool& pool, const TripleSet& pattern) {
  std::string out;
  for (const Triple& t : pattern.triples()) {
    if (!out.empty()) out += " AND ";
    out += "(" + RenderTerm(pool, t.subject) + " " +
           RenderTerm(pool, t.predicate) + " " + RenderTerm(pool, t.object) + ")";
  }
  return out;
}

/// `CandidateGenerator` over a resumable CSP search: the homomorphisms
/// of `pattern` into `target` (which must outlive it), one per `Next`.
class HomCursorGenerator final : public CandidateGenerator {
 public:
  HomCursorGenerator(const TripleSet& pattern, const TripleSource& target)
      : cursor_(pattern, VarAssignment{}, target) {}

  bool Next(VarAssignment* out) override { return cursor_.Next(out); }

 private:
  HomCursor cursor_;
};

/// A non-owning handle on `graph`, for hooks that die before it does.
std::shared_ptr<const RdfGraph> Borrow(const RdfGraph& graph) {
  return std::shared_ptr<const RdfGraph>(&graph, [](const RdfGraph*) {});
}

}  // namespace

SolutionEnumerator::SolutionEnumerator(const PatternForest& forest,
                                       EnumerationHooks hooks)
    : forest_(&forest), hooks_(std::move(hooks)) {}

SolutionEnumerator::~SolutionEnumerator() { EndSubtreeSpan(); }

void SolutionEnumerator::EndSubtreeSpan() {
  if (subtree_span_ != 0) {
    trace_->Annotate(subtree_span_, "candidates", cur_candidates_);
    trace_->EndSpan(subtree_span_);
    subtree_span_ = 0;
  }
  if (timing_open_) {
    SubtreeTiming& timing = timings_->back();
    timing.duration_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - timing.start)
            .count());
    timing.candidates = cur_candidates_;
    timing_open_ = false;
  }
}

ExecStats::Subpattern* SolutionEnumerator::CurSubpattern() {
  return sink_has_cur_ ? &sink_->subpatterns.back() : nullptr;
}

bool SolutionEnumerator::CheckInterrupt() {
  if (interrupted_ || !probe_) return interrupted_;
  if (++steps_since_probe_ < probe_interval_) return false;
  steps_since_probe_ = 0;
  if (sink_ != nullptr) ++sink_->interrupt_checks;
  if (probe_()) interrupted_ = true;
  return interrupted_;
}

bool SolutionEnumerator::AdvanceSubtree() {
  while (subtree_idx_ >= subtrees_.size()) {
    // Drained the loaded tree (or nothing loaded yet, which the
    // kNoTree sentinel turns into "load tree 0"): materialise the next
    // tree's subtree list — EnumerateSolutionsWith visits the same
    // list; holding it lets the machine suspend between any two
    // candidates.
    std::size_t next = tree_idx_ + 1;  // kNoTree wraps to 0.
    if (next >= forest_->trees.size()) {
      EndSubtreeSpan();
      return false;
    }
    tree_idx_ = next;
    subtrees_.clear();
    EnumerateSubtrees(forest_->trees[tree_idx_],
                      [this](const Subtree& subtree) { subtrees_.push_back(subtree); });
    subtree_idx_ = 0;
  }
  const Subtree& subtree = subtrees_[subtree_idx_++];
  cur_tree_ = subtree.tree;
  pattern_ = SubtreePattern(subtree);
  children_ = SubtreeChildren(subtree);
  cur_candidates_ = 0;
  sink_has_cur_ = false;
  // One span per wdpf subtree, covering its whole candidate pull and
  // the maximality work until the next boundary — this is the subtree-
  // granular "where did the time go" answer; per-candidate cost stays
  // out of the trace entirely.
  EndSubtreeSpan();
  if (trace_ != nullptr) {
    subtree_span_ = trace_->StartSpan("subtree", trace_parent_);
    trace_->Annotate(subtree_span_, "tree",
                     static_cast<uint64_t>(tree_idx_));
    trace_->Annotate(subtree_span_, "subtree",
                     static_cast<uint64_t>(subtree_idx_ - 1));
  }
  if (timings_ != nullptr) {
    timings_->push_back(SubtreeTiming{tree_idx_, subtree_idx_ - 1,
                                      std::chrono::steady_clock::now(), 0, 0});
    timing_open_ = true;
  }
  // The generator carries the whole search state; candidates are
  // produced one `Next` pull at a time, never materialised.
  generator_ = hooks_.open_candidates(pattern_);
  return true;
}

bool SolutionEnumerator::Next(Mapping* out) {
  WDSPARQL_CHECK(out != nullptr);
  if (state_ == State::kDone) return false;
  state_ = State::kActive;
  VarAssignment assignment;
  while (true) {
    if (CheckInterrupt()) {
      state_ = State::kDone;
      EndSubtreeSpan();
      return false;
    }
    if (generator_ == nullptr) {
      if (!AdvanceSubtree()) {
        state_ = State::kDone;
        return false;
      }
      continue;
    }
    if (!generator_->Next(&assignment)) {
      // Subtree exhausted. Empty subtrees are only tallied (no
      // breakdown entry), or a wide forest would drown the report in
      // zero rows.
      if (sink_ != nullptr && cur_candidates_ == 0) ++sink_->empty_subpatterns;
      generator_.reset();
      continue;
    }
    ++stats_.candidates;
    ++cur_candidates_;
    if (sink_ != nullptr) {
      if (cur_candidates_ == 1) {
        // Lazily opened breakdown entry: with a suspendable generator,
        // whether a subtree has candidates at all is only known at the
        // first successful pull.
        ExecStats::Subpattern sub;
        sub.tree = tree_idx_;
        sub.subtree = subtree_idx_ - 1;
        sub.pattern = RenderPattern(*sink_pool_, pattern_);
        if (const CandidatePlanInfo* info = generator_->plan_info()) {
          sub.est_rows = info->est_rows;
          sub.est_cost = info->est_cost;
          sub.plan_ns = info->plan_ns;
          sub.plan = info->description;
        }
        sink_->subpatterns.push_back(std::move(sub));
        sink_has_cur_ = true;
      }
      ++sink_->candidates;
      ++CurSubpattern()->candidates;
    }
    Mapping mu;
    for (const auto& [var, value] : assignment) {
      WDSPARQL_CHECK(mu.Bind(var, value));
    }
    if (seen_.count(mu) > 0) {
      if (sink_ != nullptr) {
        ++sink_->dedup_rejected;
        ++CurSubpattern()->dedup_rejected;
      }
      continue;
    }
    // Maximality: no child may extend mu.
    uint64_t tests = 0;
    const bool maximal =
        !AnyChildExtends(*cur_tree_, children_, assignment, hooks_.extends, &tests);
    stats_.maximality_tests += tests;
    if (sink_ != nullptr) {
      sink_->maximality_tests += tests;
      sink_->non_maximal += !maximal;
      CurSubpattern()->maximality_tests += tests;
      CurSubpattern()->non_maximal += !maximal;
    }
    if (!maximal) continue;
    seen_.insert(mu);
    ++stats_.emitted;
    if (sink_ != nullptr) ++CurSubpattern()->rows;
    *out = mu;
    return true;
  }
}

void EnumerateSolutionsWith(const PatternForest& forest, const EnumerationHooks& hooks,
                            const std::function<bool(const Mapping&)>& callback,
                            EnumerateStats* stats) {
  SolutionEnumerator enumerator(forest, hooks);
  Mapping mu;
  while (enumerator.Next(&mu)) {
    if (!callback(mu)) break;
  }
  if (stats != nullptr) *stats = enumerator.stats();
}

EnumerationHooks HashHooks(std::shared_ptr<const RdfGraph> graph, int k) {
  // The lambdas keep the graph and its one scan adapter alive.
  auto scan = std::make_shared<const HashTripleSource>(graph->triples());
  Certificate certificate =
      k > 0 ? PebbleCertificate(graph->triples(), k) : HomCertificate(*scan);
  EnumerationHooks hooks;
  hooks.open_candidates = [graph, scan](const TripleSet& pattern) {
    return std::make_unique<HomCursorGenerator>(pattern, *scan);
  };
  hooks.extends = [graph, scan, certificate = std::move(certificate)](
                      const TripleSet& child, const VarAssignment& fixed) {
    return certificate(child, fixed);
  };
  return hooks;
}

void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             EnumerateStats* stats) {
  EnumerateSolutionsWith(forest, HashHooks(Borrow(graph), 0), callback, stats);
}

void EnumerateSolutionsPebble(const PatternForest& forest, const RdfGraph& graph,
                              int k, const std::function<bool(const Mapping&)>& callback,
                              EnumerateStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  EnumerateSolutionsWith(forest, HashHooks(Borrow(graph), k), callback, stats);
}

std::vector<Mapping> AllSolutionsPebble(const PatternForest& forest,
                                        const RdfGraph& graph, int k,
                                        EnumerateStats* stats) {
  std::vector<Mapping> out;
  EnumerateSolutionsPebble(
      forest, graph, k,
      [&out](const Mapping& mu) {
        out.push_back(mu);
        return true;
      },
      stats);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t CountSolutions(const PatternForest& forest, const RdfGraph& graph) {
  uint64_t count = 0;
  EnumerateSolutionsNaive(forest, graph, [&count](const Mapping&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace wdsparql
