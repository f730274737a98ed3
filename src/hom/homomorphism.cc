#include "hom/homomorphism.h"

#include <algorithm>
#include <deque>

#include "util/check.h"

namespace wdsparql {
namespace {

/// The whole resumable search state of a `HomCursor`.
///
/// The solver maintains arc-consistent candidate domains per free
/// variable (AC-3 over the triple constraints) and searches with
/// minimum-remaining-values ordering, re-establishing consistency after
/// every assignment (MAC). This keeps the paper's hard instances — clique
/// queries against dense hosts, the Lemma 2 gadgets — within reach while
/// remaining exact.
///
/// Candidate support is probed through the `TripleSource` scan
/// interface: each revision builds a partially bound probe pattern and
/// lets the backend pick its best access path (hash index or permutation
/// range).
///
/// The backtracking recursion is an explicit stack: one frame per
/// assigned variable, advanced iteratively so `Next` can return at a
/// solution and resume exactly there.
struct HomSearch {
  /// One search level: the variable chosen there, the candidate values
  /// it had when chosen, the resume position, and every domain as it was
  /// before `candidates[pos - 1]` was assigned. Once `pos > 0` that
  /// candidate stays assigned until the frame is resumed.
  struct Frame {
    int var = -1;
    std::vector<TermId> candidates;
    std::size_t pos = 0;
    std::vector<std::vector<TermId>> saved;
  };

  HomSearch(const TripleSet& source, const VarAssignment& fixed_in,
            const TripleSource& target_in, const HomOptions& options_in)
      : triples(source.triples()), target(target_in), options(options_in),
        fixed(fixed_in) {
    for (TermId var : source.Variables()) {
      if (fixed.find(var) == fixed.end()) {
        var_index[var] = static_cast<int>(free_vars.size());
        free_vars.push_back(var);
      }
    }
    triples_of_var.resize(free_vars.size());
    for (std::size_t i = 0; i < triples.size(); ++i) {
      for (TermId var : triples[i].Variables()) {
        auto it = var_index.find(var);
        if (it != var_index.end()) triples_of_var[it->second].push_back(i);
      }
    }
  }

  /// Everything before the first search node: triples without free
  /// variables, domain seeding and root arc consistency. Returns false
  /// iff that already proves there is no solution.
  bool Start() {
    // Triples without free variables must hold under `fixed` alone.
    for (const Triple& t : triples) {
      bool has_free = false;
      for (TermId var : t.Variables()) {
        if (var_index.count(var) > 0) {
          has_free = true;
          break;
        }
      }
      if (!has_free && !target.Contains(ApplyAssignment(fixed, t))) return false;
    }
    if (free_vars.empty()) return true;
    assigned.assign(free_vars.size(), false);
    if (!InitializeDomains()) return false;
    if (options.propagation == PropagationLevel::kFull) {
      // Root-level arc consistency.
      std::deque<std::size_t> queue;
      for (std::size_t t = 0; t < triples.size(); ++t) queue.push_back(t);
      if (!Propagate(&queue)) return false;
    }
    frames.reserve(free_vars.size());
    return true;
  }

  /// The image of `term` if determined: IRIs map to themselves, fixed
  /// variables through `fixed`, free variables only when `assigned`.
  std::optional<TermId> DeterminedImage(TermId term) const {
    if (!IsVariable(term)) return term;
    auto fixed_it = fixed.find(term);
    if (fixed_it != fixed.end()) return fixed_it->second;
    auto var_it = var_index.find(term);
    WDSPARQL_DCHECK(var_it != var_index.end());
    if (assigned[var_it->second]) return domains[var_it->second][0];
    return std::nullopt;
  }

  /// Seeds each free variable's domain from one scan of the most bound
  /// source triple containing it, which every solution's image of the
  /// variable must match: one target range, not the target's whole term
  /// population. Domains stay sorted (the support check binary-searches).
  bool InitializeDomains() {
    domains.resize(free_vars.size());
    for (std::size_t v = 0; v < free_vars.size(); ++v) {
      Triple probe;
      int best = -1, at = 0;
      for (std::size_t t_idx : triples_of_var[v]) {
        Triple candidate;
        int bound = 0, v_pos = 0;
        for (int pos = 0; pos < 3; ++pos) {
          std::optional<TermId> image = DeterminedImage(triples[t_idx][pos]);
          candidate.Set(pos, image.value_or(kAnyTerm));
          bound += image.has_value();
          if (triples[t_idx][pos] == free_vars[v]) v_pos = pos;
        }
        if (bound <= best) continue;
        probe = candidate;
        best = bound;
        at = v_pos;
      }
      std::vector<TermId>& domain = domains[v];
      target.ScanPattern(probe, [&domain, at](const Triple& d) {
        domain.push_back(d[at]);
        return true;
      });
      std::sort(domain.begin(), domain.end());
      domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
      domain.erase(std::remove_if(domain.begin(), domain.end(),
                                  [this](TermId t) {
                                    return options.banned_image.count(t) > 0;
                                  }),
                   domain.end());
      if (domain.empty()) return false;
    }
    return true;
  }

  /// True iff value `a` for free var `v` has a supporting target triple
  /// for source triple `t` (all determined positions matching, all other
  /// free positions supported by their current domains).
  bool HasSupport(std::size_t t_idx, int v, TermId a) const {
    const Triple& t = triples[t_idx];
    TermId v_var = free_vars[v];

    // Probe pattern: v's positions and every determined position are
    // bound; other free variables become wildcards, filtered below.
    Triple probe;
    for (int pos = 0; pos < 3; ++pos) {
      TermId term = t[pos];
      if (term == v_var) {
        probe.Set(pos, a);
        continue;
      }
      std::optional<TermId> image = DeterminedImage(term);
      probe.Set(pos, image.has_value() ? *image : kAnyTerm);
    }

    bool found = false;
    target.ScanPattern(probe, [&](const Triple& d) {
      for (int pos = 0; pos < 3; ++pos) {
        TermId term = t[pos];
        if (term == v_var || DeterminedImage(term).has_value()) continue;
        // Other free variable: its domain must contain the value.
        int u = var_index.at(term);
        const std::vector<TermId>& domain = domains[u];
        if (!std::binary_search(domain.begin(), domain.end(), d[pos])) return true;
        // Repeated free variables across positions: require equal images.
        for (int pos2 = pos + 1; pos2 < 3; ++pos2) {
          if (t[pos2] == term && d[pos2] != d[pos]) return true;
        }
      }
      found = true;
      return false;  // Support witnessed; stop the scan.
    });
    return found;
  }

  /// AC-3: revises domains against the triples in `queue` until stable
  /// (or, with `cascade` false, a single pass — forward checking).
  /// Returns false on a wiped-out domain.
  bool Propagate(std::deque<std::size_t>* queue, bool cascade = true) {
    std::vector<bool> queued(triples.size(), false);
    for (std::size_t t : *queue) queued[t] = true;
    while (!queue->empty()) {
      std::size_t t_idx = queue->front();
      queue->pop_front();
      queued[t_idx] = false;
      const Triple& t = triples[t_idx];
      for (TermId var : t.Variables()) {
        auto it = var_index.find(var);
        if (it == var_index.end()) continue;
        int v = it->second;
        if (assigned[v]) continue;
        std::vector<TermId>& domain = domains[v];
        std::size_t before = domain.size();
        domain.erase(std::remove_if(domain.begin(), domain.end(),
                                    [&](TermId a) { return !HasSupport(t_idx, v, a); }),
                     domain.end());
        if (domain.empty()) return false;
        if (cascade && domain.size() != before) {
          for (std::size_t other : triples_of_var[v]) {
            if (!queued[other]) {
              queued[other] = true;
              queue->push_back(other);
            }
          }
        }
      }
    }
    return true;
  }

  /// kNone-mode consistency: every triple containing variable `v` whose
  /// positions are now all determined must hold in the target.
  bool DeterminedTriplesHold(int v) const {
    for (std::size_t t_idx : triples_of_var[v]) {
      const Triple& t = triples[t_idx];
      Triple image = t;
      bool determined = true;
      for (int pos = 0; pos < 3 && determined; ++pos) {
        std::optional<TermId> value = DeterminedImage(t[pos]);
        if (!value.has_value()) {
          determined = false;
        } else {
          image.Set(pos, *value);
        }
      }
      if (determined && !target.Contains(image)) return false;
    }
    return true;
  }

  /// Consistency after assigning `v`, per the propagation level.
  bool ConsistentAfterAssigning(int v) {
    switch (options.propagation) {
      case PropagationLevel::kNone:
        return DeterminedTriplesHold(v);
      case PropagationLevel::kForward: {
        // Domain revision skips assigned variables, so triples that
        // became fully determined (e.g. self-loops on v) must be
        // validated directly — without root arc consistency they may
        // never have constrained dom(v).
        if (!DeterminedTriplesHold(v)) return false;
        std::deque<std::size_t> queue(triples_of_var[v].begin(),
                                      triples_of_var[v].end());
        return Propagate(&queue, /*cascade=*/false);
      }
      case PropagationLevel::kFull: {
        std::deque<std::size_t> queue(triples_of_var[v].begin(),
                                      triples_of_var[v].end());
        return Propagate(&queue, /*cascade=*/true);
      }
    }
    return false;
  }

  /// Minimum-remaining-values variable choice; ties by variable order.
  int PickVariable() const {
    int best = -1;
    std::size_t best_size = 0;
    for (std::size_t v = 0; v < free_vars.size(); ++v) {
      if (assigned[v]) continue;
      if (best == -1 || domains[v].size() < best_size) {
        best = static_cast<int>(v);
        best_size = domains[v].size();
      }
    }
    return best;
  }

  void Emit(VarAssignment* out) const {
    // Clearing (not assigning `fixed`) keeps the bucket array across
    // pulls, so a steady enumeration does not rehash per solution.
    out->clear();
    out->insert(fixed.begin(), fixed.end());
    for (std::size_t v = 0; v < free_vars.size(); ++v) {
      WDSPARQL_DCHECK(domains[v].size() == 1);
      (*out)[free_vars[v]] = domains[v][0];
    }
  }

  /// Visits one search node below the current frames (every frame has a
  /// candidate applied, so the depth is the frame count): counts it
  /// against the budget, then either emits the full assignment (returns
  /// true) or pushes a frame for the MRV variable.
  bool Enter(VarAssignment* out) {
    ++nodes;
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      if (options.budget_exhausted != nullptr) *options.budget_exhausted = true;
      frames.clear();
      return false;
    }
    if (frames.size() == free_vars.size()) {
      Emit(out);
      return true;
    }
    Frame frame;
    frame.var = PickVariable();
    WDSPARQL_DCHECK(frame.var >= 0);
    frame.candidates = domains[frame.var];
    frames.push_back(std::move(frame));
    return false;
  }

  bool Next(VarAssignment* out) {
    if (done) return false;
    if (!started) {
      started = true;
      if (!Start()) {
        done = true;
        return false;
      }
      if (free_vars.empty()) {
        // Nothing to search: the one (fixed) solution.
        done = true;
        *out = fixed;
        return true;
      }
      if (Enter(out)) return true;
    }
    // Resuming (after an emission, a finished child or a failed
    // consistency check), the top frame still has its last candidate
    // assigned: the loop undoes it and tries the next value, exactly
    // where the recursion would have continued.
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.pos > 0) {
        // Swapping keeps the saved buffers' capacity for the next copy.
        assigned[frame.var] = false;
        domains.swap(frame.saved);
      }
      if (frame.pos == frame.candidates.size()) {
        frames.pop_back();
        continue;
      }
      TermId a = frame.candidates[frame.pos++];
      frame.saved = domains;
      domains[frame.var] = {a};
      assigned[frame.var] = true;
      if (ConsistentAfterAssigning(frame.var) && Enter(out)) return true;
    }
    done = true;
    return false;
  }

  const std::vector<Triple> triples;
  const TripleSource& target;
  const HomOptions options;
  const VarAssignment fixed;

  std::vector<TermId> free_vars;
  std::unordered_map<TermId, int> var_index;
  std::vector<std::vector<std::size_t>> triples_of_var;
  std::vector<std::vector<TermId>> domains;
  std::vector<bool> assigned;
  std::vector<Frame> frames;
  bool started = false;
  bool done = false;
  uint64_t nodes = 0;
};

}  // namespace

// The search lives in an internal-linkage class: that lets the compiler
// inline its single-call helpers into the search loop, which measurably
// speeds up the solver (bench_e11 SolverScanAblation).
struct HomCursor::State : HomSearch {
  using HomSearch::HomSearch;
};

HomCursor::HomCursor(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSource& target, const HomOptions& options)
    : state_(std::make_unique<State>(source, fixed, target, options)) {}

HomCursor::~HomCursor() = default;

bool HomCursor::Next(VarAssignment* out) {
  bool found = state_->Next(out);
  if (state_->options.nodes_explored != nullptr) {
    *state_->options.nodes_explored = state_->nodes;
  }
  return found;
}

std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSource& target,
                                              const HomOptions& options) {
  HomCursor cursor(source, fixed, target, options);
  VarAssignment out;
  if (!cursor.Next(&out)) return std::nullopt;
  return out;
}

std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSet& target,
                                              const HomOptions& options) {
  HashTripleSource scan(target);
  return FindHomomorphism(source, fixed, scan, options);
}

bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSource& target, const HomOptions& options) {
  return FindHomomorphism(source, fixed, target, options).has_value();
}

bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSet& target, const HomOptions& options) {
  HashTripleSource scan(target);
  return HasHomomorphism(source, fixed, scan, options);
}

void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSource& target,
                            const std::function<bool(const VarAssignment&)>& callback) {
  HomCursor cursor(source, fixed, target);
  VarAssignment out;
  while (cursor.Next(&out)) {
    if (!callback(out)) return;
  }
}

void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSet& target,
                            const std::function<bool(const VarAssignment&)>& callback) {
  HashTripleSource scan(target);
  EnumerateHomomorphisms(source, fixed, scan, callback);
}

Triple ApplyAssignment(const VarAssignment& assignment, const Triple& t) {
  Triple out = t;
  for (int pos = 0; pos < 3; ++pos) {
    TermId term = t[pos];
    if (IsVariable(term)) {
      auto it = assignment.find(term);
      if (it != assignment.end()) out.Set(pos, it->second);
    }
  }
  return out;
}

TripleSet ApplyAssignment(const VarAssignment& assignment, const TripleSet& source) {
  TripleSet out;
  for (const Triple& t : source.triples()) out.Insert(ApplyAssignment(assignment, t));
  return out;
}

VarAssignment IdentityOn(const std::vector<TermId>& X) {
  VarAssignment out;
  for (TermId var : X) {
    WDSPARQL_CHECK(IsVariable(var));
    out[var] = var;
  }
  return out;
}

}  // namespace wdsparql
