#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "optimizer/cardinality.h"
#include "util/check.h"

namespace wdsparql {
namespace optimizer {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Fixed per-scan overhead (the binary searches locating a range): keeps
/// the model from calling a plan free just because its ranges are empty.
constexpr double kScanOverhead = 1.0;

/// One non-ground conjunct, encoded like the join encodes it (constant
/// DataIds, local variable indexes) plus its exact base cardinality —
/// the stats lookup for whatever constants it carries.
struct Conjunct {
  DataId constant[3];  // kNoDataId where a variable sits.
  int var[3];          // -1 where a constant sits.
  double base = 0;
};

/// Exact matches of `c` under its constants alone (no variables bound):
/// total / single-value / pair lookup by constant count. Three constants
/// cannot occur (ground conjuncts are dropped before planning).
double BaseCardinality(const CardinalityStats& stats, const Conjunct& c) {
  int bound[3];
  int n = 0;
  for (int pos = 0; pos < 3; ++pos) {
    if (c.var[pos] < 0) bound[n++] = pos;
  }
  switch (n) {
    case 0:
      return static_cast<double>(stats.total());
    case 1:
      return static_cast<double>(stats.Count1(bound[0], c.constant[bound[0]]));
    default: {
      // The pair aggregates cover exactly the three 2-subsets of
      // positions: SP, PO and OS (the latter keyed (o, s)).
      if (bound[0] == 0 && bound[1] == 1) {
        return static_cast<double>(
            stats.CountPair(PairKind::kSp, c.constant[0], c.constant[1]));
      }
      if (bound[0] == 1 && bound[1] == 2) {
        return static_cast<double>(
            stats.CountPair(PairKind::kPo, c.constant[1], c.constant[2]));
      }
      return static_cast<double>(
          stats.CountPair(PairKind::kOs, c.constant[2], c.constant[0]));
    }
  }
}

/// The whole cost-model state for one subtree: conjuncts, variable
/// count, and the selectivity/row/cost estimators over variable subsets
/// (bitmask `mask`, bit v = local variable v bound).
struct Model {
  const CardinalityStats* stats;
  std::vector<Conjunct> conjuncts;
  int num_vars = 0;

  static bool Contains(const Conjunct& c, int v) {
    return c.var[0] == v || c.var[1] == v || c.var[2] == v;
  }

  /// True iff every variable of `c` other than `v` is in `mask`.
  static bool Closes(const Conjunct& c, int v, uint32_t mask) {
    for (int u : c.var) {
      if (u >= 0 && u != v && ((mask >> u) & 1u) == 0) return false;
    }
    return true;
  }

  /// Expected triples matching `c` for one random binding of the
  /// variables in `mask` (independence assumption: each var-bound
  /// position divides the base cardinality by the position's distinct
  /// count, capped so a division never inflates the estimate) — except
  /// on a same-column self-join, see `SelfJoinDegree`.
  double EstMatches(const Conjunct& c, uint32_t mask) const {
    double self_join = SelfJoinDegree(c, mask);
    if (self_join > 0) return self_join;
    double m = c.base;
    for (int pos = 0; pos < 3; ++pos) {
      int v = c.var[pos];
      if (v >= 0 && ((mask >> v) & 1u) != 0) {
        double distinct = static_cast<double>(stats->Distinct(pos));
        m /= std::max(1.0, std::min(distinct, std::max(1.0, c.base)));
      }
    }
    return m;
  }

  /// The matches of `c` = (v p ?u) or (?u p v), with predicate `p`
  /// constant, `v` bound and `?u` unbound, when another conjunct with
  /// predicate `p` holds `v` in the same column and is fully bound under
  /// `mask`. Then `v`'s values were reached through `p` triples on that
  /// column, so a popular value is bound as often as it has edges there,
  /// and its expected degree is that column's size-biased degree, not
  /// the average the independence rule assumes. 0 when the rule does not
  /// apply.
  double SelfJoinDegree(const Conjunct& c, uint32_t mask) const {
    if (c.var[1] >= 0) return 0;
    for (int pos : {0, 2}) {
      const int v = c.var[pos];
      const int u = c.var[2 - pos];
      if (v < 0 || ((mask >> v) & 1u) == 0) continue;
      if (u < 0 || ((mask >> u) & 1u) != 0) continue;
      for (const Conjunct& other : conjuncts) {
        // With `v` in `mask`, closing on `v` means fully bound.
        if (&other == &c || other.var[1] >= 0 || other.constant[1] != c.constant[1] ||
            other.var[pos] != v || !Closes(other, v, mask)) {
          continue;
        }
        return stats->SizeBiasedDegree(pos, c.constant[1]);
      }
    }
    return 0;
  }

  /// Expected candidate values for variable `v` with `mask` bound: the
  /// intersection is at most the smallest contributor, and a conjunct
  /// contributes at most one distinct value per matching triple.
  double Selectivity(int v, uint32_t mask) const {
    double sel = kInf;
    for (const Conjunct& c : conjuncts) {
      bool contains = false;
      for (int pos = 0; pos < 3; ++pos) {
        if (c.var[pos] == v) {
          contains = true;
          sel = std::min(sel, static_cast<double>(stats->Distinct(pos)));
        }
      }
      if (contains) sel = std::min(sel, EstMatches(c, mask));
    }
    return sel == kInf ? 0.0 : sel;
  }

  /// Join work at the level binding `v` (per partial binding above it),
  /// as `JoinCursor` does it: when some conjunct closes at the level
  /// (every other variable in `mask`), the cheapest closing range is
  /// walked and each of its values costs one existence probe per other
  /// conjunct containing `v`, closing or open. When nothing closes,
  /// every conjunct containing `v` walks its range.
  double LevelWork(int v, uint32_t mask) const {
    double all = 0;
    double driver = kInf;
    int num_containing = 0;
    for (const Conjunct& c : conjuncts) {
      if (!Contains(c, v)) continue;
      ++num_containing;
      double matches = EstMatches(c, mask);
      all += matches + kScanOverhead;
      if (Closes(c, v, mask)) driver = std::min(driver, matches);
    }
    if (driver == kInf) return all;
    return driver + kScanOverhead + (num_containing - 1) * driver;
  }

  /// Estimated bindings of the variable set `mask`, computed canonically
  /// (variables folded in ascending local index) so the value is a
  /// function of the set, not of the path the DP reached it by.
  double Rows(uint32_t mask, std::vector<double>* memo) const {
    if (mask == 0) return 1.0;
    double& slot = (*memo)[mask];
    if (slot >= 0) return slot;
    int top = 31 - __builtin_clz(mask);
    uint32_t rest = mask & ~(1u << top);
    slot = Rows(rest, memo) * Selectivity(top, rest);
    return slot;
  }
};

/// Exact bottom-up DP over variable subsets: best_cost[S] = cheapest
/// total scan work reaching "S bound", expanded one variable at a time.
/// Deterministic: ascending mask and variable iteration with strict
/// improvement, so ties resolve to the lowest-index extension.
std::vector<int> OrderByDp(const Model& model, double* est_cost) {
  const int n = model.num_vars;
  const uint32_t full = (1u << n) - 1;
  std::vector<double> best_cost(full + 1, kInf);
  std::vector<int> pred(full + 1, -1);
  std::vector<double> rows_memo(full + 1, -1.0);
  best_cost[0] = 0;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    if (best_cost[mask] == kInf) continue;
    const double rows = model.Rows(mask, &rows_memo);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) continue;
      uint32_t next = mask | (1u << v);
      double cost = best_cost[mask] + rows * model.LevelWork(v, mask);
      if (cost < best_cost[next]) {
        best_cost[next] = cost;
        pred[next] = v;
      }
    }
  }
  std::vector<int> order(n);
  uint32_t mask = full;
  for (int i = n - 1; i >= 0; --i) {
    order[i] = pred[mask];
    mask &= ~(1u << pred[mask]);
  }
  *est_cost = best_cost[full];
  return order;
}

/// Greedy fallback past kDpMaxVars: same cost model, locally cheapest
/// next variable (ties to the lowest index — deterministic).
std::vector<int> OrderGreedy(const Model& model, double* est_cost) {
  const int n = model.num_vars;
  std::vector<int> order;
  order.reserve(n);
  uint32_t mask = 0;
  double rows = 1.0;
  double cost = 0;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_work = kInf;
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) continue;
      double work = rows * model.LevelWork(v, mask);
      if (work < best_work) {
        best_work = work;
        best = v;
      }
    }
    cost += best_work;
    rows *= model.Selectivity(best, mask);
    order.push_back(best);
    mask |= 1u << best;
  }
  *est_cost = cost;
  return order;
}

const char* PermName(Permutation perm) {
  switch (perm) {
    case Permutation::kSpo: return "SPO";
    case Permutation::kPos: return "POS";
    default: return "OSP";
  }
}

}  // namespace

std::optional<SubtreePlan> PlanSubtree(const ReadView& view,
                                       const std::vector<Triple>& patterns) {
  const CardinalityStats* stats = view.stats();
  if (stats == nullptr) return std::nullopt;

  // Encode the conjuncts exactly like JoinCursor::Setup: local variable
  // indexes in first-occurrence order, ground conjuncts dropped, absent
  // constants aborting (the join is provably empty — nothing to plan).
  Model model;
  model.stats = stats;
  std::vector<TermId> vars;
  std::unordered_map<TermId, int> var_index;
  for (const Triple& t : patterns) {
    Conjunct c;
    bool ground = true;
    for (int pos = 0; pos < 3; ++pos) {
      TermId term = t[pos];
      if (IsVariable(term)) {
        auto it = var_index.find(term);
        int idx;
        if (it != var_index.end()) {
          idx = it->second;
        } else {
          idx = static_cast<int>(vars.size());
          var_index[term] = idx;
          vars.push_back(term);
        }
        c.constant[pos] = kNoDataId;
        c.var[pos] = idx;
        ground = false;
        continue;
      }
      DataId id = view.dict().Encode(term);
      if (id == kNoDataId) return std::nullopt;  // Provably empty join.
      c.constant[pos] = id;
      c.var[pos] = -1;
    }
    if (ground) continue;
    c.base = BaseCardinality(*stats, c);
    model.conjuncts.push_back(c);
  }
  model.num_vars = static_cast<int>(vars.size());
  if (model.num_vars == 0) return std::nullopt;  // Nothing to order.

  SubtreePlan plan;
  std::vector<int> order;
  if (model.num_vars <= kDpMaxVars) {
    order = OrderByDp(model, &plan.est_cost);
  } else {
    order = OrderGreedy(model, &plan.est_cost);
  }

  plan.var_order.reserve(order.size());
  for (int v : order) plan.var_order.push_back(vars[v]);
  {
    std::vector<double> rows_memo((1u << std::min(model.num_vars, kDpMaxVars)), -1.0);
    if (model.num_vars <= kDpMaxVars) {
      plan.est_rows = model.Rows((1u << model.num_vars) - 1, &rows_memo);
    } else {
      // Too many variables for subset memoisation: fold selectivities
      // along the chosen order instead.
      double rows = 1.0;
      uint32_t mask = 0;
      for (int v : order) {
        rows *= model.Selectivity(v, mask);
        mask |= 1u << v;
      }
      plan.est_rows = rows;
    }
  }

  // Report, per conjunct, the permutation of its range at its closing
  // level (the level binding its last variable): every position but
  // those of that variable is bound there.
  plan.scan_perms.assign(model.conjuncts.size(), Permutation::kSpo);
  uint32_t bound = 0;
  for (int v : order) {
    for (std::size_t ci = 0; ci < model.conjuncts.size(); ++ci) {
      const Conjunct& c = model.conjuncts[ci];
      if (!Model::Contains(c, v) || !Model::Closes(c, v, bound)) continue;
      int mask3 = 0;
      for (int pos = 0; pos < 3; ++pos) {
        if (c.var[pos] != v) mask3 |= 1 << pos;
      }
      plan.scan_perms[ci] = enc_order::PermForBoundMask(mask3);
    }
    bound |= 1u << v;
  }
  return plan;
}

std::string DescribePlan(const SubtreePlan& plan, const TermPool& pool) {
  std::string out = "order=[";
  for (std::size_t i = 0; i < plan.var_order.size(); ++i) {
    if (i > 0) out += ' ';
    out += '?';
    out += pool.Spelling(plan.var_order[i]);
  }
  out += "] scans=[";
  for (std::size_t i = 0; i < plan.scan_perms.size(); ++i) {
    if (i > 0) out += ' ';
    out += PermName(plan.scan_perms[i]);
  }
  out += ']';
  return out;
}

}  // namespace optimizer
}  // namespace wdsparql
