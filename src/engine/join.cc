#include "engine/join.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace wdsparql {
namespace {

/// One conjunct, dictionary-encoded: constant positions carry their
/// `DataId`, variable positions the local variable index.
struct EncConjunct {
  DataId constant[3];  // kNoDataId where a variable sits.
  int var[3];          // -1 where a constant sits.
};

}  // namespace

/// The whole resumable join state. The recursion of the old callback
/// join became an explicit stack: one {values, position} frame per
/// variable level, advanced iteratively so `Next` can return mid-descent
/// and resume exactly there.
struct JoinCursor::State {
  State(std::shared_ptr<const ReadView> owned, const ReadView& view,
        const VarAssignment& fixed_in, JoinStats* stats_in)
      : keepalive(std::move(owned)), store(view), fixed(fixed_in), stats(stats_in) {}

  /// One descent level: the candidate values of the level's variable
  /// under the bindings above it, the resume position, and the conjuncts
  /// the level consults (fixed once the order is known). One `closing`
  /// conjunct drives the level with its range and every other conjunct
  /// containing the variable, closing or `open`, filters by probe. A
  /// level where nothing closes has no `closing` entry: every `open`
  /// conjunct projects its range into `ranges` (reused across fills, so
  /// a steady descent allocates nothing) and they are intersected.
  struct Level {
    std::vector<DataId> values;
    std::size_t pos = 0;
    std::vector<std::size_t> closing;
    std::vector<std::size_t> open;
    std::vector<std::vector<DataId>> ranges;
  };

  std::shared_ptr<const ReadView> keepalive;  // Null for borrowed views.
  const ReadView& store;
  VarAssignment fixed;  // By value: the cursor outlives the Execute call.
  JoinStats* stats;
  std::function<bool()> claim;  // Null = every root value is ours.

  std::vector<EncConjunct> conjuncts;
  std::vector<TermId> vars;
  std::unordered_map<TermId, int> var_index;
  std::vector<int> order;
  std::vector<DataId> binding;
  std::vector<Level> levels;
  int depth = -1;  // -1 = not started.
  bool done = false;

  int LocalVar(TermId term) {
    auto it = var_index.find(term);
    if (it != var_index.end()) return it->second;
    int idx = static_cast<int>(vars.size());
    var_index[term] = idx;
    vars.push_back(term);
    return idx;
  }

  /// Returns false iff setup proved the join empty.
  bool Setup(const std::vector<Triple>& patterns,
             const std::vector<TermId>* preferred_order) {
    for (const Triple& raw : patterns) {
      Triple t = ApplyAssignment(fixed, raw);
      EncConjunct c;
      bool ground = true;
      EncTriple enc_ground;
      for (int pos = 0; pos < 3; ++pos) {
        TermId term = t[pos];
        if (IsVariable(term)) {
          c.constant[pos] = kNoDataId;
          c.var[pos] = LocalVar(term);
          ground = false;
          continue;
        }
        if (stats != nullptr) ++stats->dict_encodes;
        DataId id = store.dict().Encode(term);
        if (id == kNoDataId) return false;  // Constant absent from the store.
        c.constant[pos] = id;
        c.var[pos] = -1;
        (pos == 0 ? enc_ground.s : (pos == 1 ? enc_ground.p : enc_ground.o)) = id;
      }
      if (ground) {
        if (!store.Contains(enc_ground)) return false;
        continue;  // Satisfied unconditionally; drop the conjunct.
      }
      conjuncts.push_back(c);
    }

    // Bind most-constrained variables first: descending pattern count,
    // ties by TermId for determinism.
    std::vector<std::vector<std::size_t>> conjuncts_of_var(vars.size());
    for (std::size_t ci = 0; ci < conjuncts.size(); ++ci) {
      for (int pos = 0; pos < 3; ++pos) {
        int v = conjuncts[ci].var[pos];
        if (v < 0) continue;
        std::vector<std::size_t>& list = conjuncts_of_var[v];
        if (list.empty() || list.back() != ci) list.push_back(ci);
      }
    }
    order.resize(vars.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      std::size_t ca = conjuncts_of_var[a].size();
      std::size_t cb = conjuncts_of_var[b].size();
      if (ca != cb) return ca > cb;
      return vars[a] < vars[b];
    });
    // A planner-chosen order overrides the heuristic — but only when it
    // is exactly a permutation of this pattern's unbound variables, so a
    // mismatched plan degrades to the heuristic instead of to a wrong
    // (partial) binding order.
    if (preferred_order != nullptr && preferred_order->size() == vars.size()) {
      std::vector<int> mapped;
      mapped.reserve(vars.size());
      std::vector<char> used(vars.size(), 0);
      bool ok = true;
      for (TermId term : *preferred_order) {
        auto it = var_index.find(term);
        if (it == var_index.end() || used[it->second]) {
          ok = false;
          break;
        }
        used[it->second] = 1;
        mapped.push_back(it->second);
      }
      if (ok) order = std::move(mapped);
    }
    binding.assign(vars.size(), kNoDataId);
    levels.resize(order.size());
    // A conjunct closes at the level binding the last of its variables.
    std::vector<std::size_t> depth_of(vars.size());
    for (std::size_t d = 0; d < order.size(); ++d) depth_of[order[d]] = d;
    for (std::size_t d = 0; d < order.size(); ++d) {
      Level& level = levels[d];
      for (std::size_t ci : conjuncts_of_var[order[d]]) {
        std::size_t closes_at = 0;
        for (int v : conjuncts[ci].var) {
          if (v >= 0) closes_at = std::max(closes_at, depth_of[v]);
        }
        (closes_at == d ? level.closing : level.open).push_back(ci);
      }
      if (level.closing.empty()) level.ranges.resize(level.open.size());
    }
    return true;
  }

  /// Conjunct `c`'s scan pattern at the level of `v`, given the current
  /// bindings: constants and bound variables fixed, `v` set to `value`
  /// (a wildcard when `kNoDataId`), unbound variables wildcards.
  EncPattern LevelPattern(const EncConjunct& c, int v, DataId value) const {
    DataId at[3];
    for (int pos = 0; pos < 3; ++pos) {
      if (c.var[pos] < 0) {
        at[pos] = c.constant[pos];
      } else if (c.var[pos] == v) {
        at[pos] = value;
      } else {
        at[pos] = binding[c.var[pos]];  // kNoDataId while unbound: wildcard.
      }
    }
    return EncPattern{at[0], at[1], at[2]};
  }

  /// Replaces `*out` with the sorted distinct values of `v` over
  /// `scan`, conjunct `c`'s range at the level of `v`. When `v` sits
  /// right after the bound prefix (the conjunct closes here) the values
  /// arrive sorted; otherwise a sort pass normalises them.
  void CollectValues(const MergedScan& scan, const EncConjunct& c, int v,
                     std::vector<DataId>* out) {
    std::vector<DataId>& values = *out;
    values.clear();
    int v_positions[3];
    int num_v_positions = 0;
    for (int pos = 0; pos < 3; ++pos) {
      if (c.var[pos] == v) v_positions[num_v_positions++] = pos;
    }
    WDSPARQL_DCHECK(num_v_positions > 0);

    auto keep = [&](const EncTriple& t) {
      // Repeated variable inside the conjunct: all its positions must
      // carry the same value.
      if (num_v_positions > 1 && t[v_positions[1]] != t[v_positions[0]]) return;
      if (num_v_positions > 2 && t[v_positions[2]] != t[v_positions[0]]) return;
      values.push_back(t[v_positions[0]]);
    };
    if (stats == nullptr) {
      for (const EncTriple& t : scan) keep(t);
    } else {
      // Instrumented walk: the explicit iterator exposes which run each
      // triple came from, attributing scan volume to base vs delta.
      ++stats->ranges_scanned;
      for (auto it = scan.begin(); it != scan.end(); ++it) {
        ++(it.on_delta() ? stats->delta_scanned : stats->base_scanned);
        keep(*it);
      }
    }
    if (!std::is_sorted(values.begin(), values.end())) {
      std::sort(values.begin(), values.end());
    }
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }

  /// Keeps the values of sorted `current` that also occur in sorted
  /// `other` (a galloping merge).
  void IntersectWith(const std::vector<DataId>& other, std::vector<DataId>* current) {
    std::size_t kept = 0;
    auto it = other.begin();
    for (DataId value : *current) {
      if (stats != nullptr) ++stats->values_probed;
      it = std::lower_bound(it, other.end(), value);
      if (it == other.end()) break;
      if (*it == value) (*current)[kept++] = value;
    }
    current->resize(kept);
  }

  /// Keeps the values of `current` under which conjunct `c` still
  /// matches: one existence probe per value, with `v` bound and the
  /// conjunct's unbound variables left as wildcards. Every probe binds a
  /// prefix of one permutation (all three positions for a conjunct that
  /// closes here), so it costs a binary search.
  void FilterByProbe(const EncConjunct& c, int v, std::vector<DataId>* current) {
    std::size_t kept = 0;
    for (DataId value : *current) {
      if (stats != nullptr) ++stats->values_probed;
      if (!store.Scan(LevelPattern(c, v, value)).empty()) (*current)[kept++] = value;
    }
    current->resize(kept);
  }

  /// Computes level `d`'s value list under the bindings above it. When
  /// conjuncts close here, the one whose range is smallest by
  /// `size_bound()` (ties to the first) supplies the values and every
  /// other conjunct containing the variable filters them by probe; the
  /// choice reads only the view and the bindings, so every cursor over
  /// the same inputs walks the same values. When nothing closes, the
  /// projected ranges are intersected smallest first. An empty list is
  /// a dead branch.
  void FillLevel(std::size_t d) {
    Level& level = levels[d];
    level.values.clear();
    level.pos = 0;
    const int v = order[d];
    if (level.closing.empty()) {
      std::vector<std::vector<DataId>>& ranges = level.ranges;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        const EncConjunct& c = conjuncts[level.open[i]];
        CollectValues(store.Scan(LevelPattern(c, v, kNoDataId)), c, v, &ranges[i]);
        if (ranges[i].empty()) return;  // Dead branch.
      }
      // Swapping keeps every buffer's capacity.
      std::sort(ranges.begin(), ranges.end(),
                [](const auto& a, const auto& b) { return a.size() < b.size(); });
      level.values.swap(ranges.front());
      for (std::size_t i = 1; i < ranges.size() && !level.values.empty(); ++i) {
        IntersectWith(ranges[i], &level.values);
      }
      return;
    }
    std::size_t driver = 0;
    MergedScan scan = store.Scan(LevelPattern(conjuncts[level.closing[0]], v, kNoDataId));
    for (std::size_t i = 1; i < level.closing.size(); ++i) {
      MergedScan other = store.Scan(LevelPattern(conjuncts[level.closing[i]], v, kNoDataId));
      if (other.size_bound() < scan.size_bound()) {
        scan = other;
        driver = i;
      }
    }
    CollectValues(scan, conjuncts[level.closing[driver]], v, &level.values);
    for (std::size_t i = 0; i < level.closing.size(); ++i) {
      if (level.values.empty()) return;
      if (i != driver) FilterByProbe(conjuncts[level.closing[i]], v, &level.values);
    }
    for (std::size_t ci : level.open) {
      if (level.values.empty()) return;
      FilterByProbe(conjuncts[ci], v, &level.values);
    }
  }

  void Emit(VarAssignment* out) {
    // Clearing (not assigning `fixed`) keeps the bucket array across
    // pulls, so a steady enumeration does not rehash per solution.
    out->clear();
    out->insert(fixed.begin(), fixed.end());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      (*out)[vars[i]] = store.dict().Decode(binding[i]);
    }
    if (stats != nullptr) {
      ++stats->emitted;
      stats->dict_decodes += vars.size();
    }
  }

  bool Next(VarAssignment* out) {
    if (done) return false;
    if (depth < 0) {
      if (order.empty()) {
        // Zero unbound variables: the one (fixed) solution. It still
        // counts as one root-claim unit, so exactly one of a set of
        // partitioned cursors emits it.
        done = true;
        if (claim && !claim()) return false;
        Emit(out);
        return true;
      }
      depth = 0;
      FillLevel(0);
    }
    // Resuming after an emission, `depth` stands at the deepest level
    // with its position already past the emitted value — the loop
    // continues the descent exactly where it stopped.
    while (depth >= 0) {
      Level& level = levels[depth];
      if (level.pos < level.values.size()) {
        DataId value = level.values[level.pos++];
        if (depth == 0 && claim && !claim()) continue;  // Another worker's.
        binding[order[depth]] = value;
        if (depth + 1 == static_cast<int>(order.size())) {
          Emit(out);
          return true;
        }
        ++depth;
        FillLevel(depth);
      } else {
        binding[order[depth]] = kNoDataId;
        --depth;
      }
    }
    done = true;
    return false;
  }
};

JoinCursor::JoinCursor(std::shared_ptr<const ReadView> view,
                       const std::vector<Triple>& patterns,
                       const VarAssignment& fixed, JoinStats* stats,
                       const std::vector<TermId>* var_order) {
  WDSPARQL_CHECK(view != nullptr);
  const ReadView& ref = *view;
  state_ = std::make_unique<State>(std::move(view), ref, fixed, stats);
  if (!state_->Setup(patterns, var_order)) state_->done = true;
}

JoinCursor::JoinCursor(const ReadView& view, const std::vector<Triple>& patterns,
                       const VarAssignment& fixed, JoinStats* stats,
                       const std::vector<TermId>* var_order)
    : state_(std::make_unique<State>(nullptr, view, fixed, stats)) {
  if (!state_->Setup(patterns, var_order)) state_->done = true;
}

JoinCursor::~JoinCursor() = default;
JoinCursor::JoinCursor(JoinCursor&&) noexcept = default;
JoinCursor& JoinCursor::operator=(JoinCursor&&) noexcept = default;

bool JoinCursor::Next(VarAssignment* out) { return state_->Next(out); }

void JoinCursor::SetRootClaim(std::function<bool()> claim) {
  state_->claim = std::move(claim);
}

void JoinEnumerate(const ReadView& store, const std::vector<Triple>& patterns,
                   const VarAssignment& fixed,
                   const std::function<bool(const VarAssignment&)>& callback,
                   JoinStats* stats) {
  JoinCursor cursor(store, patterns, fixed, stats);
  VarAssignment out;
  while (cursor.Next(&out)) {
    if (!callback(out)) return;
  }
}

bool JoinExists(const ReadView& store, const std::vector<Triple>& patterns,
                const VarAssignment& fixed, JoinStats* stats) {
  JoinCursor cursor(store, patterns, fixed, stats);
  VarAssignment out;
  return cursor.Next(&out);
}

}  // namespace wdsparql
