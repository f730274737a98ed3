#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/dictionary.h"
#include "engine/indexed_store.h"
#include "engine/join.h"
#include "hom/homomorphism.h"
#include "rdf/generator.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "sparql/well_designed.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

// ---------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------

TEST(DictionaryTest, RoundTripsEveryTermOfTheSet) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("b", "q", "c");
  Dictionary dict = Dictionary::Build(graph.triples());
  EXPECT_EQ(dict.size(), 5u);  // a, b, c, p, q.
  for (TermId t : graph.triples().AllTerms()) {
    DataId id = dict.Encode(t);
    ASSERT_NE(id, kNoDataId);
    EXPECT_EQ(dict.Decode(id), t);
  }
}

TEST(DictionaryTest, AbsentTermEncodesToNoId) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  TermId stranger = pool.InternIri("not-in-graph");
  Dictionary dict = Dictionary::Build(graph.triples());
  EXPECT_EQ(dict.Encode(stranger), kNoDataId);
}

TEST(DictionaryTest, EncodingPreservesTermOrder) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("c", "p", "a");
  graph.Insert("a", "q", "b");
  Dictionary dict = Dictionary::Build(graph.triples());
  for (std::size_t i = 1; i < dict.size(); ++i) {
    EXPECT_LT(dict.Decode(static_cast<DataId>(i - 1)), dict.Decode(static_cast<DataId>(i)));
  }
}

// ---------------------------------------------------------------------
// IndexedStore: permutation-range scans against the naive filter.
// ---------------------------------------------------------------------

class IndexedStoreScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexedStoreScanTest, EveryBoundMaskMatchesNaiveFilter) {
  TermPool pool;
  RdfGraph graph(&pool);
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_predicates = 3;
  options.num_triples = 120;
  options.seed = GetParam();
  GenerateRandomGraph(options, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  ASSERT_EQ(store.size(), graph.size());

  Rng rng(GetParam() ^ 0xabc);
  std::vector<Triple> all = graph.triples().triples();
  for (int trial = 0; trial < 40; ++trial) {
    // Bind a random subset of positions to terms of a random triple
    // (hit-heavy) or to arbitrary pool terms (miss-heavy).
    const Triple& base = all[rng.NextBounded(static_cast<uint32_t>(all.size()))];
    Triple probe(kAnyTerm, kAnyTerm, kAnyTerm);
    int mask = static_cast<int>(rng.NextBounded(8));
    for (int pos = 0; pos < 3; ++pos) {
      if ((mask >> pos) & 1) probe.Set(pos, base[pos]);
    }

    std::vector<Triple> expected;
    for (const Triple& t : all) {
      bool match = true;
      for (int pos = 0; pos < 3; ++pos) {
        if (probe[pos] != kAnyTerm && t[pos] != probe[pos]) match = false;
      }
      if (match) expected.push_back(t);
    }
    std::sort(expected.begin(), expected.end());

    std::vector<Triple> scanned;
    store.ScanPattern(probe, [&](const Triple& t) {
      scanned.push_back(t);
      return true;
    });
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(scanned, expected) << "mask=" << mask;

    // The range must be exact: no post-filtering means size equality.
    EncPattern enc;
    if (store.EncodeScanPattern(probe, &enc)) {
      EXPECT_EQ(store.Scan(enc).size(), expected.size());
    } else {
      EXPECT_TRUE(expected.empty());
    }
  }
}

TEST_P(IndexedStoreScanTest, AgreesWithHashSourceOnContainsAndAllTerms) {
  TermPool pool;
  RdfGraph graph(&pool);
  RandomGraphOptions options;
  options.num_nodes = 10;
  options.num_triples = 60;
  options.seed = GetParam() ^ 0x77;
  GenerateRandomGraph(options, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  HashTripleSource hash(graph.triples());

  EXPECT_EQ(store.AllTerms(), hash.AllTerms());
  EXPECT_EQ(store.size(), hash.size());
  Rng rng(GetParam());
  std::vector<TermId> terms = store.AllTerms();
  for (int trial = 0; trial < 50; ++trial) {
    Triple t(terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))],
             terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))],
             terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))]);
    EXPECT_EQ(store.Contains(t), hash.Contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedStoreScanTest, ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Join: differential against the CSP homomorphism solver.
// ---------------------------------------------------------------------

std::vector<Mapping> SortedMappings(const std::vector<VarAssignment>& assignments) {
  std::vector<Mapping> out;
  for (const VarAssignment& a : assignments) {
    Mapping mu;
    for (const auto& [var, value] : a) EXPECT_TRUE(mu.Bind(var, value));
    out.push_back(mu);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class JoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDifferentialTest, JoinMatchesHomomorphismEnumeration) {
  Rng rng(GetParam());
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());

  std::vector<TermId> nodes = graph.triples().Iris();
  for (int trial = 0; trial < 20; ++trial) {
    // Random conjunctive pattern over the graph's predicates.
    int num_vars = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<TermId> vars;
    for (int i = 0; i < num_vars; ++i) {
      vars.push_back(pool.InternVariable("j" + std::to_string(i)));
    }
    auto random_term = [&](bool allow_var) -> TermId {
      if (allow_var && rng.NextBounded(2) == 0) {
        return vars[rng.NextBounded(static_cast<uint32_t>(vars.size()))];
      }
      return nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
    };
    TripleSet pattern;
    int num_triples = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < num_triples; ++i) {
      pattern.Insert(
          Triple(random_term(true), random_term(true), random_term(true)));
    }
    VarAssignment fixed;
    if (rng.NextBounded(2) == 0) {
      fixed[vars[rng.NextBounded(static_cast<uint32_t>(vars.size()))]] =
          nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
    }

    std::vector<VarAssignment> join_results;
    JoinEnumerate(store.view(), pattern.triples(), fixed,
                  [&](const VarAssignment& a) {
                    join_results.push_back(a);
                    return true;
                  });
    std::vector<VarAssignment> hom_results;
    EnumerateHomomorphisms(pattern, fixed, graph.triples(),
                           [&](const VarAssignment& a) {
                             hom_results.push_back(a);
                             return true;
                           });
    EXPECT_EQ(SortedMappings(join_results), SortedMappings(hom_results))
        << "trial " << trial;
    EXPECT_EQ(JoinExists(store.view(), pattern.triples(), fixed), !hom_results.empty());
  }
}

// Every variable order, as a planner would inject it, over a view with
// and without live delta runs and tombstones. Each join level takes its
// values from the conjuncts that close there and probes the rest, so the
// orders exercise every mix of closing and open conjuncts per level —
// including levels below the root where nothing closes.
TEST_P(JoinDifferentialTest, EveryVariableOrderMatchesOverBaseAndDelta) {
  for (bool with_delta : {false, true}) {
    SCOPED_TRACE(with_delta ? "base + delta + tombstones" : "base only");
    Rng rng(GetParam() * 31 + (with_delta ? 1 : 0));
    TermPool pool;
    RdfGraph graph(&pool);
    testlib::SmallWorkloadGraph(&rng, 5, 30, 2, &graph);
    IndexedStore store = IndexedStore::Build(graph.triples());
    if (with_delta) {
      // Unmerged writes: fresh triples (one with a term the base never
      // saw) land in the delta runs, erased base triples become
      // tombstones. The oracle graph takes every drawn write; the store
      // gets their net effect as one batch (adds absent from the base,
      // removes present in it).
      store.set_merge_threshold(1u << 20);
      const TripleSet original = graph.triples();
      std::vector<TermId> terms = graph.triples().Iris();
      terms.push_back(pool.InternIri("fresh"));
      for (int i = 0; i < 12; ++i) {
        Triple t(terms[rng.NextBounded(terms.size())], terms[rng.NextBounded(terms.size())],
                 terms[rng.NextBounded(terms.size())]);
        graph.Insert(t);
      }
      std::vector<Triple> base = graph.triples().triples();
      for (int i = 0; i < 6; ++i) {
        const Triple t = base[rng.NextBounded(base.size())];
        graph.Remove(t);
      }
      std::vector<Triple> adds, removes;
      for (const Triple& t : graph.triples().triples()) {
        if (!original.Contains(t)) adds.push_back(t);
      }
      for (const Triple& t : original.triples()) {
        if (!graph.Contains(t)) removes.push_back(t);
      }
      store.ApplyBatch(adds, removes);
      ASSERT_GT(store.view().pending_delta(), 0u);
    }
    ASSERT_EQ(store.size(), graph.size());

    std::vector<TermId> nodes = graph.triples().Iris();
    for (int trial = 0; trial < 20; ++trial) {
      // Exactly k distinct variables, k = 1..5: each takes one random
      // position; the remaining positions are variables or graph terms.
      const int k = 1 + trial % 5;
      std::vector<TermId> vars;
      for (int i = 0; i < k; ++i) vars.push_back(pool.InternVariable("v" + std::to_string(i)));
      const int num_triples = (k + 1) / 2 + static_cast<int>(rng.NextBounded(2));
      std::vector<int> slots(3 * num_triples);
      for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = static_cast<int>(i);
      rng.Shuffle(slots);
      std::vector<TermId> terms(slots.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (i < vars.size()) {
          terms[slots[i]] = vars[i];
        } else if (rng.NextBounded(3) == 0) {
          terms[slots[i]] = vars[rng.NextBounded(vars.size())];
        } else {
          terms[slots[i]] = nodes[rng.NextBounded(nodes.size())];
        }
      }
      TripleSet pattern;
      for (int i = 0; i < num_triples; ++i) {
        pattern.Insert(Triple(terms[3 * i], terms[3 * i + 1], terms[3 * i + 2]));
      }
      if (trial % 2 == 1) {
        // A variable repeated inside one conjunct.
        TermId v = vars[rng.NextBounded(vars.size())];
        TermId c = nodes[rng.NextBounded(nodes.size())];
        pattern.Insert(rng.NextBounded(2) == 0 ? Triple(v, c, v) : Triple(v, v, c));
      }
      VarAssignment fixed;
      if (rng.NextBounded(3) == 0) {
        fixed[vars[rng.NextBounded(vars.size())]] = nodes[rng.NextBounded(nodes.size())];
      }

      std::vector<VarAssignment> hom_results;
      EnumerateHomomorphisms(pattern, fixed, graph.triples(), [&](const VarAssignment& a) {
        hom_results.push_back(a);
        return true;
      });
      const std::vector<Mapping> expected = SortedMappings(hom_results);
      EXPECT_EQ(JoinExists(store.view(), pattern.triples(), fixed), !hom_results.empty())
          << "trial " << trial;

      std::vector<TermId> order;
      for (TermId v : pattern.Variables()) {
        if (fixed.count(v) == 0) order.push_back(v);
      }
      std::sort(order.begin(), order.end());
      int orders = 0;
      do {
        JoinCursor cursor(store.view(), pattern.triples(), fixed, nullptr, &order);
        std::vector<VarAssignment> join_results;
        VarAssignment out;
        while (cursor.Next(&out)) join_results.push_back(out);
        EXPECT_EQ(SortedMappings(join_results), expected)
            << "trial " << trial << " order #" << orders;
        ++orders;
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
}

// Levels where two or three conjuncts close, over base runs, an unmerged
// delta and tombstones. The join drives such a level from the closing
// range that is smallest by `size_bound()`, which counts tombstoned base
// triples as live. Here most of hub's p-edges are tombstoned, so the
// bound ranks (hub p ?y) above (?y q b) although its live range is the
// smaller one: the driver differs from the one the live sizes would
// pick, and the answers must not.
TEST_P(JoinDifferentialTest, ClosingRangesRankedByBoundOverDeltaAndTombstones) {
  Rng rng(GetParam());
  TermPool pool;
  RdfGraph graph(&pool);
  auto iri = [&](const std::string& name) { return pool.InternIri(name); };
  auto y = [&](uint64_t i) { return iri("y" + std::to_string(i)); };
  const TermId hub = iri("hub"), p = iri("p"), p2 = iri("p2"), q = iri("q"),
               r = iri("r"), b = iri("b");
  constexpr int kY = 40;
  for (int i = 0; i < kY; ++i) {
    graph.Insert(Triple(hub, p, y(i)));
    if (i % 2 == 0) graph.Insert(Triple(y(i), q, b));
    if (rng.NextBounded(4) == 0) graph.Insert(Triple(hub, p2, y(i)));
    for (int e = 0; e < 2; ++e) {
      const TermId target = y(rng.NextBounded(kY));
      graph.Insert(Triple(y(i), r, target));
      if (rng.NextBounded(2) == 0) graph.Insert(Triple(target, r, y(i)));
    }
  }
  IndexedStore store = IndexedStore::Build(graph.triples());
  store.set_merge_threshold(1u << 20);

  // Tombstone 36 of hub's 40 p-edges and a few r-edges; the delta adds
  // p-edges to a fresh term and to odd y's, q-edges and r-edges.
  std::vector<Triple> adds, removes;
  std::vector<int> ys(kY);
  for (int i = 0; i < kY; ++i) ys[i] = i;
  rng.Shuffle(ys);
  for (int k = 0; k < 36; ++k) removes.emplace_back(hub, p, y(ys[k]));
  std::vector<Triple> r_edges;
  for (const Triple& t : graph.triples().triples()) {
    if (t.predicate == r) r_edges.push_back(t);
  }
  for (int k = 0; k < 4; ++k) removes.push_back(r_edges[rng.NextBounded(r_edges.size())]);
  const TermId fresh = iri("fresh");
  adds.emplace_back(hub, p, fresh);
  adds.emplace_back(fresh, q, b);
  adds.emplace_back(fresh, r, y(0));
  adds.emplace_back(y(0), r, fresh);
  adds.emplace_back(hub, p2, fresh);
  for (int k = 0; k < 3; ++k) {
    const TermId odd = y(2 * rng.NextBounded(kY / 2) + 1);
    adds.emplace_back(hub, p, odd);
    adds.emplace_back(odd, q, b);
  }
  std::sort(removes.begin(), removes.end());
  removes.erase(std::unique(removes.begin(), removes.end()), removes.end());
  std::vector<Triple> new_adds;
  for (const Triple& t : adds) {
    if (!graph.Contains(t) &&
        std::find(new_adds.begin(), new_adds.end(), t) == new_adds.end()) {
      new_adds.push_back(t);
    }
  }
  for (const Triple& t : removes) graph.Remove(t);
  for (const Triple& t : new_adds) graph.Insert(t);
  store.ApplyBatch(new_adds, removes);
  ASSERT_GT(store.view().pending_delta(), 0u);
  ASSERT_EQ(store.size(), graph.size());

  // The premise: the bound and the live size rank the two root ranges
  // of (hub p ?y) AND (?y q b) in opposite orders.
  EncPattern hub_p, q_b;
  ASSERT_TRUE(store.view().EncodeScanPattern(Triple(hub, p, kAnyTerm), &hub_p));
  ASSERT_TRUE(store.view().EncodeScanPattern(Triple(kAnyTerm, q, b), &q_b));
  const MergedScan hub_scan = store.view().Scan(hub_p);
  const MergedScan q_scan = store.view().Scan(q_b);
  ASSERT_GT(hub_scan.size_bound(), q_scan.size_bound());
  ASSERT_LT(hub_scan.size(), q_scan.size());

  const TermId vx = pool.InternVariable("x"), vy = pool.InternVariable("y"),
               vz = pool.InternVariable("z");
  const std::vector<std::vector<Triple>> queries = {
      {Triple(hub, p, vy), Triple(vy, q, b)},
      {Triple(vx, p, vy), Triple(vy, q, b), Triple(vx, p2, vy)},
      {Triple(hub, p, vy), Triple(vy, r, vz), Triple(vz, r, vy)},
      {Triple(hub, p, vy), Triple(vy, q, b), Triple(vy, r, vz), Triple(vz, q, b),
       Triple(hub, p, vz)},
  };
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    TripleSet pattern;
    for (const Triple& t : queries[qi]) pattern.Insert(t);
    std::vector<VarAssignment> hom_results;
    EnumerateHomomorphisms(pattern, VarAssignment{}, graph.triples(),
                           [&](const VarAssignment& a) {
                             hom_results.push_back(a);
                             return true;
                           });
    const std::vector<Mapping> expected = SortedMappings(hom_results);
    EXPECT_EQ(JoinExists(store.view(), pattern.triples(), VarAssignment{}),
              !hom_results.empty())
        << "query " << qi;
    std::vector<TermId> order = pattern.Variables();
    std::sort(order.begin(), order.end());
    int orders = 0;
    do {
      JoinCursor cursor(store.view(), pattern.triples(), VarAssignment{}, nullptr, &order);
      std::vector<VarAssignment> join_results;
      VarAssignment out;
      while (cursor.Next(&out)) join_results.push_back(out);
      EXPECT_EQ(SortedMappings(join_results), expected)
          << "query " << qi << " order #" << orders;
      ++orders;
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDifferentialTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Database/Session front door: backends must agree byte for byte.
// ---------------------------------------------------------------------

TEST(EngineSessionTest, PrepareRejectsSyntaxErrors) {
  TermPool pool;
  Database db(&pool);
  db.AddTriple("a", "p", "b");
  EXPECT_EQ(ParsePattern("((?x p", &pool).status().code(),
            StatusCode::kInvalidArgument);
  Statement stmt = db.OpenSession().Prepare("((?x p");
  EXPECT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.diagnostics().code, QueryDiagnostics::Code::kParseError);
}

TEST(EngineSessionTest, PrepareRejectsNonWellDesignedPatterns) {
  TermPool pool;
  Database db(&pool);
  db.AddTriple("a", "p", "b");
  // ?y occurs in the OPT right side and outside the OPT, but not in the
  // left side: the classic non-well-designed shape.
  const char* text = "((?x p ?x) OPT (?x q ?y)) AND (?y p ?y)";
  Result<PatternPtr> parsed = ParsePattern(text, &pool);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(CheckWellDesigned(parsed.value(), pool).code(),
            StatusCode::kNotWellDesigned);
  Statement stmt = db.OpenSession().Prepare(text);
  EXPECT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.diagnostics().code, QueryDiagnostics::Code::kNotWellDesigned);
}

TEST(EngineSessionTest, SimpleOptQueryOnBothBackends) {
  TermPool pool;
  Database db(&pool);
  db.AddTriple("alice", "knows", "bob");
  db.AddTriple("bob", "knows", "carol");
  db.AddTriple("bob", "email", "bob-at-example");
  for (Backend backend : {Backend::kNaiveHash, Backend::kIndexed}) {
    SessionOptions options;
    options.backend = backend;
    Statement stmt =
        db.OpenSession(options).Prepare("(?x knows ?y) OPT (?y email ?e)");
    ASSERT_TRUE(stmt.ok()) << BackendToString(backend);
    std::vector<Mapping> answers = stmt.Solutions();
    ASSERT_EQ(answers.size(), 2u) << BackendToString(backend);
    EXPECT_EQ(stmt.Count(), 2u);
    for (const Mapping& mu : answers) {
      EXPECT_TRUE(stmt.Contains(mu)) << BackendToString(backend);
    }
    EXPECT_FALSE(
        stmt.Contains(testlib::MakeMapping(&pool, {{"x", "carol"}, {"y", "alice"}})));
  }
}

class BackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferentialTest, BackendsProduceIdenticalVerdictsAndSolutions) {
  Rng rng(GetParam());
  TermPool pool;
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 16, 3, &graph);
  Database db(&pool);
  testlib::LoadGraph(graph, &db);

  SessionOptions naive_options;
  naive_options.backend = Backend::kNaiveHash;
  Statement naive_q = db.OpenSession(naive_options).PrepareParsed(pattern);
  SessionOptions indexed_options;
  indexed_options.backend = Backend::kIndexed;
  Statement indexed_q = db.OpenSession(indexed_options).PrepareParsed(pattern);
  ASSERT_TRUE(naive_q.ok());
  ASSERT_TRUE(indexed_q.ok());

  // Identical enumerated solution sets (both sorted + deduplicated).
  std::vector<Mapping> naive_solutions = naive_q.Solutions();
  std::vector<Mapping> indexed_solutions = indexed_q.Solutions();
  EXPECT_EQ(naive_solutions, indexed_solutions);

  // Both must equal the compositional set semantics.
  EXPECT_EQ(naive_solutions, Evaluate(*pattern, graph));

  // Identical wdEVAL membership verdicts on answers and near-misses.
  Rng probe_rng(GetParam() ^ 0xfeed);
  for (const Mapping& probe : testlib::MembershipProbes(pattern, graph, &probe_rng, 8)) {
    EXPECT_EQ(naive_q.Contains(probe), indexed_q.Contains(probe))
        << probe.ToString(pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace wdsparql
