#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the observability layer (wdsparql/stats.h,
/// wdsparql/metrics.h): exact `ExecStats` counter differentials on known
/// graphs (both backends), the null disabled path, stats stability under
/// snapshot reads, `ApplyResult` commit facts, and — under the TSan CI
/// job — `MetricsRegistry` merge correctness with many concurrent
/// collecting cursors.

namespace wdsparql {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wdsparql_stats_" + name;
}

/// Starts every test from a clean slate: stale snapshot/WAL files from
/// a previous run must not leak state across runs.
std::string FreshPath(const std::string& name) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

Database MakeSmallDatabase() {
  Database db;
  db.AddTriple("alice", "knows", "bob");
  db.AddTriple("bob", "knows", "carol");
  db.AddTriple("bob", "email", "bob-at-example");
  return db;
}

ExecOptions Collecting() {
  ExecOptions options;
  options.collect_stats = true;
  return options;
}

// ---------------------------------------------------------------------
// Disabled path
// ---------------------------------------------------------------------

TEST(ExecStatsTest, NullUnlessRequested) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());

  Cursor off = stmt.Execute();
  EXPECT_EQ(off.stats(), nullptr);
  while (off.Next()) {
  }
  EXPECT_EQ(off.stats(), nullptr);  // Stays null after exhaustion.

  // The two modes coexist per execution, not per statement.
  Cursor on = stmt.Execute(Collecting());
  EXPECT_NE(on.stats(), nullptr);
}

// ---------------------------------------------------------------------
// Exact differentials on a known graph, both backends
// ---------------------------------------------------------------------

TEST(ExecStatsTest, ExactCountersOnSingleTriplePattern) {
  for (Backend backend : {Backend::kIndexed, Backend::kNaiveHash}) {
    SCOPED_TRACE(BackendToString(backend));
    Database db = MakeSmallDatabase();
    SessionOptions options;
    options.backend = backend;
    Statement stmt = db.OpenSession(options).Prepare("(?x knows ?y)");
    ASSERT_TRUE(stmt.ok());

    Cursor cursor = stmt.Execute(Collecting());
    uint64_t rows = 0;
    while (cursor.Next()) ++rows;
    ASSERT_EQ(cursor.state(), Cursor::State::kExhausted);
    ASSERT_EQ(rows, 2u);

    const ExecStats* stats = cursor.stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->backend, BackendToString(backend));
    EXPECT_EQ(stats->rows_emitted, 2u);
    EXPECT_EQ(stats->rows_emitted, cursor.rows());
    // A single triple pattern: one subtree, two matches, nothing to
    // deduplicate, no children so no maximality certificates.
    EXPECT_EQ(stats->candidates, 2u);
    EXPECT_EQ(stats->dedup_rejected, 0u);
    EXPECT_EQ(stats->non_maximal, 0u);
    EXPECT_EQ(stats->maximality_tests, 0u);
    EXPECT_EQ(stats->filtered_out, 0u);
    ASSERT_EQ(stats->subpatterns.size(), 1u);
    EXPECT_EQ(stats->subpatterns[0].candidates, 2u);
    EXPECT_EQ(stats->subpatterns[0].rows, 2u);
    EXPECT_NE(stats->subpatterns[0].pattern.find("knows"), std::string::npos);

    if (backend == Backend::kIndexed) {
      // The join layer scanned at least one permutation range and
      // resolved the emitted bindings through the dictionary.
      EXPECT_GT(stats->ranges_scanned, 0u);
      EXPECT_GT(stats->dict_encodes, 0u);
      EXPECT_GT(stats->dict_decodes, 0u);
      EXPECT_GE(stats->base_triples_scanned + stats->delta_triples_scanned,
                stats->candidates);
    } else {
      // The naive oracle never touches the permutation store.
      EXPECT_EQ(stats->ranges_scanned, 0u);
      EXPECT_EQ(stats->dict_encodes, 0u);
      EXPECT_EQ(stats->base_triples_scanned, 0u);
    }

    // Renderings: the text tree names the backend and the subpattern;
    // the JSON rendering is one object.
    std::string text = stats->ToText();
    EXPECT_NE(text.find(BackendToString(backend)), std::string::npos);
    EXPECT_NE(text.find("knows"), std::string::npos);
    std::string json = stats->ToJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"rows_emitted\":2"), std::string::npos);
  }
}

TEST(ExecStatsTest, OptionalPatternRunsMaximalityCertificates) {
  for (Backend backend : {Backend::kIndexed, Backend::kNaiveHash}) {
    SCOPED_TRACE(BackendToString(backend));
    Database db = MakeSmallDatabase();
    SessionOptions options;
    options.backend = backend;
    Statement stmt =
        db.OpenSession(options).Prepare("(?x knows ?y) OPT (?y email ?e)");
    ASSERT_TRUE(stmt.ok());

    Cursor cursor = stmt.Execute(Collecting());
    uint64_t rows = 0;
    while (cursor.Next()) ++rows;
    // alice-knows-bob extends (bob has email); bob-knows-carol does not.
    ASSERT_EQ(rows, 2u);

    const ExecStats* stats = cursor.stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->rows_emitted, 2u);
    EXPECT_GT(stats->maximality_tests, 0u);
    EXPECT_GT(stats->non_maximal, 0u);

    // Per-subpattern entries sum to the totals they break down.
    uint64_t candidates = 0, dedup = 0, non_maximal = 0, tests = 0, sub_rows = 0;
    for (const ExecStats::Subpattern& sub : stats->subpatterns) {
      candidates += sub.candidates;
      dedup += sub.dedup_rejected;
      non_maximal += sub.non_maximal;
      tests += sub.maximality_tests;
      sub_rows += sub.rows;
    }
    EXPECT_EQ(candidates, stats->candidates);
    EXPECT_EQ(dedup, stats->dedup_rejected);
    EXPECT_EQ(non_maximal, stats->non_maximal);
    EXPECT_EQ(tests, stats->maximality_tests);
    EXPECT_EQ(sub_rows, stats->rows_emitted);
  }
}

TEST(ExecStatsTest, BackendsAgreeOnEnumerationTotals) {
  // The two backends share the enumeration skeleton, so the *logical*
  // counters (candidates, rows, rejections) must match exactly; only the
  // storage counters differ.
  ExecStats collected[2];
  int i = 0;
  for (Backend backend : {Backend::kIndexed, Backend::kNaiveHash}) {
    Database db = MakeSmallDatabase();
    SessionOptions options;
    options.backend = backend;
    Statement stmt =
        db.OpenSession(options).Prepare("(?x knows ?y) OPT (?y email ?e)");
    ASSERT_TRUE(stmt.ok());
    Cursor cursor = stmt.Execute(Collecting());
    while (cursor.Next()) {
    }
    ASSERT_NE(cursor.stats(), nullptr);
    collected[i++] = *cursor.stats();  // Plain value: copyable.
  }
  EXPECT_EQ(collected[0].rows_emitted, collected[1].rows_emitted);
  EXPECT_EQ(collected[0].candidates, collected[1].candidates);
  EXPECT_EQ(collected[0].dedup_rejected, collected[1].dedup_rejected);
  EXPECT_EQ(collected[0].non_maximal, collected[1].non_maximal);
  EXPECT_EQ(collected[0].maximality_tests, collected[1].maximality_tests);
  EXPECT_EQ(collected[0].subpatterns.size(), collected[1].subpatterns.size());
}

TEST(ExecStatsTest, CertificatesEncodeOnlyTheChildPattern) {
  // The bundled examples/data/mini.nt graph. Each maximality certificate
  // joins the child pattern alone: (bob email ?e) encodes two terms, not
  // the subtree's ground (alice knows bob) as well.
  Database db;
  for (const auto& [s, p, o] : std::vector<std::array<const char*, 3>>{
           {"alice", "knows", "bob"},
           {"alice", "knows", "carol"},
           {"bob", "knows", "carol"},
           {"carol", "knows", "dave"},
           {"dave", "knows", "alice"},
           {"bob", "email", "mailto:bob@example.org"},
           {"carol", "email", "mailto:carol@example.org"},
           {"carol", "phone", "tel:555-0100"},
           {"dave", "worksAt", "acme"},
           {"alice", "worksAt", "initech"},
           {"bob", "worksAt", "acme"}}) {
    db.AddTriple(s, p, o);
  }
  SessionOptions options;
  options.backend = Backend::kIndexed;
  Statement stmt =
      db.OpenSession(options).Prepare("(?x knows ?y) OPT (?y email ?e)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute(Collecting());
  while (cursor.Next()) {
  }
  const ExecStats* stats = cursor.stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows_emitted, 5u);
  EXPECT_EQ(stats->candidates, 8u);
  EXPECT_EQ(stats->maximality_tests, 5u);
  EXPECT_EQ(stats->non_maximal, 3u);
  EXPECT_EQ(stats->dict_encodes, 13u);
}

TEST(ExecStatsTest, FiltersAndProjectionCounted) {
  Database db = MakeSmallDatabase();
  db.AddTriple("bob", "knows", "bob");  // The self-loop the filter drops.
  Statement stmt =
      db.OpenSession().Prepare("((?x knows ?y)) FILTER (?x != ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute(Collecting());
  uint64_t rows = 0;
  while (cursor.Next()) ++rows;
  EXPECT_EQ(rows, 2u);  // alice->bob, bob->carol survive; bob->bob dropped.
  const ExecStats* stats = cursor.stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows_emitted, rows);
  EXPECT_EQ(stats->filtered_out, 1u);

  // Projecting the surviving rows onto ?x collapses nothing here, so
  // add a second alice-edge: {alice, alice, bob} dedups to {alice, bob}.
  db.AddTriple("alice", "knows", "carol");
  Statement stmt2 =
      db.OpenSession().Prepare("((?x knows ?y)) FILTER (?x != ?y)");
  ASSERT_TRUE(stmt2.ok());
  Cursor projected = stmt2.Execute({"?x"}, Collecting());
  uint64_t projected_rows = 0;
  while (projected.Next()) ++projected_rows;
  EXPECT_EQ(projected_rows, 2u);
  ASSERT_NE(projected.stats(), nullptr);
  EXPECT_EQ(projected.stats()->rows_emitted, projected_rows);
  EXPECT_EQ(projected.stats()->projection_dedup_rejected, 1u);
}

// ---------------------------------------------------------------------
// Stability across snapshot reads
// ---------------------------------------------------------------------

TEST(ExecStatsTest, SnapshotBoundExecutionIsUndisturbedByWrites) {
  Database db = MakeSmallDatabase();
  Snapshot snapshot = db.GetSnapshot();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());

  Cursor cursor = stmt.Execute(snapshot, Collecting());
  ASSERT_TRUE(cursor.Next());
  // Mutate mid-enumeration: the snapshot-bound cursor keeps reading its
  // pinned view and its stats describe exactly that execution.
  ASSERT_TRUE(db.AddTriple("dave", "knows", "erin"));
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  ASSERT_EQ(cursor.state(), Cursor::State::kExhausted);
  EXPECT_EQ(rows, 2u);  // The snapshot has two knows-edges, not three.
  const ExecStats* stats = cursor.stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows_emitted, 2u);
  EXPECT_EQ(stats->candidates, 2u);
}

// ---------------------------------------------------------------------
// Phase timers
// ---------------------------------------------------------------------

TEST(ExecStatsTest, PhaseTimersArePopulated) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute(Collecting());
  while (cursor.Next()) {
  }
  const ExecStats* stats = cursor.stats();
  ASSERT_NE(stats, nullptr);
  // Parse/check ran on real text, and the cursor pulled rows; steady
  // clocks at nanosecond granularity make zero readings implausible but
  // not impossible — accept zero only for plan (tiny pattern).
  EXPECT_GT(stats->parse_ns + stats->check_ns + stats->plan_ns, 0u);
  EXPECT_GT(stats->enumerate_ns, 0u);
}

// ---------------------------------------------------------------------
// ApplyResult commit facts
// ---------------------------------------------------------------------

TEST(ApplyResultTest, ReportsNetOpsAndPublishes) {
  Database db;
  WriteBatch batch;
  batch.Add("a", "p", "b");
  batch.Add("c", "p", "d");
  batch.Add("a", "p", "b");  // Duplicate inside the batch: nets out.
  ApplyResult result;
  ASSERT_TRUE(db.Apply(std::move(batch), &result).ok());
  EXPECT_EQ(result.added, 2u);
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(result.net_ops(), 2u);
  EXPECT_EQ(result.publishes, 1u);  // One delta build, one publish.
  EXPECT_EQ(result.wal_bytes, 0u);  // No WAL on an in-memory database.
  EXPECT_EQ(result.wal_groups, 0u);

  // A no-op batch reports all-zero facts.
  WriteBatch noop;
  noop.Add("a", "p", "b");
  ApplyResult noop_result;
  ASSERT_TRUE(db.Apply(std::move(noop), &noop_result).ok());
  EXPECT_EQ(noop_result.net_ops(), 0u);
  EXPECT_EQ(noop_result.publishes, 0u);
}

TEST(ApplyResultTest, ReportsWalBytesAndGroups) {
  std::string path = FreshPath("apply_facts.snap");
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;
  Result<Database> opened = Database::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database db = std::move(opened).value();

  WriteBatch batch;
  batch.Add("a", "p", "b");
  batch.Add("c", "p", "d");
  ApplyResult result;
  ASSERT_TRUE(db.Apply(std::move(batch), &result).ok());
  EXPECT_EQ(result.net_ops(), 2u);
  EXPECT_EQ(result.wal_groups, 1u);  // One group frame for the batch.
  EXPECT_GT(result.wal_bytes, 0u);

  // The registry saw the same commit.
  EXPECT_EQ(db.metrics().counter("write.commits").value(), 1u);
  EXPECT_EQ(db.metrics().counter("write.wal_groups").value(), 1u);
  EXPECT_EQ(db.metrics().counter("write.wal_bytes").value(), result.wal_bytes);
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAndDump) {
  MetricsRegistry registry;
  registry.counter("c").Add(3);
  registry.counter("c").Add(2);
  registry.gauge("g").Set(7);
  registry.gauge("g").Add(-2);
  registry.histogram("h").Observe(0);
  registry.histogram("h").Observe(5);
  registry.histogram("h").Observe(1000);

  EXPECT_EQ(registry.counter("c").value(), 5u);
  EXPECT_EQ(registry.gauge("g").value(), 5);
  EXPECT_EQ(registry.histogram("h").count(), 3u);
  EXPECT_EQ(registry.histogram("h").sum(), 1005u);
  EXPECT_EQ(registry.histogram("h").max(), 1000u);

  std::string text = registry.Dump(MetricsFormat::kText);
  EXPECT_NE(text.find("c counter 5"), std::string::npos);
  EXPECT_NE(text.find("g gauge 5"), std::string::npos);
  EXPECT_NE(text.find("h histogram"), std::string::npos);

  std::string json = registry.Dump(MetricsFormat::kJson);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  // Bucket i counts samples of i significant bits.
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  Histogram h;
  h.Observe(3);
  EXPECT_EQ(h.bucket(2), 1u);
}

TEST(MetricsRegistryTest, HistogramQuantilesInterpolate) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // Empty: no mass anywhere.
  // 100 zeros: every quantile sits in bucket 0, which holds only 0.
  for (int i = 0; i < 100; ++i) h.Observe(0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);

  Histogram spread;
  // 90 samples in bucket [1,2), 10 in [1024,2048): p50 interpolates
  // inside the low bucket, p99 inside the high one.
  for (int i = 0; i < 90; ++i) spread.Observe(1);
  for (int i = 0; i < 10; ++i) spread.Observe(1500);
  EXPECT_GE(spread.Quantile(0.5), 1.0);
  EXPECT_LE(spread.Quantile(0.5), 2.0);
  double p99 = spread.Quantile(0.99);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 2048.0);
  // Monotone in q.
  EXPECT_LE(spread.Quantile(0.5), spread.Quantile(0.95));
  EXPECT_LE(spread.Quantile(0.95), spread.Quantile(0.99));
}

TEST(MetricsRegistryTest, DumpsCarryQuantiles) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) registry.histogram("h").Observe(8);

  std::string text = registry.Dump(MetricsFormat::kText);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);

  std::string json = registry.Dump(MetricsFormat::kJson);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("server.requests").Add(5);
  registry.gauge("server.inflight").Set(2);
  registry.histogram("request.ns").Observe(0);
  registry.histogram("request.ns").Observe(5);
  registry.histogram("request.ns").Observe(1000);

  std::string prom = registry.Dump(MetricsFormat::kPrometheus);
  // Dots sanitised to underscores; one # TYPE line per instrument.
  EXPECT_NE(prom.find("# TYPE server_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("server_requests 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE server_inflight gauge"), std::string::npos);
  EXPECT_NE(prom.find("server_inflight 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE request_ns histogram"), std::string::npos);
  // Cumulative buckets: le="0" holds the zero sample; le="7" (bucket of
  // 5) adds the second; +Inf carries all three, agreeing with _count.
  EXPECT_NE(prom.find("request_ns_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("request_ns_bucket{le=\"7\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("request_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("request_ns_sum 1005"), std::string::npos);
  EXPECT_NE(prom.find("request_ns_count 3"), std::string::npos);

  // Every non-comment line is "name{labels}? value": tokenises to
  // exactly two space-separated fields.
  std::size_t start = 0;
  while (start < prom.size()) {
    std::size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t spaces = std::count(line.begin(), line.end(), ' ');
    EXPECT_EQ(spaces, 1u) << "malformed exposition line: " << line;
  }
}

TEST(MetricsRegistryTest, DatabaseTracksViewLifecycleAndQueries) {
  Database db = MakeSmallDatabase();
  // Every publish since the registry attached carries a lifetime token;
  // with no reader pins only the latest view is alive.
  EXPECT_EQ(db.metrics().gauge("views.live").value(), 1);
  {
    Snapshot pinned = db.GetSnapshot();
    ASSERT_TRUE(db.AddTriple("dave", "knows", "erin"));
    EXPECT_EQ(db.metrics().gauge("views.live").value(), 2);
  }
  // Dropping the snapshot releases the superseded view (and its token).
  ASSERT_TRUE(db.AddTriple("erin", "knows", "frank"));
  EXPECT_EQ(db.metrics().gauge("views.live").value(), 1);

  // Cursor totals merge at finish — even without collect_stats.
  uint64_t rows_before = db.metrics().counter("query.rows_emitted").value();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  uint64_t rows = 0;
  {
    Cursor cursor = stmt.Execute();
    while (cursor.Next()) ++rows;
  }
  EXPECT_EQ(rows, 4u);
  EXPECT_EQ(db.metrics().counter("query.rows_emitted").value(), rows_before + rows);
  EXPECT_GT(db.metrics().counter("query.cursors_opened").value(), 0u);
}

TEST(MetricsRegistryTest, AbandonedCursorStillMergesOnce) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  uint64_t before = db.metrics().counter("query.rows_emitted").value();
  {
    Cursor cursor = stmt.Execute(Collecting());
    ASSERT_TRUE(cursor.Next());
    cursor.Close();  // Merge happens here...
  }                  // ...and the destructor must not double-count.
  EXPECT_EQ(db.metrics().counter("query.rows_emitted").value(), before + 1);
}

TEST(MetricsRegistryTest, MergeIsCorrectUnderConcurrentCursors) {
  // The TSan job runs this file: many threads drive collecting cursors
  // against one database while a writer commits batches. Counter merges
  // happen at cursor finish; the final registry totals must equal the
  // sum of per-cursor rows exactly (no lost updates, no data races).
  Database db = MakeSmallDatabase();

  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  uint64_t rows_before = db.metrics().counter("query.rows_emitted").value();
  std::atomic<uint64_t> rows_total{0};
  std::atomic<bool> stop{false};

  std::thread writer([&db, &stop]() {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      WriteBatch batch;
      std::string node = "w" + std::to_string(i++);
      batch.Add(node, "p", node);
      EXPECT_TRUE(db.Apply(std::move(batch)).ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&db, &rows_total]() {
      Session session = db.OpenSession();
      Statement stmt = session.Prepare("(?x knows ?y)");
      ASSERT_TRUE(stmt.ok());
      uint64_t mine = 0;
      for (int i = 0; i < kIterations; ++i) {
        Cursor cursor = stmt.Execute(Collecting());
        while (cursor.Next()) ++mine;
        const ExecStats* stats = cursor.stats();
        ASSERT_NE(stats, nullptr);
      }
      rows_total.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(db.metrics().counter("query.rows_emitted").value(),
            rows_before + rows_total.load());
  EXPECT_GE(db.metrics().counter("query.cursors_opened").value(),
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_GT(db.metrics().counter("write.commits").value(), 0u);
}

}  // namespace
}  // namespace wdsparql
