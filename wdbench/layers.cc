#include "layers.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "sparql/well_designed.h"

namespace wdbench {

using namespace wdsparql;

namespace {

// Per-layer metrics, in report order, with their units. Each names the
// module whose public calls it times or counts.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"server.handle_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.overhead_frac", "fraction"},
    {"server.cpu_ms_per_req", "ms"},
    {"sparql.parse_us", "us"},
    {"sparql.check_us", "us"},
    {"ptree.forest_us", "us"},
    {"ptree.subtrees", "count"},
    {"engine.prepare_us", "us"},
    {"optimizer.plan_us", "us"},
    {"optimizer.q_error", "ratio"},
    {"engine.exec_ms", "ms"},
    {"engine.exec_default_ms", "ms"},
    {"engine.parallel_speedup", "ratio"},
    {"engine.cpu_util", "ratio"},
    {"engine.first_row_us", "us"},
    {"engine.scanned_per_row", "count"},
    {"engine.candidates_per_row", "count"},
    {"engine.dict_encodes_per_row", "count"},
    {"engine.dict_decodes_per_row", "count"},
    {"wd.maximality_tests_per_row", "count"},
    {"wd.join_maximality_tests_per_row", "count"},
    {"wd.non_maximal_frac", "fraction"},
    {"wd.dedup_rejected_frac", "fraction"},
    {"wd.contains_us", "us"},
    {"storage.wal_append_us", "us"},
    {"storage.delta_build_ms", "ms"},
    {"storage.compaction_ms", "ms"},
    {"storage.compactions_per_100k", "count"},
    {"storage.wal_bytes_per_triple", "bytes"},
    {"storage.snapshot_bytes_per_triple", "bytes"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.open_ms", "ms"},
    {"rdf.parse_us_per_1k", "us"},
    {"trace.main_p50_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.opt_p50_ms", "ms"},
    {"trace.join_p50_ms", "ms"},
    {"trace.commit_p99_ms", "ms"},
    {"trace.reopen_ms", "ms"},
};

std::string Ratio(double num, double den) {
  return std::to_string(den == 0 ? 0 : num / den);
}

}  // namespace

bool TimedSetup(const std::string& ntriples, const std::string& path, bool serve,
                Served* out, std::vector<double>* setup_s, std::string* error) {
  for (int round = 0; round < kSetups; ++round) {
    if (out->server) out->server->Stop();
    out->server.reset();
    out->db.reset();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());

    int64_t start = NowNs();
    auto loaded = std::make_unique<Database>();
    Status status = loaded->LoadNTriples(ntriples);
    if (status.ok()) status = loaded->Save(path);
    if (!status.ok()) {
      *error = "load/save: " + status.ToString();
      return false;
    }
    loaded.reset();
    OpenOptions open;
    open.durability = Durability::kWal;
    open.wal_sync = WalSyncMode::kNone;
    int64_t open_start = NowNs();
    Result<Database> opened = Database::Open(path, open);
    if (!opened.ok()) {
      *error = "open: " + opened.status().ToString();
      return false;
    }
    out->open_ms = Ms(NowNs() - open_start);
    out->db = std::make_unique<Database>(std::move(opened).value());
    if (serve) {
      server::ServerOptions options;
      options.quiet = true;
      out->server = std::make_unique<server::Server>(out->db.get(), options);
      status = out->server->Start();
      if (!status.ok()) {
        *error = "server start: " + status.ToString();
        return false;
      }
    }
    setup_s->push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  out->snapshot_path = path;
  return true;
}

bool CheckTemplatesAgainstOracle(uint64_t seed, bool analytic, std::string* error) {
  // 1,500 people over the same 1,000 city ranks: city c40 has a handful
  // of residents, which keeps the oracle's naive search short.
  SocialGraph small = GenerateSocialGraph(seed ^ 0x0dd5eedull, 1500, 1000);
  Database db;
  Status status = db.LoadNTriples(small.ntriples);
  if (!status.ok()) {
    *error = "oracle graph: " + status.ToString();
    return false;
  }
  Snapshot snapshot = db.GetSnapshot();
  std::vector<std::string> queries;
  for (int rank : {0, 10, 500}) queries.push_back(PointQuery(small.popularity[rank]));
  if (analytic) {
    for (const AnalyticQuery& q : AnalyticTemplates(40)) queries.push_back(q.text);
  }
  for (const std::string& q : queries) {
    if (!CheckAgainstOracle(db, q, snapshot, error)) return false;
  }
  return true;
}

bool RecordShape(const std::string& name, const std::string& text,
                 RunReport* report, std::string* error) {
  QueryShape shape = ValidateQuery(text);
  report->context["query." + name] =
      "{\"well_designed\":" + std::string(shape.well_designed ? "true" : "false") +
      ",\"dw\":" + std::to_string(shape.domination_width) +
      ",\"trees\":" + std::to_string(shape.trees) +
      ",\"subtrees\":" + std::to_string(static_cast<long long>(shape.subtrees)) +
      "}";
  if (!shape.well_designed || shape.domination_width < 1 ||
      shape.domination_width > 2) {
    *error = "query " + name + " is outside the tractable class (dw <= 2): " +
             (shape.error.empty() ? "dw " + std::to_string(shape.domination_width)
                                  : shape.error);
    return false;
  }
  return true;
}

void InitPerLayer(RunReport* report) {
  for (const auto& [name, unit] : kPerLayer) report->per_layer[name] = {0.0, unit};
}

void SetLayer(RunReport* report, const std::string& name, double value) {
  auto it = report->per_layer.find(name);
  if (it != report->per_layer.end()) it->second.value = value;
}

bool ReplayQuery(const Database& db, const Snapshot& snapshot,
                 const std::string& text, const AnswerDigest& expected,
                 SpanLog& spans, uint64_t request, ReplayTotals* acc,
                 std::string* error) {
  ScopedSpan root(spans, "replay", 0, request);
  TermPool& pool = db.pool();
  int64_t t = NowNs();
  uint32_t id = spans.Begin("sparql.parse", root.id(), request);
  Result<PatternPtr> parsed = ParsePattern(text, &pool);
  spans.End(id);
  acc->parse_ns.push_back(static_cast<double>(NowNs() - t));
  if (!parsed.ok()) {
    *error = "replay parse: " + parsed.status().ToString();
    return false;
  }
  t = NowNs();
  id = spans.Begin("sparql.check", root.id(), request);
  Status wd = CheckWellDesigned(parsed.value(), pool);
  spans.End(id);
  acc->check_ns.push_back(static_cast<double>(NowNs() - t));
  t = NowNs();
  id = spans.Begin("ptree.forest", root.id(), request);
  Result<PatternForest> forest = BuildPatternForest(parsed.value(), pool);
  spans.End(id);
  acc->forest_ns.push_back(static_cast<double>(NowNs() - t));
  if (!wd.ok() || !forest.ok()) {
    *error = "replay: not well designed: " + text;
    return false;
  }
  for (const PatternTree& tree : forest.value().trees) {
    acc->subtrees += CountSubtrees(tree);
  }

  t = NowNs();
  id = spans.Begin("engine.prepare", root.id(), request);
  Statement stmt = db.OpenSession().Prepare(text);
  spans.End(id);
  acc->prepare_ns.push_back(static_cast<double>(NowNs() - t));
  if (!stmt.ok()) {
    *error = "replay prepare: " + stmt.diagnostics().ToString();
    return false;
  }

  // ExecStats come from an untimed serial run, which also warms the
  // caches; the timed serial and default-parallel runs that follow both
  // run without stats, so their ratio is the fan-out's effect alone.
  LocalAnswer stats = RunLocal(stmt, snapshot, 0, true);
  id = spans.Begin("engine.exec", root.id(), request);
  LocalAnswer serial = RunLocal(stmt, snapshot, 0, false);
  spans.End(id);
  double cpu0 = ProcessCpuSeconds();
  int64_t wall0 = NowNs();
  id = spans.Begin("engine.exec_default", root.id(), request);
  LocalAnswer fanned = RunLocal(stmt, snapshot, ServerDefaultParallelism(), false);
  spans.End(id);
  acc->default_wall_s += static_cast<double>(NowNs() - wall0) / 1e9;
  acc->default_cpu_s += ProcessCpuSeconds() - cpu0;
  if (!stats.ok || !serial.ok || !fanned.ok || stats.digest != expected ||
      serial.digest != expected || fanned.digest != expected) {
    *error = "replay answer differs from the expected answer: " + text;
    return false;
  }
  acc->exec_ns.push_back(static_cast<double>(serial.total_ns));
  acc->exec_default_ns.push_back(static_cast<double>(fanned.total_ns));
  if (serial.first_row_ns > 0) {
    acc->first_row_ns.push_back(static_cast<double>(serial.first_row_ns));
  }
  const ExecStats& s = stats.stats;
  acc->plan_ns.push_back(static_cast<double>(s.optimize_ns));
  for (const ExecStats::Subpattern& sp : s.subpatterns) {
    if (sp.est_rows < 0) continue;
    double est = std::max(1.0, sp.est_rows);
    double actual = std::max(1.0, static_cast<double>(sp.candidates));
    acc->q_errors.push_back(std::max(est / actual, actual / est));
  }
  acc->rows += static_cast<double>(s.rows_emitted);
  acc->scanned += static_cast<double>(s.base_triples_scanned + s.delta_triples_scanned);
  acc->candidates += static_cast<double>(s.candidates);
  acc->encodes += static_cast<double>(s.dict_encodes);
  acc->decodes += static_cast<double>(s.dict_decodes);
  acc->maximality_tests += static_cast<double>(s.maximality_tests);
  acc->non_maximal += static_cast<double>(s.non_maximal);
  acc->dedup_rejected += static_cast<double>(s.dedup_rejected);
  ++acc->queries;
  return true;
}

bool ReplayContains(const Database& db, const Snapshot& snapshot,
                    const std::string& text, SpanLog& spans, uint64_t request,
                    std::vector<double>* contains_us, std::string* error) {
  Statement stmt = db.OpenSession().Prepare(text);
  LocalAnswer answer = RunLocal(stmt, snapshot, 0, false, true);
  if (!answer.ok) {
    *error = "in-process run failed: " + text;
    return false;
  }
  if (answer.rows.empty()) return true;
  const std::vector<std::string>& row = answer.rows[0];
  const std::vector<std::string>& vars = stmt.variables();
  auto probe = [&](std::size_t columns, bool truth) {
    Mapping mu;
    for (std::size_t c = 0; c < columns; ++c) {
      if (row[c].empty()) continue;
      std::optional<TermId> var = db.pool().FindVariable(vars[c].substr(1));
      std::optional<TermId> iri = db.pool().FindIri(row[c]);
      if (!var || !iri || !mu.Bind(*var, *iri)) {
        *error = "cannot bind " + vars[c] + " for " + text;
        return false;
      }
    }
    int64_t t = NowNs();
    uint32_t id = spans.Begin("wd.contains", 0, request);
    bool got = stmt.Contains(mu, snapshot);
    spans.End(id);
    contains_us->push_back(static_cast<double>(NowNs() - t) / 1e3);
    if (got != truth) {
      *error = "Statement::Contains disagrees with the answer set of " + text;
      return false;
    }
    return true;
  };
  std::size_t bound = row.size();
  while (bound > 0 && row[bound - 1].empty()) --bound;
  if (!probe(bound, true)) return false;
  return bound < 2 || probe(bound - 1, false);
}

void ReportReplay(const ReplayTotals& acc, RunReport* report) {
  if (acc.queries == 0) return;
  double per_row = acc.rows > 0 ? 1.0 / acc.rows : 0;
  SetLayer(report, "sparql.parse_us", Mean(acc.parse_ns) / 1e3);
  SetLayer(report, "sparql.check_us", Mean(acc.check_ns) / 1e3);
  SetLayer(report, "ptree.forest_us", Mean(acc.forest_ns) / 1e3);
  SetLayer(report, "ptree.subtrees", acc.subtrees / static_cast<double>(acc.queries));
  SetLayer(report, "engine.prepare_us", Mean(acc.prepare_ns) / 1e3);
  SetLayer(report, "optimizer.plan_us", Mean(acc.plan_ns) / 1e3);
  SetLayer(report, "optimizer.q_error", Quantile(acc.q_errors, 0.5));
  double exec = Mean(acc.exec_ns), fanned = Mean(acc.exec_default_ns);
  SetLayer(report, "engine.exec_ms", exec / 1e6);
  SetLayer(report, "engine.exec_default_ms", fanned / 1e6);
  SetLayer(report, "engine.parallel_speedup", fanned > 0 ? exec / fanned : 0);
  SetLayer(report, "engine.cpu_util",
           acc.default_wall_s > 0 ? acc.default_cpu_s / acc.default_wall_s : 0);
  SetLayer(report, "engine.first_row_us", Quantile(acc.first_row_ns, 0.5) / 1e3);
  SetLayer(report, "engine.scanned_per_row", acc.scanned * per_row);
  SetLayer(report, "engine.candidates_per_row", acc.candidates * per_row);
  SetLayer(report, "engine.dict_encodes_per_row", acc.encodes * per_row);
  SetLayer(report, "engine.dict_decodes_per_row", acc.decodes * per_row);
  SetLayer(report, "wd.maximality_tests_per_row", acc.maximality_tests * per_row);
  SetLayer(report, "wd.non_maximal_frac",
           acc.candidates > 0 ? acc.non_maximal / acc.candidates : 0);
  SetLayer(report, "wd.dedup_rejected_frac",
           acc.candidates > 0 ? acc.dedup_rejected / acc.candidates : 0);
  report->context["replay.queries"] = std::to_string(acc.queries);
  report->context["replay.rows"] = std::to_string(static_cast<uint64_t>(acc.rows));
  report->context["replay.maximality_tests_per_candidate"] =
      Ratio(acc.maximality_tests, acc.candidates);
}

double NTriplesParseUsPer1k(const std::string& text) {
  std::vector<double> per_slice_ns;
  std::size_t pos = 0;
  while (pos < text.size() && per_slice_ns.size() < 100) {
    std::size_t end = pos;
    for (int lines = 0; lines < 1000 && end < text.size(); ++lines) {
      end = text.find('\n', end);
      end = end == std::string::npos ? text.size() : end + 1;
    }
    TermPool pool;
    RdfGraph graph(&pool);
    int64_t t = NowNs();
    Status status = ParseNTriples(std::string_view(text).substr(pos, end - pos), &graph);
    int64_t ns = NowNs() - t;
    if (!status.ok()) return 0;
    per_slice_ns.push_back(static_cast<double>(ns));
    pos = end;
  }
  return Quantile(per_slice_ns, 0.5) / 1e3;
}

RegistryReading ReadRegistry(const Database& db) {
  MetricsRegistry& m = db.metrics();
  RegistryReading r;
  r.request_count = m.histogram("server.request_ns").count();
  r.request_sum = m.histogram("server.request_ns").sum();
  r.wal_append_count = m.histogram("write.wal_append_ns").count();
  r.wal_append_sum = m.histogram("write.wal_append_ns").sum();
  r.delta_build_count = m.histogram("write.delta_build_ns").count();
  r.delta_build_sum = m.histogram("write.delta_build_ns").sum();
  r.compaction_count = m.histogram("store.compaction_ns").count();
  r.compaction_sum = m.histogram("store.compaction_ns").sum();
  r.compactions = m.counter("store.compactions").value();
  r.wal_bytes = m.counter("write.wal_bytes").value();
  return r;
}

void ReportStorage(const RegistryReading& before, const RegistryReading& after,
                   double triples, RunReport* report) {
  auto mean = [](uint64_t sum0, uint64_t sum1, uint64_t n0, uint64_t n1) {
    return n1 > n0 ? static_cast<double>(sum1 - sum0) / static_cast<double>(n1 - n0)
                   : 0.0;
  };
  SetLayer(report, "storage.wal_append_us",
           mean(before.wal_append_sum, after.wal_append_sum,
                before.wal_append_count, after.wal_append_count) / 1e3);
  SetLayer(report, "storage.delta_build_ms",
           mean(before.delta_build_sum, after.delta_build_sum,
                before.delta_build_count, after.delta_build_count) / 1e6);
  SetLayer(report, "storage.compaction_ms",
           mean(before.compaction_sum, after.compaction_sum,
                before.compaction_count, after.compaction_count) / 1e6);
  if (triples > 0) {
    SetLayer(report, "storage.compactions_per_100k",
             static_cast<double>(after.compactions - before.compactions) * 1e5 /
                 triples);
    SetLayer(report, "storage.wal_bytes_per_triple",
             static_cast<double>(after.wal_bytes - before.wal_bytes) / triples);
  }
}

double FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

void WriteSpans(const SpanLog& spans, const RunConfig& config, RunReport* report) {
  std::string path = config.work_dir + "/spans-" + config.workload + "-" +
                     std::to_string(config.seed) + ".json";
  if (spans.WriteJson(path)) report->context["span_file"] = JsonString(path);
}

}  // namespace wdbench
