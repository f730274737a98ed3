// The HTTP workload. It runs against an in-process server::Server over
// the opened snapshot, exactly as wdsparql_serve does, and sends no
// `?parallelism=`, so the shipped default policy is what gets measured.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "http_stream.h"
#include "layers.h"
#include "social.h"

namespace wdbench {

using namespace wdsparql;

namespace {

constexpr int kPeople = 20'000;
constexpr int kCities = 1'000;

/// A checked query of the pool: its text and its expected answer from a
/// serial in-process run on the same snapshot.
struct PoolQuery {
  std::string text;
  std::string klass;
  std::string name;  ///< Template name.
  AnswerDigest expected;
};

/// One finished request of a run.
struct Outcome {
  std::size_t index = 0;
  int64_t sent_ns = 0, first_row_ns = 0, done_ns = 0;
  bool ok = false;
  bool wrong = false;
  uint64_t rows = 0;
  double latency_ms() const { return Ms(done_ns - sent_ns); }
};

/// Checks a /query exchange against its expected answer. Sets `wrong`
/// when a complete answer arrived but differs.
bool CheckQuery(const Exchange& ex, const AnswerDigest& expected, bool* wrong) {
  *wrong = false;
  if (!ex.transport_ok || ex.status != 200 || ex.outcome != "exhausted") return false;
  if (ex.row_count != static_cast<int64_t>(expected.rows) || ex.digest != expected) {
    *wrong = true;
    return false;
  }
  return true;
}

bool PrepareExpected(const Database& db, const Snapshot& snapshot, PoolQuery* q,
                     std::string* error) {
  Statement stmt = db.OpenSession().Prepare(q->text);
  if (!stmt.ok()) {
    *error = "prepare " + q->text + ": " + stmt.diagnostics().ToString();
    return false;
  }
  LocalAnswer answer = RunLocal(stmt, snapshot, 0, false);
  if (!answer.ok) {
    *error = "in-process run failed: " + q->text;
    return false;
  }
  q->expected = answer.digest;
  return true;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The graph, the timed set-up and its context.
bool ServeSetup(const RunConfig& config, SocialGraph* graph, Served* served,
                RunReport* report, std::string* error) {
  *graph = GenerateSocialGraph(config.seed, kPeople, kCities);
  report->context["graph.triples"] = std::to_string(graph->triples);
  report->context["graph.people"] = std::to_string(kPeople);
  std::vector<double> setups;
  if (!TimedSetup(graph->ntriples, config.work_dir + "/serve.snap", true, served,
                  &setups, error)) {
    return false;
  }
  report->end_to_end["setup_s"] = {Quantile(setups, 0.5), "s"};
  SetLayer(report, "storage.open_ms", served->open_ms);
  if (config.trace) {
    SetLayer(report, "rdf.parse_us_per_1k", NTriplesParseUsPer1k(graph->ntriples));
  }
  // The generator's text is not part of the served program's footprint.
  std::string().swap(graph->ntriples);
  return true;
}

/// Latency of class `klass` at quantile q: each query of the set is
/// summarised by its median latency (to the last chunk, or to the first
/// row) over its repeats; each template by the q-quantile over its
/// queries; the class by the geometric mean over its templates. The
/// templates differ by up to 10x in cost, so a quantile over the mixed
/// request stream would sit in the gap between them and jump from run to
/// run, and per-query medians keep uneven repeat counts out of it.
double ClassQuantile(const std::vector<Outcome>& outcomes,
                     const std::vector<PoolQuery>& pool, const std::string& klass,
                     double q, bool first_row) {
  std::map<std::size_t, std::vector<double>> by_query;
  for (const Outcome& o : outcomes) {
    if (!o.ok || pool[o.index].klass != klass) continue;
    if (first_row && o.first_row_ns == 0) continue;
    by_query[o.index].push_back(first_row ? Ms(o.first_row_ns - o.sent_ns)
                                          : o.latency_ms());
  }
  std::map<std::string, std::vector<double>> by_template;
  for (const auto& [index, values] : by_query) {
    by_template[pool[index].name].push_back(Quantile(values, 0.5));
  }
  if (by_template.empty()) return 0;
  double log_sum = 0;
  for (const auto& [name, medians] : by_template) {
    log_sum += std::log(std::max(Quantile(medians, q), 1e-6));
  }
  return std::exp(log_sum / static_cast<double>(by_template.size()));
}

/// Streamed rows per second of request time, per query of the set, then
/// the geometric mean over the set: a sum over the stream would be
/// dominated by whichever few queries return the most rows.
double RowsPerSecond(const std::vector<Outcome>& outcomes) {
  std::map<std::size_t, std::pair<double, double>> by_query;  // rows, s
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    auto& [rows, seconds] = by_query[o.index];
    rows += static_cast<double>(o.rows);
    seconds += o.latency_ms() / 1e3;
  }
  if (by_query.empty()) return 0;
  double log_sum = 0;
  for (const auto& [index, totals] : by_query) {
    log_sum += std::log(std::max(totals.first, 1.0) / std::max(totals.second, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(by_query.size()));
}

/// Correctly answered queries per second, per complete pass over the
/// query set (the loop sends it round robin), then the median over the
/// passes: a stall that slows a few passes does not move it. A failed
/// query does not count, however fast it failed. Without a complete
/// pass, the whole loop is one pass.
double PassThroughput(const std::vector<Outcome>& outcomes, std::size_t pass_size,
                      double loop_s) {
  std::vector<double> rates;
  for (std::size_t begin = 0; begin + pass_size <= outcomes.size(); begin += pass_size) {
    uint64_t ok = 0;
    for (std::size_t i = begin; i < begin + pass_size; ++i) ok += outcomes[i].ok;
    int64_t ns = outcomes[begin + pass_size - 1].done_ns - outcomes[begin].sent_ns;
    rates.push_back(static_cast<double>(ok) / (static_cast<double>(ns) / 1e9));
  }
  if (!rates.empty()) return Quantile(rates, 0.5);
  uint64_t ok = 0;
  for (const Outcome& o : outcomes) ok += o.ok;
  return static_cast<double>(ok) / loop_s;
}

}  // namespace

bool RunServeAnalytic(const RunConfig& config, RunReport* report) {
  std::string error;
  SocialGraph graph;
  Served served;
  if (!ServeSetup(config, &graph, &served, report, &error)) {
    std::fprintf(stderr, "serve_analytic: %s\n", error.c_str());
    return false;
  }
  Database& db = *served.db;
  Snapshot snapshot = db.GetSnapshot();

  std::vector<PoolQuery> pool;
  for (const AnalyticQuery& a : AnalyticQueries(kCities)) {
    PoolQuery q;
    q.text = a.text;
    q.klass = a.klass;
    q.name = a.name;
    if (!PrepareExpected(db, snapshot, &q, &error)) {
      std::fprintf(stderr, "serve_analytic: %s\n", error.c_str());
      return false;
    }
    pool.push_back(std::move(q));
  }
  for (const AnalyticQuery& a : AnalyticTemplates(kCities / 2)) {
    if (!RecordShape(a.name, a.text, report, &error)) {
      std::fprintf(stderr, "serve_analytic: %s\n", error.c_str());
      report->Fail(true);
      return true;
    }
  }
  if (!CheckTemplatesAgainstOracle(config.seed, true, &error)) {
    std::fprintf(stderr, "serve_analytic: %s\n", error.c_str());
    report->Fail(true);
    return true;
  }

  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffle(config.seed * 17 + 1);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle.Below(i + 1)]);
  }

  SpanLog spans(config.trace);
  // Closed loop, one client: a lone analyst waiting on each reply.
  auto run_loop = [&](double seconds, bool traced, std::vector<Outcome>* out) {
    HttpConnection conn(served.server->port());
    int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t request = 0;
    while (NowNs() < stop) {
      // Round robin over a seeded order, so every run covers the query
      // set evenly.
      std::size_t index = order[request % order.size()];
      Exchange ex;
      ex.target = "/query";
      ex.body = pool[index].text;
      ex.query = true;
      ex.request_id = ++request;
      uint32_t span = traced ? spans.Begin(pool[index].klass == "opt" ? "client.opt"
                                                                      : "client.join",
                                           0, request)
                             : 0;
      conn.RoundTrip(&ex);
      spans.End(span);
      Outcome o;
      o.index = index;
      o.sent_ns = ex.sent_ns;
      o.first_row_ns = ex.first_row_ns;
      o.done_ns = ex.done_ns != 0 ? ex.done_ns : NowNs();
      o.ok = CheckQuery(ex, pool[index].expected, &o.wrong);
      o.rows = ex.digest.rows;
      out->push_back(o);
    }
  };

  // Warm-up pass over the pool (not reported).
  {
    std::vector<Outcome> warm;
    run_loop(0.5, false, &warm);
  }
  std::vector<Outcome> outcomes;
  double seconds = config.trace ? config.seconds * 0.5 : config.seconds;
  RegistryReading reg0 = ReadRegistry(db);
  double cpu0 = ProcessCpuSeconds();
  double client_cpu0 = ThreadCpuSeconds();  // run_loop is this thread.
  std::unique_ptr<RssSampler> rss = std::make_unique<RssSampler>();
  int64_t loop_start = NowNs();
  run_loop(seconds, false, &outcomes);
  double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  report->end_to_end["rss_mb"] = {rss->peak_mb(), "MB"};
  rss.reset();
  double client_cpu_s = ThreadCpuSeconds() - client_cpu0;
  double cpu1 = ProcessCpuSeconds();
  RegistryReading reg1 = ReadRegistry(db);

  for (const Outcome& o : outcomes) {
    ++report->attempted;
    if (!o.ok) report->Fail(o.wrong);
  }
  report->end_to_end["main_p50_ms"] = {ClassQuantile(outcomes, pool, "opt", 0.5, false), "ms"};
  report->context["opt_p90_ms"] = Json(ClassQuantile(outcomes, pool, "opt", 0.9, false));
  report->end_to_end["side_p50_ms"] = {ClassQuantile(outcomes, pool, "join", 0.5, false), "ms"};
  report->end_to_end["first_row_p50_ms"] = {ClassQuantile(outcomes, pool, "opt", 0.5, true), "ms"};
  // (Streamed rows per second is in the context: the row counts of a
  // query differ far more between seeds than its cost does.)
  report->end_to_end["throughput_per_s"] = {PassThroughput(outcomes, order.size(), loop_s),
                                            "1/s"};
  report->context["rows_per_s"] = Json(RowsPerSecond(outcomes));
  report->context["analytic.samples"] = std::to_string(outcomes.size());
  {
    std::map<std::string, std::vector<double>> by_template;
    for (const Outcome& o : outcomes) {
      if (o.ok) by_template[pool[o.index].name].push_back(o.latency_ms());
    }
    for (const auto& [name, values] : by_template) {
      report->context[name + "_p50_ms"] = Json(Quantile(values, 0.5));
    }
  }

  if (config.trace) {
    std::vector<Outcome> traced;
    run_loop(seconds, true, &traced);
    for (const Outcome& o : traced) {
      ++report->attempted;
      if (!o.ok) report->Fail(o.wrong);
    }
    double plain = ClassQuantile(outcomes, pool, "opt", 0.5, false);
    double opt = ClassQuantile(traced, pool, "opt", 0.5, false);
    SetLayer(report, "trace.main_p50_ms", opt);
    SetLayer(report, "trace.overhead_frac", plain > 0 ? opt / plain - 1 : 0);
    SetLayer(report, "trace.opt_p50_ms", opt);
    SetLayer(report, "trace.join_p50_ms", ClassQuantile(traced, pool, "join", 0.5, false));

    uint64_t requests = reg1.request_count - reg0.request_count;
    double handle_ms = requests > 0 ? static_cast<double>(reg1.request_sum -
                                                          reg0.request_sum) /
                                          1e6 / static_cast<double>(requests)
                                    : 0;
    std::vector<double> client_ms;
    for (const Outcome& o : outcomes) {
      if (o.ok) client_ms.push_back(o.latency_ms());
    }
    SetLayer(report, "server.handle_ms", handle_ms);
    SetLayer(report, "server.wait_ms", Mean(client_ms) - handle_ms);
    // The process's CPU minus the benchmark client's own (it parses and
    // digests every streamed byte).
    double server_cpu = (cpu1 - cpu0) - client_cpu_s;
    SetLayer(report, "server.cpu_ms_per_req",
             requests > 0 ? server_cpu * 1e3 / static_cast<double>(requests) : 0);

    // Replay every pool query in-process, per class.
    ReplayTotals acc;
    double join_rows = 0, join_tests = 0;
    std::vector<double> replay_ms, http_ms;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      double rows0 = acc.rows, tests0 = acc.maximality_tests;
      if (!ReplayQuery(db, snapshot, pool[i].text, pool[i].expected, spans,
                       1'000'000 + i, &acc, &error)) {
        std::fprintf(stderr, "serve_analytic: %s\n", error.c_str());
        report->Fail(true);
        return true;
      }
      if (pool[i].klass == "join") {
        join_rows += acc.rows - rows0;
        join_tests += acc.maximality_tests - tests0;
      }
      replay_ms.push_back((acc.prepare_ns.back() + acc.exec_default_ns.back()) / 1e6);
      for (const Outcome& o : outcomes) {
        if (o.ok && o.index == i) http_ms.push_back(o.latency_ms());
      }
    }
    ReportReplay(acc, report);
    SetLayer(report, "wd.join_maximality_tests_per_row",
             join_rows > 0 ? join_tests / join_rows : 0);
    SetLayer(report, "server.overhead_frac",
             Mean(http_ms) > 0 ? 1.0 - Mean(replay_ms) / Mean(http_ms) : 0);
    SetLayer(report, "storage.snapshot_bytes_per_triple",
             FileBytes(served.snapshot_path) / static_cast<double>(graph.triples));
    WriteSpans(spans, config, report);
  }
  served.server->Stop();
  return true;
}

}  // namespace wdbench
