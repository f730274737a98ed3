#ifndef WDBENCH_LAYERS_H_
#define WDBENCH_LAYERS_H_

/// \file
/// What every workload shares around the program: timed set-up, the
/// naive-oracle check of each query template, and the traced run's
/// per-layer measurements (spans around the public calls into each
/// module, ExecStats, and the engine's metrics registry).

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "server/server.h"
#include "social.h"
#include "wdsparql/wdsparql.h"

namespace wdbench {

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetups = 5;

/// A database opened from its saved snapshot, optionally served.
struct Served {
  std::unique_ptr<wdsparql::Database> db;
  std::unique_ptr<wdsparql::server::Server> server;
  std::string snapshot_path;
  double open_ms = 0;  ///< Last set-up's Database::Open.
};

/// The program's set-up, timed `kSetups` times: load the N-Triples text,
/// save a snapshot, open it (WAL durability, WalSyncMode::kNone) and,
/// with `serve`, start the HTTP server. Keeps the last set-up.
bool TimedSetup(const std::string& ntriples, const std::string& path, bool serve,
                Served* out, std::vector<double>* setup_s, std::string* error);

/// Checks each query template against the naive-hash oracle once, on a
/// small graph of the same generator (the oracle materialises the
/// snapshot per cursor and searches naively, so the full graph is out
/// of its reach): the point template, and with `analytic` every
/// analytic template.
bool CheckTemplatesAgainstOracle(uint64_t seed, bool analytic, std::string* error);

/// Records the query-set facts (well-designedness, dw, trees, subtrees)
/// of `text` under `name` in the report context; false when the query
/// is not well designed or leaves the tractable class (dw > 2).
bool RecordShape(const std::string& name, const std::string& text,
                 RunReport* report, std::string* error);

/// Every per-layer metric name with its unit, in report order. Workloads
/// start from all-zero values and fill in the layers they exercise.
void InitPerLayer(RunReport* report);
void SetLayer(RunReport* report, const std::string& name, double value);

/// In-process replay of queries through the layer calls, under spans:
/// sparql.parse, sparql.check, ptree.forest, engine.prepare,
/// engine.exec (serial) and engine.exec_default (the server's default
/// parallelism), both timed without ExecStats, which an extra untimed
/// serial run collects. Accumulates into `acc`.
struct ReplayTotals {
  std::vector<double> parse_ns, check_ns, forest_ns, prepare_ns;
  std::vector<double> exec_ns, exec_default_ns, first_row_ns, plan_ns;
  std::vector<double> q_errors;
  double subtrees = 0;
  double rows = 0, scanned = 0, candidates = 0, encodes = 0, decodes = 0;
  double maximality_tests = 0, non_maximal = 0, dedup_rejected = 0;
  double default_cpu_s = 0, default_wall_s = 0;
  uint64_t queries = 0;
};
bool ReplayQuery(const wdsparql::Database& db, const wdsparql::Snapshot& snapshot,
                 const std::string& text, const AnswerDigest& expected,
                 SpanLog& spans, uint64_t request, ReplayTotals* acc,
                 std::string* error);
/// wd.contains: times `Statement::Contains` on two membership probes of
/// the point template `text`, built from its first answer row: the row
/// itself (true), and the row without its last bound OPT variable, which
/// the full row extends, so it is not maximal (false). False (with
/// `error`) on a wrong membership answer.
bool ReplayContains(const wdsparql::Database& db, const wdsparql::Snapshot& snapshot,
                    const std::string& text, SpanLog& spans, uint64_t request,
                    std::vector<double>* contains_us, std::string* error);

/// Writes the engine/optimizer/wd/sparql/ptree layer metrics of `acc`.
void ReportReplay(const ReplayTotals& acc, RunReport* report);

/// rdf.parse_us_per_1k: ParseNTriples over 1,000-line slices of `text`.
double NTriplesParseUsPer1k(const std::string& text);

/// Registry readings taken before and after a phase.
struct RegistryReading {
  uint64_t request_count = 0, request_sum = 0;
  uint64_t wal_append_count = 0, wal_append_sum = 0;
  uint64_t delta_build_count = 0, delta_build_sum = 0;
  uint64_t compaction_count = 0, compaction_sum = 0;
  uint64_t compactions = 0, wal_bytes = 0;
};
RegistryReading ReadRegistry(const wdsparql::Database& db);
/// Storage-layer metrics over a phase that wrote `triples` triples.
void ReportStorage(const RegistryReading& before, const RegistryReading& after,
                   double triples, RunReport* report);

/// Size of the file at `path` in bytes (0 when unreadable).
double FileBytes(const std::string& path);

/// Writes the span log next to the build and records its path.
void WriteSpans(const SpanLog& spans, const RunConfig& config, RunReport* report);

}  // namespace wdbench

#endif  // WDBENCH_LAYERS_H_
