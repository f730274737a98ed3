#ifndef WDBENCH_SOCIAL_H_
#define WDBENCH_SOCIAL_H_

/// \file
/// The benchmark's inputs: a seeded social graph, the query templates
/// run against it, the query-set validation done at setup, and the
/// in-process evaluation every HTTP answer is checked against.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "wdsparql/wdsparql.h"

namespace wdbench {

/// People `p<i>` with `type`, a Zipf-skewed `livesIn` city `c<k>`,
/// skewed-degree `knows` edges towards Zipf-popular people, and optional
/// `email` (70%) and `phone` (40%) values.
struct SocialGraph {
  int people = 0;
  int cities = 0;
  std::string ntriples;        ///< The whole graph as N-Triples text.
  std::size_t triples = 0;
  std::vector<int> popularity;  ///< Person index by popularity rank.
  std::vector<int> degree;      ///< Drawn `knows` out-degree, by person.
};

SocialGraph GenerateSocialGraph(uint64_t seed, int people, int cities);

/// `count` N-Triples lines about fresh subjects `<prefix><i>` (never a
/// base person, so no base answer changes), each linked by `knows` to
/// base people, with the same optional attributes.
std::string GenerateNewSubjects(uint64_t seed, const std::string& prefix,
                                std::size_t count, int base_people,
                                int cities, std::size_t* triples);

/// The nested-OPT point query on one subject (dw 1).
std::string PointQuery(int person);

/// An analytic query: a template bound to one city constant.
struct AnalyticQuery {
  std::string klass;     ///< "opt" (certified OPT children) or "join".
  std::string name;      ///< Template name.
  std::string text;
};

/// The analytic query set: both classes, each template bound to 16
/// cities spread over its size band (see social.cc for why that band).
/// The cities are fixed by rank, so the seed varies the graph, not the
/// query mix.
std::vector<AnalyticQuery> AnalyticQueries(int cities);

/// Every analytic template bound to the one city `c<city>`.
std::vector<AnalyticQuery> AnalyticTemplates(int city);

/// Query-set facts recorded at setup: the pattern must be well designed;
/// dw, tree and subtree counts show it stays in the tractable class.
struct QueryShape {
  bool well_designed = false;
  int domination_width = -1;
  std::size_t trees = 0;
  double subtrees = 0;
  std::string error;
};
QueryShape ValidateQuery(const std::string& text);

/// One in-process execution of a prepared statement on a snapshot.
struct LocalAnswer {
  bool ok = false;
  AnswerDigest digest;
  int64_t first_row_ns = 0;  ///< From Execute to the first row.
  int64_t total_ns = 0;      ///< From Execute to exhaustion.
  wdsparql::ExecStats stats;
  std::vector<std::vector<std::string>> rows;  ///< When asked to keep them.
};

/// Runs `stmt` on `snapshot` to exhaustion, digesting each row in the
/// server's JSON row rendering. `parallelism` as ExecOptions.
LocalAnswer RunLocal(const wdsparql::Statement& stmt,
                     const wdsparql::Snapshot& snapshot, uint32_t parallelism,
                     bool collect_stats, bool keep_rows = false);

/// The server's default parallelism for a lone request: hardware
/// threads divided by requests in flight (one), clamped to the server's
/// default ceiling.
uint32_t ServerDefaultParallelism();

/// Cross-checks one statement against the naive-hash oracle backend on
/// the same snapshot. Returns false (with `error`) on disagreement.
bool CheckAgainstOracle(const wdsparql::Database& db, const std::string& text,
                        const wdsparql::Snapshot& snapshot, std::string* error);

}  // namespace wdbench

#endif  // WDBENCH_SOCIAL_H_
