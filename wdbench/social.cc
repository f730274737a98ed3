#include "social.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "server/server.h"
#include "sparql/parser.h"
#include "sparql/well_designed.h"
#include "util/json.h"
#include "wd/domination.h"

namespace wdbench {

using namespace wdsparql;

namespace {

void AppendTriple(std::string* out, const std::string& s, const char* p,
                  const std::string& o) {
  *out += s;
  *out += ' ';
  *out += p;
  *out += ' ';
  *out += o;
  *out += " .\n";
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

std::vector<int> Shuffled(Rng& rng, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  Shuffle(rng, &order);
  return order;
}

/// Per-person attributes, drawn as exact quotas and shuffled: the same
/// city sizes (Zipf over cities, c0 the largest), the same `knows`
/// out-degree multiset (Pareto quantiles, alpha 1.6, minimum 3, mean
/// about 8, capped at 200) and the same email (70%) and phone (40%)
/// counts for every `rng`.
struct People {
  std::vector<int> city, degree;
  std::vector<char> email, phone;
};

People DrawPeople(Rng& rng, std::size_t n, int cities) {
  People p;
  double total = 0;
  for (int k = 0; k < cities; ++k) total += 1.0 / (k + 1);
  for (int k = cities - 1; k >= 0; --k) {
    auto size = static_cast<std::size_t>(static_cast<double>(n) / (k + 1) / total);
    if (k == 0) size = n - p.city.size();
    p.city.insert(p.city.end(), size, k);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double u = (static_cast<double>(j) + 0.5) / static_cast<double>(n);
    p.degree.push_back(std::min(200, static_cast<int>(3.0 / std::pow(u, 1.0 / 1.6))));
    p.email.push_back(j < n * 7 / 10);
    p.phone.push_back(j < n * 4 / 10);
  }
  Shuffle(rng, &p.city);
  Shuffle(rng, &p.degree);
  Shuffle(rng, &p.email);
  Shuffle(rng, &p.phone);
  return p;
}

/// Person `i`'s triples; `knows` targets are Zipf-popular base people.
std::size_t AppendPerson(Rng& rng, const People& people, std::size_t i,
                         const std::string& subject, int self,
                         const std::string& suffix, const Zipf& target_zipf,
                         const std::vector<int>& popularity, std::string* out) {
  std::size_t n = 2;
  AppendTriple(out, subject, "type", "Person");
  AppendTriple(out, subject, "livesIn", "c" + std::to_string(people.city[i]));
  std::unordered_set<int> targets;
  for (int k = 0; k < people.degree[i]; ++k) {
    int target = popularity[target_zipf.Draw(rng)];
    if (target == self || !targets.insert(target).second) continue;
    AppendTriple(out, subject, "knows", "p" + std::to_string(target));
    ++n;
  }
  if (people.email[i]) {
    AppendTriple(out, subject, "email", "e" + suffix);
    ++n;
  }
  if (people.phone[i]) {
    AppendTriple(out, subject, "phone", "f" + suffix);
    ++n;
  }
  return n;
}

std::string RowText(const Cursor& cursor) {
  std::string row = "[";
  for (std::size_t col = 0; col < cursor.width(); ++col) {
    if (col != 0) row += ',';
    if (cursor.IsBound(col)) {
      row += '"';
      row += util::JsonEscape(cursor.Value(col));
      row += '"';
    } else {
      row += "null";
    }
  }
  row += ']';
  return row;
}

}  // namespace

SocialGraph GenerateSocialGraph(uint64_t seed, int people, int cities) {
  SocialGraph g;
  g.people = people;
  g.cities = cities;
  Rng rng(seed);
  g.popularity = Shuffled(rng, people);
  // Attributes go by popularity rank and come from a fixed seed: the
  // hubs most `knows` edges point at have the same out-degree, city,
  // email and phone under every seed, and so do the residents of each
  // city. The seed decides the names and who knows whom, so it changes
  // what a query returns far more than what it costs.
  Rng fixed(0xa77b5eedull);
  People by_rank = DrawPeople(fixed, static_cast<std::size_t>(people), cities);
  People drawn = by_rank;
  for (std::size_t r = 0; r < by_rank.city.size(); ++r) {
    auto i = static_cast<std::size_t>(g.popularity[r]);
    drawn.city[i] = by_rank.city[r];
    drawn.degree[i] = by_rank.degree[r];
    drawn.email[i] = by_rank.email[r];
    drawn.phone[i] = by_rank.phone[r];
  }
  g.degree = drawn.degree;
  Zipf target_zipf(static_cast<std::size_t>(people), 0.9);
  g.ntriples.reserve(static_cast<std::size_t>(people) * 240);
  for (int i = 0; i < people; ++i) {
    std::string id = std::to_string(i);
    g.triples += AppendPerson(rng, drawn, static_cast<std::size_t>(i), "p" + id, i,
                              id, target_zipf, g.popularity, &g.ntriples);
  }
  return g;
}

std::string GenerateNewSubjects(uint64_t seed, const std::string& prefix,
                                std::size_t count, int base_people,
                                int cities, std::size_t* triples) {
  Rng rng(seed ^ 0x5eed5eedull);
  std::vector<int> popularity = Shuffled(rng, base_people);
  People drawn = DrawPeople(rng, count, cities);
  Zipf target_zipf(static_cast<std::size_t>(base_people), 0.9);
  std::string out;
  out.reserve(count * 240);
  *triples = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::string id = prefix + std::to_string(i);
    *triples += AppendPerson(rng, drawn, i, id, -1, id, target_zipf, popularity, &out);
  }
  return out;
}

std::string PointQuery(int person) {
  return "(<p" + std::to_string(person) +
         "> knows ?q) OPT ((?q email ?e) OPT (?q phone ?f))";
}

namespace {

struct Template {
  const char* klass;
  const char* name;
  int lo, hi;        // City rank band [lo, hi).
  const char* text;  // `$C` is replaced by the city constant.
};

// Cities are named by size rank (c0 is the largest). Each template draws
// its city from its own rank band, chosen so that one query takes
// roughly 10-200 ms at the default scale: large enough that per-request
// overhead is negligible, small enough for hundreds of samples a run.
const Template kTemplates[] = {
    // Three OPT children; the last one's extension pattern is a directed
    // triangle among fresh variables (domination width 2).
    {"opt", "opt_cycle", 700, 1000,
     "(?x livesIn <$C>) OPT (?x email ?e) OPT (?x phone ?f) OPT "
     "((?x knows ?a) AND (?a knows ?b) AND (?b knows ?c) AND (?c knows ?a))"},
    // Nested OPT under a join, plus a second child joining back to the
    // city.
    {"opt", "opt_nested", 400, 600,
     "((?x livesIn <$C>) AND (?x knows ?y)) OPT ((?y email ?e) OPT "
     "(?y phone ?f)) OPT ((?y knows ?z) AND (?z livesIn <$C>))"},
    // AND-only joins: no maximality test at all.
    {"join", "join_email", 70, 100,
     "(?x livesIn <$C>) AND (?x knows ?y) AND (?y email ?e)"},
    {"join", "join_path", 130, 330,
     "(?x livesIn <$C>) AND (?x knows ?y) AND (?y knows ?z) AND "
     "(?z phone ?f)"},
};

AnalyticQuery Instantiate(const Template& t, int city) {
  std::string text = t.text;
  std::string constant = "c" + std::to_string(city);
  for (std::size_t at = text.find("$C"); at != std::string::npos;
       at = text.find("$C", at)) {
    text.replace(at, 2, constant);
  }
  return {t.klass, t.name, text};
}

}  // namespace

std::vector<AnalyticQuery> AnalyticQueries(int cities) {
  constexpr int kInstances = 16;
  std::vector<AnalyticQuery> out;
  for (int instance = 0; instance < kInstances; ++instance) {
    for (const Template& t : kTemplates) {
      int hi = std::min(cities, t.hi);
      out.push_back(Instantiate(t, t.lo + (hi - t.lo) * instance / kInstances));
    }
  }
  return out;
}

std::vector<AnalyticQuery> AnalyticTemplates(int city) {
  std::vector<AnalyticQuery> out;
  for (const Template& t : kTemplates) out.push_back(Instantiate(t, city));
  return out;
}

QueryShape ValidateQuery(const std::string& text) {
  QueryShape shape;
  // A private pool: the width computation interns fresh variables.
  TermPool pool;
  Result<PatternPtr> parsed = ParsePattern(text, &pool);
  if (!parsed.ok()) {
    shape.error = parsed.status().ToString();
    return shape;
  }
  Status wd = CheckWellDesigned(parsed.value(), pool);
  if (!wd.ok()) {
    shape.error = wd.ToString();
    return shape;
  }
  shape.well_designed = true;
  Result<PatternForest> forest = BuildPatternForest(parsed.value(), pool);
  if (!forest.ok()) {
    shape.error = forest.status().ToString();
    return shape;
  }
  shape.trees = forest.value().trees.size();
  for (const PatternTree& tree : forest.value().trees) {
    shape.subtrees += CountSubtrees(tree);
  }
  Result<int> dw = DominationWidthOfPattern(parsed.value(), &pool);
  if (!dw.ok()) {
    shape.error = dw.status().ToString();
    return shape;
  }
  shape.domination_width = dw.value();
  return shape;
}

LocalAnswer RunLocal(const Statement& stmt, const Snapshot& snapshot,
                     uint32_t parallelism, bool collect_stats, bool keep_rows) {
  LocalAnswer answer;
  ExecOptions exec;
  exec.parallelism = parallelism;
  exec.collect_stats = collect_stats;
  int64_t start = NowNs();
  Cursor cursor = stmt.Execute(snapshot, exec);
  while (cursor.Next()) {
    if (answer.first_row_ns == 0) answer.first_row_ns = NowNs() - start;
    answer.digest.AddRow(RowText(cursor));
    if (keep_rows) {
      std::vector<std::string> row;
      for (std::size_t col = 0; col < cursor.width(); ++col) {
        row.push_back(cursor.IsBound(col) ? cursor.Value(col) : std::string());
      }
      answer.rows.push_back(std::move(row));
    }
  }
  answer.total_ns = NowNs() - start;
  answer.ok = cursor.state() == Cursor::State::kExhausted;
  if (cursor.stats() != nullptr) answer.stats = *cursor.stats();
  return answer;
}

uint32_t ServerDefaultParallelism() {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<uint32_t>(hw, server::ServerOptions().max_parallelism);
}

bool CheckAgainstOracle(const Database& db, const std::string& text,
                        const Snapshot& snapshot, std::string* error) {
  SessionOptions naive;
  naive.backend = Backend::kNaiveHash;
  Statement oracle = db.OpenSession(naive).Prepare(text);
  Statement indexed = db.OpenSession().Prepare(text);
  if (!oracle.ok() || !indexed.ok()) {
    *error = "prepare failed: " + indexed.diagnostics().ToString();
    return false;
  }
  LocalAnswer want = RunLocal(oracle, snapshot, 0, false);
  LocalAnswer got = RunLocal(indexed, snapshot, 0, false);
  if (!want.ok || !got.ok || want.digest != got.digest) {
    *error = "indexed answer differs from the naive-hash oracle on " + text +
             " (" + std::to_string(got.digest.rows) + " vs " +
             std::to_string(want.digest.rows) + " rows)";
    return false;
  }
  return true;
}

}  // namespace wdbench
