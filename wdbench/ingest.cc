// ingest_rw: one writer streams new-subject triples into a WAL-durable
// database through Database::LoadNTriplesFile, checkpoints and reopens,
// while one reader runs checked point queries on base subjects.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "layers.h"
#include "social.h"

namespace wdbench {

using namespace wdsparql;

namespace {

constexpr int kBasePeople = 5'000;
constexpr int kCities = 1'000;
/// New subjects per round, about 10 triples each.
constexpr std::size_t kIngestPeople = 50'000;
constexpr std::size_t kBatch = 1'000;
/// Point queries in the reader's set. A query's first row comes late
/// when its first subtrees yield no maximal answer, which depends on the
/// subject; many subjects keep that share from moving between seeds.
constexpr int kReads = 512;
/// The reader issues one query per interval: about half a core beside
/// the writer, so the two do not crowd a small shared machine.
constexpr int64_t kReadIntervalNs = 4'000'000;

bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  return in.good() || in.eof() ? out.good() : false;
}

struct ReadQuery {
  std::string text;
  AnswerDigest expected;
};

}  // namespace

bool RunIngest(const RunConfig& config, RunReport* report) {
  std::string error;
  SocialGraph base = GenerateSocialGraph(config.seed, kBasePeople, kCities);
  std::string base_path = config.work_dir + "/ingest-base.snap";
  Served served;
  std::vector<double> setups;
  if (!TimedSetup(base.ntriples, base_path, false, &served, &setups, &error)) {
    std::fprintf(stderr, "ingest_rw: %s\n", error.c_str());
    return false;
  }
  report->end_to_end["setup_s"] = {Quantile(setups, 0.5), "s"};
  report->context["base.triples"] = std::to_string(base.triples);

  // The reader's query set and its pre-ingest answers. A point query's
  // cost follows its subject's `knows` out-degree, so the set takes the
  // subjects at evenly spaced ranks of the drawn degrees: every seed
  // reads the same degree profile, and the seed decides who holds it.
  std::vector<ReadQuery> reads;
  {
    Snapshot snapshot = served.db->GetSnapshot();
    std::vector<int> by_degree(kBasePeople);
    for (int i = 0; i < kBasePeople; ++i) by_degree[static_cast<std::size_t>(i)] = i;
    std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
      return base.degree[static_cast<std::size_t>(a)] >
             base.degree[static_cast<std::size_t>(b)];
    });
    for (int i = 0; i < kReads; ++i) {
      ReadQuery q;
      q.text = PointQuery(by_degree[static_cast<std::size_t>((2 * i + 1) * kBasePeople /
                                                             (2 * kReads))]);
      Statement stmt = served.db->OpenSession().Prepare(q.text);
      LocalAnswer answer = RunLocal(stmt, snapshot, 0, false);
      if (!answer.ok) {
        std::fprintf(stderr, "ingest_rw: base query failed: %s\n", q.text.c_str());
        return false;
      }
      q.expected = answer.digest;
      reads.push_back(std::move(q));
    }
  }
  served.db.reset();
  if (!RecordShape("point", reads[0].text, report, &error) ||
      !CheckTemplatesAgainstOracle(config.seed, false, &error)) {
    std::fprintf(stderr, "ingest_rw: %s\n", error.c_str());
    report->Fail(true);
    return true;
  }
  if (config.trace) {
    SetLayer(report, "rdf.parse_us_per_1k", NTriplesParseUsPer1k(base.ntriples));
  }
  std::string().swap(base.ntriples);

  std::size_t ingest_triples = 0;
  std::string ingest_path = config.work_dir + "/ingest.nt";
  {
    std::string text = GenerateNewSubjects(config.seed, "n", kIngestPeople,
                                           kBasePeople, kCities, &ingest_triples);
    std::ofstream out(ingest_path, std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "ingest_rw: cannot write %s\n", ingest_path.c_str());
      return false;
    }
  }
  report->context["ingest.triples_per_round"] = std::to_string(ingest_triples);

  // The traced run leaves its first round untraced, so the tracing
  // overhead shows as the traced rounds' read latency over the plain one.
  SpanLog spans(config.trace);
  SpanLog untraced(false);
  std::vector<double> round_read_p50;
  std::vector<double> rates, commits_ms, checkpoints_ms, reopens_ms;
  std::vector<double> read_ms, first_row_ms;
  RegistryReading storage;  // Summed over rounds; each round is a new registry.
  int rounds = 0;
  std::unique_ptr<RssSampler> rss = std::make_unique<RssSampler>();
  int64_t run_end = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  std::string round_path = config.work_dir + "/ingest-round.snap";
  while (rounds == 0 || NowNs() < run_end) {
    std::remove((round_path + ".wal").c_str());
    if (!CopyFile(base_path, round_path)) {
      std::fprintf(stderr, "ingest_rw: cannot copy the base snapshot\n");
      return false;
    }
    OpenOptions open;
    open.durability = Durability::kWal;
    open.wal_sync = WalSyncMode::kNone;
    Result<Database> opened = Database::Open(round_path, open);
    if (!opened.ok()) {
      std::fprintf(stderr, "ingest_rw: open: %s\n", opened.status().ToString().c_str());
      return false;
    }
    auto db = std::make_unique<Database>(std::move(opened).value());
    std::size_t base_size = db->size();
    RegistryReading before = ReadRegistry(*db);

    // Reader: checked point queries on base subjects for the whole round.
    std::atomic<bool> stop{false};
    std::vector<double> round_reads, round_first;
    uint64_t reader_attempted = 0, reader_wrong = 0;
    SpanLog& log = rounds == 0 ? untraced : spans;
    std::thread reader([&] {
      Rng order(config.seed * 7 + static_cast<uint64_t>(rounds));
      Session session = db->OpenSession();
      int64_t due = NowNs();
      while (!stop.load()) {
        // Paced: reads start at least an interval apart, and a late one
        // does not make the next come sooner.
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          continue;
        }
        due = now + kReadIntervalNs;
        const ReadQuery& q = reads[order.Below(reads.size())];
        int64_t t0 = NowNs();
        uint32_t span = log.Begin("engine.read", 0, reader_attempted + 1);
        Statement stmt = session.Prepare(q.text);
        LocalAnswer answer = RunLocal(stmt, db->GetSnapshot(), 0, false);
        log.End(span);
        int64_t t1 = NowNs();
        ++reader_attempted;
        if (!answer.ok || answer.digest != q.expected) {
          ++reader_wrong;
          continue;
        }
        round_reads.push_back(Ms(t1 - t0));
        if (answer.first_row_ns > 0) {
          // From issuing the read (Prepare included) to its first row.
          round_first.push_back(Ms(t1 - t0 - answer.total_ns + answer.first_row_ns));
        }
      }
    });

    // Writer: stream the file in batches, then checkpoint.
    int64_t start = NowNs();
    int64_t last = start;
    std::vector<double> round_commits;
    Status status = db->LoadNTriplesFile(
        ingest_path, kBatch, [&](std::size_t, std::size_t) {
          int64_t now = NowNs();
          round_commits.push_back(Ms(now - last));
          log.Record("storage.commit", last, now, 0, round_commits.size());
          last = now;
        });
    int64_t ckpt_start = NowNs();
    if (status.ok()) {
      ScopedSpan span(log, "storage.checkpoint");
      status = db->Checkpoint();
    }
    int64_t end = NowNs();
    stop = true;
    reader.join();
    if (!status.ok()) {
      std::fprintf(stderr, "ingest_rw: %s\n", status.ToString().c_str());
      return false;
    }
    RegistryReading after = ReadRegistry(*db);
    storage.wal_append_count += after.wal_append_count - before.wal_append_count;
    storage.wal_append_sum += after.wal_append_sum - before.wal_append_sum;
    storage.delta_build_count += after.delta_build_count - before.delta_build_count;
    storage.delta_build_sum += after.delta_build_sum - before.delta_build_sum;
    storage.compaction_count += after.compaction_count - before.compaction_count;
    storage.compaction_sum += after.compaction_sum - before.compaction_sum;
    storage.compactions += after.compactions - before.compactions;
    storage.wal_bytes += after.wal_bytes - before.wal_bytes;
    db.reset();

    int64_t open_start = NowNs();
    uint32_t open_span = log.Begin("storage.open", 0, 0);
    Result<Database> reopened = Database::Open(round_path, open);
    log.End(open_span);
    double reopen_ms = Ms(NowNs() - open_start);
    report->attempted += reader_attempted + 1;
    for (uint64_t i = 0; i < reader_wrong; ++i) report->Fail(true);
    if (!reopened.ok() || reopened.value().size() != base_size + ingest_triples) {
      std::fprintf(stderr, "ingest_rw: reopened database lost triples\n");
      report->Fail(true);
      return true;
    }
    Database ready = std::move(reopened).value();
    if (config.trace && NowNs() >= run_end) {
      // Replay a sample of the reader's queries through the layer calls
      // on the reopened database, whose answers must be unchanged.
      Snapshot snapshot = ready.GetSnapshot();
      ReplayTotals acc;
      std::vector<double> contains_us;
      for (std::size_t i = 0; i < reads.size(); i += reads.size() / 32) {
        if (!ReplayQuery(ready, snapshot, reads[i].text, reads[i].expected, spans,
                         1'000'000 + i, &acc, &error) ||
            !ReplayContains(ready, snapshot, reads[i].text, spans, 2'000'000 + i,
                            &contains_us, &error)) {
          std::fprintf(stderr, "ingest_rw: %s\n", error.c_str());
          report->Fail(true);
          return true;
        }
      }
      ReportReplay(acc, report);
      SetLayer(report, "wd.contains_us", Mean(contains_us));
    }

    rates.push_back(static_cast<double>(ingest_triples) /
                    (static_cast<double>(end - start) / 1e9));
    commits_ms.insert(commits_ms.end(), round_commits.begin(), round_commits.end());
    checkpoints_ms.push_back(Ms(end - ckpt_start));
    reopens_ms.push_back(reopen_ms);
    read_ms.insert(read_ms.end(), round_reads.begin(), round_reads.end());
    round_read_p50.push_back(Quantile(round_reads, 0.5));
    first_row_ms.insert(first_row_ms.end(), round_first.begin(), round_first.end());
    ++rounds;
  }
  report->end_to_end["rss_mb"] = {rss->peak_mb(), "MB"};
  rss.reset();

  report->end_to_end["main_p50_ms"] = {Quantile(read_ms, 0.5), "ms"};
  report->context["read_p90_ms"] = std::to_string(Quantile(read_ms, 0.9));
  report->context["read_p99_ms"] = std::to_string(Quantile(read_ms, 0.99));
  report->end_to_end["side_p50_ms"] = {Quantile(commits_ms, 0.5), "ms"};
  report->end_to_end["first_row_p50_ms"] = {Quantile(first_row_ms, 0.5), "ms"};
  report->end_to_end["throughput_per_s"] = {Quantile(rates, 0.5), "1/s"};
  report->context["rounds"] = std::to_string(rounds);
  report->context["reads"] = std::to_string(read_ms.size());
  report->context["commit_p99_ms"] = std::to_string(Quantile(commits_ms, 0.99));
  report->context["checkpoint_ms"] = std::to_string(Quantile(checkpoints_ms, 0.5));
  report->context["reopen_ms"] = std::to_string(Quantile(reopens_ms, 0.5));

  if (config.trace) {
    double triples = static_cast<double>(ingest_triples) * rounds;
    ReportStorage(RegistryReading(), storage, triples, report);
    SetLayer(report, "storage.checkpoint_ms", Quantile(checkpoints_ms, 0.5));
    SetLayer(report, "storage.open_ms", Quantile(reopens_ms, 0.5));
    SetLayer(report, "trace.main_p50_ms", Quantile(read_ms, 0.5));
    SetLayer(report, "trace.commit_p99_ms", Quantile(commits_ms, 0.99));
    SetLayer(report, "trace.reopen_ms", Quantile(reopens_ms, 0.5));
    if (round_read_p50.size() > 1 && round_read_p50[0] > 0) {
      std::vector<double> traced(round_read_p50.begin() + 1, round_read_p50.end());
      SetLayer(report, "trace.overhead_frac", Quantile(traced, 0.5) / round_read_p50[0] - 1);
    }
    SetLayer(report, "storage.snapshot_bytes_per_triple",
             FileBytes(round_path) / static_cast<double>(base.triples + ingest_triples));
    WriteSpans(spans, config, report);
  }
  return true;
}

}  // namespace wdbench
