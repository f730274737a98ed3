#ifndef WDBENCH_COMMON_H_
#define WDBENCH_COMMON_H_

/// \file
/// Shared pieces of the repository benchmark: seeded randomness, sample
/// statistics, the order-insensitive answer digest, the in-memory span
/// log of the traced run, and the peak-RSS sampler.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace wdbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// splitmix64-seeded xorshift generator: identical streams for identical
/// seeds on every platform (the standard distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {
    for (int i = 0; i < 4; ++i) Next();
  }
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Order-insensitive digest of an answer multiset: each row's text is
/// hashed and the hashes summed, so rows may arrive in any order (the
/// parallel enumerator does not preserve it).
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void AddRow(std::string_view row_text);
  bool operator==(const AnswerDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const AnswerDigest& o) const { return !(*this == o); }
};

/// One recorded span of the traced run.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;
};

/// Spans kept in memory and written out when the run ends; each carries
/// its parent's id, so a layer's self time (its duration minus what its
/// children cover) can be computed from the file. Disabled logs record
/// nothing, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (0 when disabled).
  uint32_t Begin(std::string_view name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  /// Records a span whose times were taken elsewhere (a commit timed
  /// from the ingest progress callback).
  uint32_t Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent, uint64_t request);

  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, uint32_t parent = 0,
             uint64_t request = 0)
      : log_(log), id_(log.Begin(name, parent, request)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint32_t id_;
};

/// The peak RSS of the timed phase only, so the generator's buffers,
/// freed before timing, do not count: the kernel's high-water mark when
/// the phase raised it, else the largest of samples taken every few
/// milliseconds.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double peak_mb() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> peak_kb_{0};
  int64_t high_water_kb_ = 0;  ///< The process's VmHWM when sampling began.
  std::thread thread_;
};

/// A `/proc/self/status` field in kB, such as "VmRSS:" or "VmHWM:".
int64_t StatusKb(const char* key);
/// CPU seconds (user + system) of the whole process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// One named metric with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run reports: the checked-operation tally, both
/// metric sets, and free-form context (query-set facts, sample counts).
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< Failed operations whose answer was wrong.
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> context;  ///< Values are JSON.

  void Fail(bool wrong_answer) {
    ++failed;
    if (wrong_answer) ++wrong;
  }
};

/// Workload entry points (serve.cc, ingest.cc). `trace` selects the
/// traced run: spans plus the in-process per-layer replay.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory for snapshots and WALs.
};

bool RunServeAnalytic(const RunConfig& config, RunReport* report);
bool RunIngest(const RunConfig& config, RunReport* report);

/// A JSON string literal.
std::string JsonString(std::string_view s);

}  // namespace wdbench

#endif  // WDBENCH_COMMON_H_
