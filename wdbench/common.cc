#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace wdbench {

Zipf::Zipf(std::size_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Draw(Rng& rng) const {
  double u = rng.Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(rank + 0.5)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void AnswerDigest::AddRow(std::string_view row_text) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, then a final mix.
  for (char c : row_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  ++rows;
  sum += h;
}

uint32_t SpanLog::Begin(std::string_view name, uint32_t parent,
                        uint64_t request) {
  if (!enabled_) return 0;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.start_ns = now;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(uint32_t id) {
  if (!enabled_ || id == 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = now;
}

uint32_t SpanLog::Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                        uint32_t parent, uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%u,\"parent\":%u,\"request\":%llu,\"name\":%s,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i == 0 ? "" : ",", s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 JsonString(s.name).c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

int64_t StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t length = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, length, key) == 0) return std::atoll(line.c_str() + length);
  }
  return 0;
}

RssSampler::RssSampler() {
  peak_kb_ = StatusKb("VmRSS:");
  high_water_kb_ = StatusKb("VmHWM:");
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      int64_t kb = StatusKb("VmRSS:");
      if (kb > peak_kb_.load()) peak_kb_ = kb;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

double RssSampler::peak_mb() const {
  // A high-water mark above the one at the start was set while sampling:
  // it is the exact peak, which samples taken between allocation bursts
  // can miss.
  int64_t high_water = StatusKb("VmHWM:");
  int64_t peak = high_water > high_water_kb_ ? high_water : peak_kb_.load();
  return static_cast<double>(peak) / 1024.0;
}

RssSampler::~RssSampler() {
  stop_ = true;
  thread_.join();
}

namespace {
double UsageSeconds(int who) {
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}
}  // namespace

double ProcessCpuSeconds() { return UsageSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return UsageSeconds(RUSAGE_THREAD); }

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace wdbench
