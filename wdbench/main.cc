/// \file
/// wdbench: the repository benchmark's binary (run.py builds and
/// invokes it).
///
///   wdbench --workload serve_analytic|ingest_rw --seed N
///           --seconds S --trace 0|1 --work-dir DIR
///
/// Prints one context line (`{"context": ...}`: query-set facts, sample
/// counts, the build) and then, as the last line, the result object
/// `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
/// with `--trace 0`, per-layer metrics with `--trace 1`. Exits 0 when
/// every checked answer was right, 3 on a wrong answer, 1 on bad flags
/// or a failed set-up.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "layers.h"

using namespace wdbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wdbench --workload serve_analytic|ingest_rw "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 1;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      config.work_dir.empty()) {
    return Usage();
  }
  ::mkdir(config.work_dir.c_str(), 0755);

  RunReport report;
  if (config.trace) InitPerLayer(&report);
  bool ran = false;
  if (config.workload == "serve_analytic") {
    ran = RunServeAnalytic(config, &report);
  } else if (config.workload == "ingest_rw") {
    ran = RunIngest(config, &report);
  } else {
    return Usage();
  }
  if (!ran) return 1;

  report.context["build_type"] = JsonString(WDBENCH_BUILD_TYPE);
  report.context["compiler"] = JsonString(WDBENCH_COMPILER);
  report.context["wrong_answers"] = std::to_string(report.wrong);
  std::string context = "{";
  for (const auto& [key, value] : report.context) {
    if (context.size() > 1) context += ", ";
    context += JsonString(key) + ": " + value;
  }
  std::printf("{\"context\": %s}\n", (context + "}").c_str());

  bool correct = report.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(config.trace ? report.per_layer : report.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}
