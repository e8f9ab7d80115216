// perfbench: one run of one serving workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints a detail line ({"detail": {...}}: host calibration, sample
// counts, checks) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an answer
// was wrong and 2 when the run could not be carried out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read-1shard|read-16shard|"
               "ingest-4shard --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = "perfbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  perfbench::RunReport report;
  const tar::Status st = perfbench::RunWorkload(options, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 2;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
               "{\"value\": " + value + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  std::printf("{\"detail\": %s}\n", report.detail_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: wrong answers or failed operations\n");
    return 1;
  }
  return 0;
}
