// End-to-end benchmark program. Runs one workload and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics with --trace 1. Exits 1 when
// a correctness gate fails, 2 on bad arguments, 3 (without a result) when
// the workload's metrics do not match the lists in report.h.
//
//   e2ebench --workload ingest_stream|ingest_ack|store_query|paper_sweep
//            --seed N --seconds S --trace 0|1 [--work-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "ingest_stream|ingest_ack|store_query|paper_sweep --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  e2ebench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value");
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage("bad number");
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage("unknown flag or value out of range");
    }
  }
  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) {
    return Usage("cannot create the work directory");
  }

  e2ebench::Report report;
  if (workload == "ingest_stream" || workload == "ingest_ack") {
    report = e2ebench::RunIngest(options, workload == "ingest_ack");
  } else if (workload == "store_query") {
    report = e2ebench::RunStoreQuery(options);
  } else if (workload == "paper_sweep") {
    report = e2ebench::RunPaperSweep(options);
  } else {
    return Usage("unknown workload");
  }
  if (const std::string why = e2ebench::CompleteMetrics(options.trace, &report);
      !why.empty()) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", workload.c_str(), why.c_str());
    return 3;
  }
  for (const e2ebench::Metric& metric : report.metrics) {
    std::printf("%s %s = %.6g %s\n", report.workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("%s: %s\n", report.workload.c_str(), note.c_str());
  }
  std::printf("%s\n", e2ebench::RenderResultJson(report).c_str());
  return report.correct && report.failed == 0 ? 0 : 1;
}
