// What one benchmark run reports, and the shared run options.

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: measure untraced for half the time, then traced for the
  // other half, and report the per-layer metrics plus the overhead.
  bool trace = false;
  // Work directory for stores and the span file; created if missing.
  std::string work_dir = ".bench_work";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the result (sample counts, bases
  // of ratios, gate failures).
  std::vector<std::string> notes;

  void Add(std::string name, std::string unit, double value);
  // Records a failed gate: the run is no longer correct.
  void Fail(const std::string& why);
};

// The metrics a run prints, in BENCHMARK.json's order: the end-to-end ones
// untraced, the per-layer ones traced. Every workload prints all of them.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Puts the report's metrics in the order of its mode's list. A per-layer
// metric the workload did not report reads 0: its layer never ran (no
// calls, no time, nothing stored). Returns a reason, and leaves the report
// as it was, when an end-to-end metric is missing or a metric is not on the
// list, is on it twice or carries another unit.
std::string CompleteMetrics(bool trace, Report* report);

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string RenderResultJson(const Report& report);

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
