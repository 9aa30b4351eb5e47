#include "report.h"

#include <map>
#include <utility>

#include "stcomp/common/strings.h"

namespace e2ebench {

namespace {

std::vector<MetricSpec> MakePerLayerMetrics() {
  std::vector<MetricSpec> specs = {
      {"net.client.push_share", "ratio"},
      {"net.client.flush_share", "ratio"},
      {"net.client.reconnects", "count"},
      {"net.server.push_share", "ratio"},
      {"net.server.poll_busy_share", "ratio"},
      {"net.server.batches_acked", "count"},
      {"net.server.duplicate_batches", "count"},
      {"net.server.protocol_errors", "count"},
      {"net.server.sessions_shed", "count"},
      {"stream.backpressure_waits", "count"},
      {"stream.fixes_per_batch", "fixes"},
      {"stream.shard_skew", "ratio"},
      {"stream.kept_ratio", "ratio"},
      {"sim.generate_setup_share", "ratio"},
      {"stream.ingest_setup_share", "ratio"},
      {"store.checkpoint_setup_share", "ratio"},
      {"store.open_setup_share", "ratio"},
      {"store.stored_bytes_per_fix", "B/fix"},
      {"store.wal_bytes_per_fix", "B/fix"},
      {"store.segment_bytes_per_fix", "B/fix"},
      {"store.index_loaded", "count"},
  };
  for (const char* type : {"window", "range", "wide_range", "nearest"}) {
    const std::string prefix = std::string("store.query.") + type + ".";
    specs.push_back({prefix + "time_share", "ratio"});
    specs.push_back({prefix + "blocks_decoded_per_query", "blocks"});
    specs.push_back({prefix + "decode_ratio", "ratio"});
    specs.push_back({prefix + "hits_per_query", "hits"});
  }
  for (const char* algorithm :
       {"td-tr", "opw-tr", "td-sp", "opw-sp", "ndp", "nopw"}) {
    const std::string prefix = std::string("algo.") + algorithm + ".";
    specs.push_back({prefix + "time_share", "ratio"});
    specs.push_back({prefix + "kept_ratio", "ratio"});
  }
  specs.push_back({"error.evaluate_share", "ratio"});
  specs.push_back({"exp.sweep_other_share", "ratio"});
  specs.push_back({"obs.trace_overhead", "ratio"});
  return specs;
}

}  // namespace

void Report::Add(std::string name, std::string unit, double value) {
  metrics.push_back({std::move(name), std::move(unit), value});
}

void Report::Fail(const std::string& why) {
  correct = false;
  notes.push_back("GATE FAILED: " + why);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = MakePerLayerMetrics();
  return specs;
}

std::string CompleteMetrics(bool trace, Report* report) {
  std::map<std::string, const Metric*> reported;
  for (const Metric& metric : report->metrics) {
    if (!reported.emplace(metric.name, &metric).second) {
      return metric.name + " is reported twice";
    }
  }
  std::vector<Metric> complete;
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = reported.find(spec.name);
    if (it == reported.end()) {
      if (!trace) {
        return spec.name + " is missing";
      }
      complete.push_back({spec.name, spec.unit, 0.0});
      continue;
    }
    if (it->second->unit != spec.unit) {
      return spec.name + " is in " + it->second->unit + ", not " + spec.unit;
    }
    complete.push_back(*it->second);
    reported.erase(it);
  }
  if (!reported.empty()) {
    return reported.begin()->first + " is not a metric of this mode";
  }
  report->metrics = std::move(complete);
  return "";
}

std::string RenderResultJson(const Report& report) {
  std::string metrics;
  for (const Metric& metric : report.metrics) {
    metrics += stcomp::StrFormat(
        "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
        metrics.empty() ? "" : ", ", metric.name.c_str(), metric.value,
        metric.unit.c_str());
  }
  return stcomp::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      report.correct && report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace e2ebench
