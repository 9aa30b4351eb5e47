#include "report.h"

#include <string>

#include <gtest/gtest.h>

namespace e2ebench {
namespace {

Report EndToEnd() {
  Report report;
  // Out of order on purpose: the list's order wins.
  report.Add("latency_ms_p90", "ms", 5.0);
  report.Add("setup_s", "s", 0.5);
  report.Add("peak_rss_mb", "MB", 12.0);
  report.Add("throughput_per_s", "1/s", 1000.0);
  report.Add("latency_ms_p50", "ms", 1.0);
  return report;
}

TEST(CompleteMetricsTest, OrdersEndToEndMetricsAsListed) {
  Report report = EndToEnd();
  ASSERT_EQ(CompleteMetrics(false, &report), "");
  ASSERT_EQ(report.metrics.size(), EndToEndMetrics().size());
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    EXPECT_EQ(report.metrics[i].name, EndToEndMetrics()[i].name);
  }
  EXPECT_EQ(report.metrics[0].value, 0.5);
}

TEST(CompleteMetricsTest, MissingEndToEndMetricIsAnError) {
  Report report = EndToEnd();
  report.metrics.pop_back();
  EXPECT_EQ(CompleteMetrics(false, &report), "latency_ms_p50 is missing");
  EXPECT_EQ(report.metrics.size(), EndToEndMetrics().size() - 1);
}

TEST(CompleteMetricsTest, RejectsWrongUnitDuplicateAndUnknownNames) {
  Report report = EndToEnd();
  report.metrics[1].unit = "ms";
  EXPECT_EQ(CompleteMetrics(false, &report), "setup_s is in ms, not s");
  report = EndToEnd();
  report.Add("setup_s", "s", 0.6);
  EXPECT_EQ(CompleteMetrics(false, &report), "setup_s is reported twice");
  report = EndToEnd();
  report.Add("obs.trace_overhead", "ratio", 0.01);
  EXPECT_EQ(CompleteMetrics(false, &report),
            "obs.trace_overhead is not a metric of this mode");
}

TEST(CompleteMetricsTest, IdleLayersReadZero) {
  Report report;
  report.Add("obs.trace_overhead", "ratio", 0.02);
  report.Add("algo.ndp.time_share", "ratio", 0.3);
  ASSERT_EQ(CompleteMetrics(true, &report), "");
  ASSERT_EQ(report.metrics.size(), PerLayerMetrics().size());
  for (const Metric& metric : report.metrics) {
    const double want = metric.name == "obs.trace_overhead"    ? 0.02
                        : metric.name == "algo.ndp.time_share" ? 0.3
                                                                : 0.0;
    EXPECT_EQ(metric.value, want) << metric.name;
  }
}

}  // namespace
}  // namespace e2ebench
