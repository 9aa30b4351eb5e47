#include "stats.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace e2ebench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) {
    values.push_back(static_cast<double>(i));
  }
  return values;
}

// A fresh directory under the test's working directory.
std::filesystem::path TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ("e2ebench_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(Percentile(values, 50), 3.0);
  EXPECT_EQ(Percentile(values, 0), 1.0);
  EXPECT_EQ(Percentile(values, 100), 5.0);
  EXPECT_EQ(Percentile(values, 20), 1.0);
  EXPECT_EQ(Percentile(values, 21), 2.0);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);

  EXPECT_EQ(TailP90(OneTo(1000)).percentile, 90.0);
  EXPECT_EQ(TailP90(OneTo(100)).percentile, 90.0);
  EXPECT_EQ(TailP90(OneTo(99)).percentile, 75.0);
  EXPECT_EQ(TailP90(OneTo(40)).percentile, 75.0);
  EXPECT_EQ(TailP90(OneTo(39)).percentile, 50.0);
}

TEST(PercentileTest, TailFallsBackToWhatTheSampleSupports) {
  Tail tail = TailP90(OneTo(1000));
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 900.0);
  EXPECT_EQ(tail.samples, 1000u);

  tail = TailP90(OneTo(57));
  EXPECT_EQ(tail.percentile, 75.0);
  EXPECT_EQ(tail.value, Percentile(OneTo(57), 75));

  // Too small for any tail: the median, flagged by its level.
  tail = TailP90(OneTo(5));
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 3.0);
}

TEST(WindowedLatencyTest, ShortSampleIsOneWindow) {
  const Latency latency = WindowedLatency(OneTo(999));
  EXPECT_EQ(latency.windows, 1u);
  EXPECT_EQ(latency.p50, 500.0);
  EXPECT_EQ(latency.tail.percentile, 90.0);
  EXPECT_EQ(latency.tail.value, 900.0);
  EXPECT_EQ(latency.tail.samples, 999u);
}

TEST(WindowedLatencyTest, MedianOverWindowsIgnoresOneSlowWindow) {
  // Three windows of 1000; the middle one ran ten times slower.
  std::vector<double> samples;
  for (const double scale : {1.0, 10.0, 1.0}) {
    for (const double value : OneTo(1000)) {
      samples.push_back(value * scale);
    }
  }
  const Latency latency = WindowedLatency(samples);
  EXPECT_EQ(latency.windows, 3u);
  EXPECT_EQ(latency.p50, 500.0);
  EXPECT_EQ(latency.tail.percentile, 90.0);
  EXPECT_EQ(latency.tail.value, 900.0);
  EXPECT_EQ(latency.tail.samples, 3000u);
  // Over the whole run, the slow window would own the tail.
  EXPECT_EQ(TailP90(samples).value, 7000.0);
}

TEST(WindowedLatencyTest, EveryWindowHoldsAtLeastTheMinimum) {
  // 2999 samples: two windows of 1499 and 1500.
  const Latency latency = WindowedLatency(OneTo(2999));
  EXPECT_EQ(latency.windows, 2u);
  EXPECT_EQ(latency.p50, 750.0);
}

TEST(RatioTest, KeepsItsBase) {
  const Ratio ratio{3.0, 12.0};
  EXPECT_DOUBLE_EQ(ratio.value(), 0.25);
  EXPECT_EQ(ratio.part, 3.0);
  EXPECT_EQ(ratio.whole, 12.0);
  EXPECT_EQ((Ratio{5.0, 0.0}).value(), 0.0);
}

TEST(PeakRssTest, ReadsVmHwmInMiB) {
  const std::filesystem::path dir = TestDir("rss");
  WriteFile(dir / "status",
            "Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t 2048 kB\nVmRSS:\t 1 kB\n");
  const stcomp::Result<double> mb = ReadPeakRssMb((dir / "status").string());
  ASSERT_TRUE(mb.ok()) << mb.status().ToString();
  EXPECT_EQ(*mb, 2.0);

  WriteFile(dir / "no_hwm", "Name:\tx\nVmRSS:\t 1 kB\n");
  EXPECT_FALSE(ReadPeakRssMb((dir / "no_hwm").string()).ok());
  WriteFile(dir / "bad_unit", "VmHWM:\t 12 MB\n");
  EXPECT_FALSE(ReadPeakRssMb((dir / "bad_unit").string()).ok());
  EXPECT_FALSE(ReadPeakRssMb((dir / "missing").string()).ok());

  const stcomp::Result<double> self = ReadPeakRssMb();
  ASSERT_TRUE(self.ok());
  EXPECT_GT(*self, 0.0);
}

TEST(DirectoryBytesTest, SumsFilesRecursivelyWithSuffixFilter) {
  const std::filesystem::path dir = TestDir("bytes");
  std::filesystem::create_directories(dir / "shard-000");
  WriteFile(dir / "shard-000" / "wal.stwal", std::string(100, 'w'));
  WriteFile(dir / "shard-000" / "seg-1.stseg", std::string(40, 's'));
  WriteFile(dir / "top.stwal", std::string(7, 'w'));

  EXPECT_EQ(DirectoryBytes(dir).value(), 147u);
  EXPECT_EQ(DirectoryBytes(dir, ".stwal").value(), 107u);
  EXPECT_EQ(DirectoryBytes(dir, ".stseg").value(), 40u);
  EXPECT_EQ(DirectoryBytes(dir, ".none").value(), 0u);
  EXPECT_FALSE(DirectoryBytes(dir / "missing").ok());
}

}  // namespace
}  // namespace e2ebench
