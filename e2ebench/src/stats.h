// Small measurement helpers shared by every workload: percentiles with the
// "at least ten samples beyond" rule, ratios that carry their base, and
// readers for peak resident memory and bytes on disk.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stcomp/common/result.h"

namespace e2ebench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. p in [0, 100]; 0 on an empty sample.
double Percentile(std::vector<double> samples, double p);

// The number of samples strictly beyond the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p);

// A tail as reported: p90 when it leaves at least kMinSamplesBeyond samples
// beyond it (100 samples or more), else p75 when that does, else the median.
constexpr size_t kMinSamplesBeyond = 10;
struct Tail {
  double percentile = 0.0;  // The level actually reported.
  double value = 0.0;
  size_t samples = 0;
};
Tail TailP90(const std::vector<double>& samples);

// Latency as reported. The samples, in the order they were taken, are cut
// into equal windows of at least kWindowSamples (a shorter sample is one
// window). The median and the tail (TailP90) are taken in each window, and
// each is reported as its median over the windows, so a slow spell of the
// machine moves one window rather than the run's percentiles.
constexpr size_t kWindowSamples = 1000;
struct Latency {
  double p50 = 0.0;
  Tail tail;  // samples: all of them; percentile: the level in each window.
  size_t windows = 0;
};
Latency WindowedLatency(const std::vector<double>& samples);

// part / whole, kept with its base so reports can print both.
struct Ratio {
  double part = 0.0;
  double whole = 0.0;
  // 0 when the base is empty.
  double value() const { return whole > 0.0 ? part / whole : 0.0; }
};

// Peak resident set size (VmHWM) in MiB from a /proc/<pid>/status file.
stcomp::Result<double> ReadPeakRssMb(
    const std::string& status_path = "/proc/self/status");

// Sum of regular-file sizes under `dir`, recursively. Only files whose name
// ends in `suffix` count when it is non-empty.
stcomp::Result<uint64_t> DirectoryBytes(const std::filesystem::path& dir,
                                        const std::string& suffix = "");

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
