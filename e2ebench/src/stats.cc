#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <system_error>

namespace e2ebench {

namespace {

// 1-based nearest rank of the p-th percentile in a sample of n. The
// epsilon keeps exact products such as 99 * 1000 / 100 from rounding up.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

Tail TailP90(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = 50.0;
  for (const double p : {90.0, 75.0}) {
    if (SamplesBeyond(samples.size(), p) >= kMinSamplesBeyond) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = Percentile(samples, tail.percentile);
  return tail;
}

Latency WindowedLatency(const std::vector<double>& samples) {
  Latency latency;
  latency.windows = std::max<size_t>(samples.size() / kWindowSamples, 1);
  std::vector<double> medians;
  std::vector<double> tails;
  for (size_t w = 0; w < latency.windows; ++w) {
    const std::vector<double> window(
        samples.begin() + w * samples.size() / latency.windows,
        samples.begin() + (w + 1) * samples.size() / latency.windows);
    medians.push_back(Percentile(window, 50));
    const Tail tail = TailP90(window);
    tails.push_back(tail.value);
    latency.tail.percentile = tail.percentile;
  }
  latency.p50 = Percentile(medians, 50);
  latency.tail.value = Percentile(tails, 50);
  latency.tail.samples = samples.size();
  return latency;
}

stcomp::Result<double> ReadPeakRssMb(const std::string& status_path) {
  std::ifstream file(status_path);
  if (!file) {
    return stcomp::NotFoundError("cannot read " + status_path);
  }
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) != 0) {
      continue;
    }
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    std::string unit;
    if (!(fields >> kib >> unit) || unit != "kB") {
      return stcomp::DataLossError("malformed VmHWM line: " + line);
    }
    return kib / 1024.0;
  }
  return stcomp::NotFoundError("no VmHWM line in " + status_path);
}

stcomp::Result<uint64_t> DirectoryBytes(const std::filesystem::path& dir,
                                        const std::string& suffix) {
  std::error_code error;
  std::filesystem::recursive_directory_iterator it(dir, error);
  if (error) {
    return stcomp::NotFoundError("cannot list " + dir.string() + ": " +
                                 error.message());
  }
  uint64_t total = 0;
  for (; it != std::filesystem::recursive_directory_iterator();
       it.increment(error)) {
    if (error) {
      return stcomp::UnavailableError("listing " + dir.string() + ": " +
                                      error.message());
    }
    if (!it->is_regular_file()) {
      continue;
    }
    const std::string name = it->path().filename().string();
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
             0)) {
      continue;
    }
    total += it->file_size();
  }
  return total;
}

}  // namespace e2ebench
