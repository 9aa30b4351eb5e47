// Sharded fleet ingest-scaling benchmark (DESIGN.md §16): aggregate
// fixes/sec pushed through ShardedFleetCompressor at 1, 2, 4, ... shards,
// on a uniform fleet and on a Zipf(s)-skewed one — the success metric of
// the shard-per-core refactor. The JSON lands in BENCH_fleet_scale.json
// (schema in EXPERIMENTS.md) with the two acceptance numbers pulled out:
// uniform_speedup_at_max (target: near-linear, >=3x at 4+ shards) and
// skew_ratio_at_max (skewed throughput within 2x of uniform).
//
// Feed construction is fully precomputed and deterministic: each object
// is a seeded random walk; the uniform fleet interleaves objects
// round-robin, the skewed fleet draws arrivals from a Zipf(s)
// distribution over object ranks. Producer threads (one per shard) own
// disjoint object subsets, so per-object fix order is preserved — the
// same contract the differential test locks in. The timed region is
// Push()...Flush(); FinishObject tails are excluded (they are O(objects),
// not per-fix work).
//
//   ./bench_fleet_scale [--objects=512] [--fixes-per-object=200]
//                       [--max-shards=0 (0 = min(cores, 8))]
//                       [--queue-capacity=8192]
//                       [--epsilon=25] [--zipf-s=1.0] [--seed=42]
//                       [--json-out=BENCH_fleet_scale.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/sim/random.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/sharded_fleet.h"

namespace {

using stcomp::Rng;
using stcomp::ShardedFleetCompressor;
using stcomp::ShardedFleetOptions;
using stcomp::TimedPoint;

// (object index, fix) in global arrival order.
using Feed = std::vector<std::pair<uint32_t, TimedPoint>>;

// Per-object seeded random walks, drive-like steps.
std::vector<std::vector<TimedPoint>> BuildWalks(int objects,
                                                int fixes_per_object,
                                                uint64_t seed) {
  std::vector<std::vector<TimedPoint>> walks(
      static_cast<size_t>(objects));
  for (int i = 0; i < objects; ++i) {
    Rng rng(seed + static_cast<uint64_t>(i));
    std::vector<TimedPoint>& walk = walks[static_cast<size_t>(i)];
    walk.reserve(static_cast<size_t>(fixes_per_object));
    double t = 0.0;
    double x = 0.0;
    double y = 0.0;
    for (int k = 0; k < fixes_per_object; ++k) {
      walk.emplace_back(t, x, y);
      t += 1.0 + rng.NextDouble();
      x += 30.0 * (rng.NextDouble() - 0.3);
      y += 30.0 * (rng.NextDouble() - 0.5);
    }
  }
  return walks;
}

Feed UniformFeed(const std::vector<std::vector<TimedPoint>>& walks) {
  Feed feed;
  const size_t fixes = walks.empty() ? 0 : walks[0].size();
  feed.reserve(walks.size() * fixes);
  for (size_t k = 0; k < fixes; ++k) {
    for (size_t i = 0; i < walks.size(); ++i) {
      feed.emplace_back(static_cast<uint32_t>(i), walks[i][k]);
    }
  }
  return feed;
}

// Zipf(s) arrival order over object ranks: object i draws with weight
// 1/(i+1)^s. Exhausted objects pass their draws on, so the totals match
// the uniform feed exactly and only the interleaving (the skew) differs.
Feed ZipfFeed(const std::vector<std::vector<TimedPoint>>& walks, double s,
              uint64_t seed) {
  std::vector<double> cdf(walks.size());
  double total = 0.0;
  for (size_t i = 0; i < walks.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  Rng rng(seed);
  std::vector<size_t> next(walks.size(), 0);
  size_t remaining = 0;
  for (const auto& walk : walks) {
    remaining += walk.size();
  }
  Feed feed;
  feed.reserve(remaining);
  while (remaining > 0) {
    const double u = rng.NextDouble() * total;
    size_t pick = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (pick >= walks.size()) {
      pick = walks.size() - 1;
    }
    size_t scanned = 0;
    while (next[pick] >= walks[pick].size() && scanned < walks.size()) {
      pick = (pick + 1) % walks.size();
      ++scanned;
    }
    if (next[pick] >= walks[pick].size()) {
      break;
    }
    feed.emplace_back(static_cast<uint32_t>(pick), walks[pick][next[pick]++]);
    --remaining;
  }
  return feed;
}

struct RunResult {
  std::string fleet;
  size_t shards = 0;
  size_t producers = 0;
  size_t fixes = 0;
  double seconds = 0.0;
  double fixes_per_second = 0.0;
  double speedup_vs_1 = 0.0;
  uint64_t backpressure_waits = 0;
};

// One timed configuration: `shards` shards, one producer per shard, each
// producer owning objects with index % producers == its slot. Objects are
// pre-split per producer (ids prebuilt too) so the timed loop is pure
// Push traffic.
RunResult TimeRun(const std::string& fleet_name, const Feed& feed,
                  size_t shards, double epsilon, size_t queue_capacity) {
  ShardedFleetOptions options;
  options.num_shards = shards;
  options.queue_capacity = queue_capacity;
  options.instance =
      stcomp::StrFormat("bench-%s-%zu", fleet_name.c_str(), shards);
  ShardedFleetCompressor engine(
      [epsilon] {
        return std::make_unique<stcomp::OpeningWindowStream>(
            epsilon, stcomp::algo::BreakPolicy::kNormal,
            stcomp::StreamCriterion::kSynchronized);
      },
      options);

  const size_t producers = shards;
  std::vector<Feed> per_producer(producers);
  std::vector<std::vector<std::string>> ids(producers);
  for (size_t p = 0; p < producers; ++p) {
    per_producer[p].reserve(feed.size() / producers + 1);
  }
  uint32_t max_object = 0;
  for (const auto& [object, fix] : feed) {
    max_object = std::max(max_object, object);
    per_producer[object % producers].emplace_back(object, fix);
  }
  for (size_t p = 0; p < producers; ++p) {
    ids[p].resize(static_cast<size_t>(max_object) + 1);
    for (const auto& [object, fix] : per_producer[p]) {
      if (ids[p][object].empty()) {
        ids[p][object] = "veh-" + std::to_string(object);
      }
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &per_producer, &ids, p] {
      for (const auto& [object, fix] : per_producer[p]) {
        STCOMP_CHECK_OK(engine.Push(ids[p][object], fix));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  STCOMP_CHECK_OK(engine.Flush());
  const auto end = std::chrono::steady_clock::now();
  STCOMP_CHECK_OK(engine.FinishAll());
  STCOMP_CHECK(engine.fixes_in() == feed.size());

  RunResult result;
  result.fleet = fleet_name;
  result.shards = shards;
  result.producers = producers;
  result.fixes = feed.size();
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.fixes_per_second =
      result.seconds > 0.0
          ? static_cast<double>(result.fixes) / result.seconds
          : 0.0;
  for (const auto& shard : engine.StatsSnapshot()) {
    result.backpressure_waits += shard.backpressure_waits;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int objects = 512;
  int fixes_per_object = 200;
  int max_shards = 0;
  int queue_capacity = 8192;
  double epsilon = 25.0;
  double zipf_s = 1.0;
  int seed = 42;
  std::string json_out = "BENCH_fleet_scale.json";
  stcomp::FlagParser flags("Sharded fleet ingest scaling (fixes/sec)");
  flags.AddInt("objects", &objects, "objects in the fleet");
  flags.AddInt("fixes-per-object", &fixes_per_object, "fixes per object");
  flags.AddInt("max-shards", &max_shards,
               "largest shard count timed (0 = min(cores, 8))");
  flags.AddInt("queue-capacity", &queue_capacity,
               "per-shard ingest queue capacity");
  flags.AddDouble("epsilon", &epsilon,
                  "opening-window tolerance in metres (per-fix work)");
  flags.AddDouble("zipf-s", &zipf_s, "skew exponent of the skewed fleet");
  flags.AddInt("seed", &seed, "feed generation seed");
  flags.AddString("json-out", &json_out,
                  "machine-readable result path (empty disables)");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  STCOMP_CHECK(objects > 0 && fixes_per_object > 0 && queue_capacity > 0);

  const unsigned cores = std::thread::hardware_concurrency();
  size_t top = static_cast<size_t>(max_shards);
  if (top == 0) {
    top = std::min<size_t>(cores > 0 ? cores : 1, 8);
  }
  std::vector<size_t> shard_counts;
  for (size_t n = 1; n < top; n *= 2) {
    shard_counts.push_back(n);
  }
  shard_counts.push_back(top);

  const auto walks =
      BuildWalks(objects, fixes_per_object, static_cast<uint64_t>(seed));
  const Feed uniform = UniformFeed(walks);
  const Feed skewed =
      ZipfFeed(walks, zipf_s, static_cast<uint64_t>(seed) + 1);
  STCOMP_CHECK(uniform.size() == skewed.size());
  std::printf("fleet: %d objects x %d fixes = %zu fixes, %u cores, "
              "epsilon=%.1f, zipf-s=%.2f\n",
              objects, fixes_per_object, uniform.size(), cores, epsilon,
              zipf_s);

  std::vector<RunResult> runs;
  double uniform_base = 0.0;
  double skewed_base = 0.0;
  for (const size_t shards : shard_counts) {
    for (const bool is_skewed : {false, true}) {
      RunResult run = TimeRun(is_skewed ? "zipf" : "uniform",
                              is_skewed ? skewed : uniform, shards, epsilon,
                              static_cast<size_t>(queue_capacity));
      double& base = is_skewed ? skewed_base : uniform_base;
      if (shards == 1) {
        base = run.fixes_per_second;
      }
      run.speedup_vs_1 =
          base > 0.0 ? run.fixes_per_second / base : 0.0;
      std::printf(
          "  %-7s %2zu shards: %10.0f fixes/s  (%5.2fx vs 1 shard, "
          "%llu backpressure waits)\n",
          run.fleet.c_str(), run.shards, run.fixes_per_second,
          run.speedup_vs_1,
          static_cast<unsigned long long>(run.backpressure_waits));
      runs.push_back(std::move(run));
    }
  }

  double uniform_at_max = 0.0;
  double skewed_at_max = 0.0;
  double uniform_speedup_at_max = 0.0;
  for (const RunResult& run : runs) {
    if (run.shards != top) {
      continue;
    }
    if (run.fleet == "uniform") {
      uniform_at_max = run.fixes_per_second;
      uniform_speedup_at_max = run.speedup_vs_1;
    } else {
      skewed_at_max = run.fixes_per_second;
    }
  }
  const double skew_ratio_at_max =
      skewed_at_max > 0.0 ? uniform_at_max / skewed_at_max : 0.0;
  std::printf("uniform speedup at %zu shards: %.2fx; uniform/skewed "
              "throughput ratio: %.2fx (budget: 2x)\n",
              top, uniform_speedup_at_max, skew_ratio_at_max);

  if (!json_out.empty()) {
    std::string runs_json = "[";
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunResult& run = runs[i];
      runs_json += stcomp::StrFormat(
          "%s\n    {\"fleet\": \"%s\", \"shards\": %zu, \"producers\": %zu, "
          "\"fixes\": %zu, \"seconds\": %.6f, \"fixes_per_second\": %.0f, "
          "\"speedup_vs_1\": %.4f, \"backpressure_waits\": %llu}",
          i == 0 ? "" : ",", run.fleet.c_str(), run.shards, run.producers,
          run.fixes, run.seconds, run.fixes_per_second, run.speedup_vs_1,
          static_cast<unsigned long long>(run.backpressure_waits));
    }
    runs_json += "\n  ]";
    const std::string json = stcomp::StrFormat(
        "{\n  \"bench\": \"bench_fleet_scale\",\n  \"schema_version\": 1,\n"
        "  \"objects\": %d,\n  \"fixes_per_object\": %d,\n"
        "  \"hardware_threads\": %u,\n  \"max_shards\": %zu,\n"
        "  \"queue_capacity\": %d,\n"
        "  \"epsilon_m\": %.3f,\n  \"zipf_s\": %.3f,\n  \"seed\": %d,\n"
        "  \"uniform_speedup_at_max\": %.4f,\n"
        "  \"skew_ratio_at_max\": %.4f,\n"
        "  \"runs\": %s,\n  \"metrics\": %s}\n",
        objects, fixes_per_object, cores, top, queue_capacity, epsilon,
        zipf_s, seed, uniform_speedup_at_max, skew_ratio_at_max,
        runs_json.c_str(),
        stcomp::obs::RenderJson(
            stcomp::obs::MetricsRegistry::Global().Snapshot())
            .c_str());
    std::ofstream file(json_out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_out.c_str());
      return 1;
    }
    file << json;
    std::printf("result written to %s\n", json_out.c_str());
  }
  return 0;
}
