// store_query: a seeded fleet is ingested in-process (two-shard engine into
// the durable store), checkpointed and reopened — recovery and index load
// are part of set-up. One thread then cycles a fixed, seeded query list in
// rounds of one query of each type; a round is the operation the latencies
// time, and each type's own time feeds the per-layer numbers:
//
//   window      index-only (no block decode): the bypass case for decode.
//   range       500 m box, 5 min window: low selectivity.
//   wide_range  a quarter of the fleet's extent over half its time span:
//               the case where the engine trails the decode-all oracle.
//   nearest     k = 8 around a point, 15 min window.

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpu_rotation.h"
#include "fleet.h"
#include "gates.h"
#include "stats.h"
#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/sim/random.h"
#include "stcomp/store/query.h"
#include "stcomp/stream/sharded_fleet.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr size_t kFleetObjects = 256;
constexpr int kSetupRepeats = 5;
constexpr size_t kQueriesPerType = 256;
constexpr size_t kTypes = 4;
constexpr std::array<const char*, kTypes> kTypeNames = {
    "window", "range", "wide_range", "nearest"};

using Clock = std::chrono::steady_clock;

struct Query {
  stcomp::QueryRequest request;
  size_t expected_hits = 0;  // From the gate, checked on every timed run.
};

// queries[type][i], a pure function of the seed and the fleet. Positions
// and window starts are stratified per type (see Stratified()).
std::array<std::vector<Query>, kTypes> MakeQueries(const Fleet& fleet,
                                                   uint64_t seed) {
  stcomp::Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  const stcomp::BoundingBox& extent = fleet.extent();
  const stcomp::Vec2 size = extent.max - extent.min;
  const double span_s = fleet.t_max() - fleet.t_min();
  std::array<std::vector<Query>, kTypes> queries;
  for (size_t type = 0; type < kTypes; ++type) {
    const std::vector<double> ts = Stratified(kQueriesPerType, &rng);
    const std::vector<double> xs = Stratified(kQueriesPerType, &rng);
    const std::vector<double> ys = Stratified(kQueriesPerType, &rng);
    for (size_t i = 0; i < kQueriesPerType; ++i) {
      // A window of `length_s` and a box of `edge`, both inside the fleet's
      // span and extent.
      auto place = [&](double length_s, stcomp::Vec2 edge,
                       stcomp::QueryRequest* request) {
        request->t0 = fleet.t_min() + ts[i] * (span_s - length_s);
        request->t1 = request->t0 + length_s;
        const stcomp::Vec2 corner{extent.min.x + xs[i] * (size.x - edge.x),
                                  extent.min.y + ys[i] * (size.y - edge.y)};
        request->box = {corner, corner + edge};
      };
      stcomp::QueryRequest request;
      request.declared_error_m = kOpwTrEpsilonM;
      switch (type) {
        case 0:
          request.type = stcomp::QueryType::kTimeWindow;
          place(600.0, {0.0, 0.0}, &request);
          request.box = {};
          break;
        case 1:
          request.type = stcomp::QueryType::kRange;
          place(300.0, {500.0, 500.0}, &request);
          break;
        case 2:
          request.type = stcomp::QueryType::kRange;
          place(span_s / 2, size * 0.5, &request);
          break;
        default:
          request.type = stcomp::QueryType::kNearest;
          place(900.0, {0.0, 0.0}, &request);
          request.point = request.box.min;
          request.box = {};
          request.k = 8;
          break;
      }
      queries[type].push_back({request, 0});
    }
  }
  return queries;
}

struct StoreSetup {
  Fleet fleet;
  std::unique_ptr<stcomp::PartitionedSegmentStore> store;
  StreamStats stream;
  uint64_t fixes = 0;
  uint64_t wal_bytes = 0;
  uint64_t stored_bytes = 0;
  uint64_t segment_bytes = 0;
  size_t index_loaded = 0;
};

// Ingest the fleet's first lap (interleaved, as the fleet would report),
// tail-flush, checkpoint, close, reopen.
StoreSetup BuildStore(const RunOptions& options, const std::string& dir,
                      int repeat, SetupStages* stages) {
  StoreSetup setup;
  Clock::time_point start = Clock::now();
  setup.fleet = Fleet::Generate({options.seed, kFleetObjects});
  stages->generate_s += SecondsSince(start);
  {
    start = Clock::now();
    std::unique_ptr<stcomp::PartitionedSegmentStore> store = OpenStore(dir);
    stages->open_s += SecondsSince(start);
    start = Clock::now();
    stcomp::ShardedFleetOptions engine_options;
    engine_options.num_shards = kShards;
    engine_options.instance = stcomp::StrFormat("e2e-query-%d", repeat);
    stcomp::ShardedFleetCompressor engine(MakeOpwTr, store.get(),
                                          engine_options);
    const Fleet& fleet = setup.fleet;
    for (uint64_t j = 0; setup.fixes < fleet.lap0_fixes(); ++j) {
      for (size_t object = 0; object < fleet.size(); ++object) {
        if (j < fleet.trip(object).size()) {
          STCOMP_CHECK_OK(engine.Push(fleet.id(object), fleet.trip(object)[j]));
          ++setup.fixes;
        }
      }
    }
    STCOMP_CHECK_OK(engine.FinishAll());
    stages->ingest_s += SecondsSince(start);
    setup.stream = StreamStats::Of(engine);
    setup.wal_bytes = DirectoryBytes(dir, ".stwal").value();
    start = Clock::now();
    STCOMP_CHECK_OK(store->Checkpoint());
    stages->checkpoint_s += SecondsSince(start);
    setup.stored_bytes = DirectoryBytes(dir).value();
    setup.segment_bytes = DirectoryBytes(dir, ".stseg").value();
  }
  start = Clock::now();
  setup.store = OpenStore(dir);
  stages->open_s += SecondsSince(start);
  for (size_t s = 0; s < setup.store->num_shards(); ++s) {
    setup.index_loaded +=
        setup.store->shard(s).last_recovery().index_loaded ? 1 : 0;
  }
  return setup;
}

struct TypeStats {
  std::vector<double> ms;  // Timed queries only.
  uint64_t queries = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_total = 0;
  uint64_t hits = 0;
};

struct Phase {
  std::array<TypeStats, kTypes> types;
  std::vector<double> round_ms;  // Timed rounds only.
  uint64_t queries = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

Phase RunPhase(const stcomp::PartitionedSegmentStore& store,
               const std::array<std::vector<Query>, kTypes>& queries,
               double seconds, Tracer* tracer,
               const std::array<Tracer::NameId, kTypes>& spans,
               uint64_t* next) {
  Phase phase;
  // Created after set-up: threads inherit the mask of their creator.
  CpuRotation rotation;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    // The first round on a new CPU runs on cold caches, a cost of the
    // rotation rather than of the queries: it is checked but not timed.
    const bool timed = !rotation.Tick();
    const Clock::time_point round_start = Clock::now();
    for (size_t type = 0; type < kTypes; ++type) {
      const Query& query = queries[type][*next % kQueriesPerType];
      Tracer::SetTraceId(*next * kTypes + type);
      const Clock::time_point query_start = Clock::now();
      stcomp::Result<stcomp::QueryAnswer> answer = [&] {
        ScopedSpan span(tracer, spans[type]);
        return store.Query(query.request);
      }();
      TypeStats& stats = phase.types[type];
      if (timed) {
        stats.ms.push_back(SecondsSince(query_start) * 1e3);
      }
      ++phase.queries;
      if (!answer.ok() || answer->hits.size() != query.expected_hits) {
        ++phase.failed;
        continue;
      }
      ++stats.queries;
      stats.blocks_decoded += answer->stats.blocks_decoded;
      stats.blocks_total += answer->stats.blocks_total;
      stats.hits += answer->hits.size();
    }
    if (timed) {
      phase.round_ms.push_back(SecondsSince(round_start) * 1e3);
    }
    ++*next;
  }
  phase.seconds = SecondsSince(start);
  return phase;
}

}  // namespace

Report RunStoreQuery(const RunOptions& options) {
  Report report;
  report.workload = "store_query";
  const std::string dir = options.work_dir + "/query-store";
  std::vector<double> setup_s;
  SetupStages stages;
  StoreSetup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup.store.reset();
    std::filesystem::remove_all(dir);
    const Clock::time_point start = Clock::now();
    setup = BuildStore(options, dir, repeat, &stages);
    setup_s.push_back(SecondsSince(start));
    stages.total_s += setup_s.back();
  }
  const stcomp::PartitionedSegmentStore& store = *setup.store;

  // Gate, before anything is timed: every distinct query equals the
  // decode-everything oracle.
  std::array<std::vector<Query>, kTypes> queries =
      MakeQueries(setup.fleet, options.seed);
  uint64_t wrong = 0;
  for (size_t type = 0; type < kTypes; ++type) {
    for (Query& query : queries[type]) {
      const stcomp::Result<stcomp::QueryAnswer> got =
          store.Query(query.request);
      const stcomp::Result<stcomp::QueryAnswer> want =
          PartitionedOracle(store, query.request);
      STCOMP_CHECK_OK(want.status());
      const std::string why = got.ok() ? CompareAnswers(*got, *want)
                                       : got.status().ToString();
      if (!why.empty()) {
        ++wrong;
        report.Fail(stcomp::StrFormat("%s query: %s", kTypeNames[type],
                                      why.c_str()));
        continue;
      }
      query.expected_hits = got->hits.size();
    }
  }

  Tracer tracer;
  std::array<Tracer::NameId, kTypes> spans{};
  for (size_t type = 0; type < kTypes; ++type) {
    spans[type] = tracer.Intern(std::string("store.query.") + kTypeNames[type]);
  }
  uint64_t next = 0;
  const Phase untraced =
      RunPhase(store, queries,
               options.trace ? options.seconds / 2 : options.seconds, nullptr,
               spans, &next);
  Phase traced;
  if (options.trace) {
    traced = RunPhase(store, queries, options.seconds / 2, &tracer, spans,
                      &next);
  }
  report.attempted = untraced.queries + traced.queries;
  // A distinct query that failed the gate fails every timed run of it.
  report.failed = untraced.failed + traced.failed +
                  (wrong > 0 ? report.attempted : 0);
  const stcomp::Result<double> peak_rss_mb = ReadPeakRssMb();
  STCOMP_CHECK_OK(peak_rss_mb.status());
  setup.store.reset();
  std::filesystem::remove_all(dir);

  if (!options.trace) {
    const Latency latency = WindowedLatency(untraced.round_ms);
    report.Add("setup_s", "s", Percentile(setup_s, 50));
    report.Add("peak_rss_mb", "MB", *peak_rss_mb);
    report.Add("throughput_per_s", "1/s",  // queries/s
               untraced.queries / untraced.seconds);
    report.Add("latency_ms_p50", "ms", latency.p50);
    report.Add("latency_ms_p90", "ms", latency.tail.value);
    report.notes.push_back(stcomp::StrFormat(
        "latency_ms_p90 reports p%g, median over %zu windows of %zu rounds "
        "of %zu queries",
        latency.tail.percentile, latency.windows, latency.tail.samples,
        kTypes));
    for (size_t type = 0; type < kTypes; ++type) {
      const std::vector<double>& ms = untraced.types[type].ms;
      const Tail type_tail = TailP90(ms);
      report.notes.push_back(stcomp::StrFormat(
          "%s: %zu queries, p50 %.4f ms, p%g %.4f ms", kTypeNames[type],
          type_tail.samples, Percentile(ms, 50), type_tail.percentile,
          type_tail.value));
    }
    report.notes.push_back(stcomp::StrFormat(
        "%llu fixes from %zu objects stored in %llu bytes",
        static_cast<unsigned long long>(setup.fixes), setup.fleet.size(),
        static_cast<unsigned long long>(setup.stored_bytes)));
    return report;
  }

  for (size_t type = 0; type < kTypes; ++type) {
    const TypeStats& stats = traced.types[type];
    const double count = std::max<double>(stats.queries, 1);
    const std::string prefix =
        std::string("store.query.") + kTypeNames[type] + ".";
    const Ratio decoded{static_cast<double>(stats.blocks_decoded),
                        static_cast<double>(stats.blocks_total)};
    const Tracer::Totals totals = tracer.TotalsFor(spans[type]);
    report.Add(prefix + "time_share", "ratio",
               totals.total_ns / (traced.seconds * 1e9));
    report.Add(prefix + "blocks_decoded_per_query", "blocks",
               stats.blocks_decoded / count);
    report.Add(prefix + "decode_ratio", "ratio", decoded.value());
    report.Add(prefix + "hits_per_query", "hits", stats.hits / count);
    report.notes.push_back(stcomp::StrFormat(
        "%s: decoded %.0f of %.0f blocks over %.0f queries, %.1f us per "
        "query",
        kTypeNames[type], decoded.part, decoded.whole, count,
        totals.total_ns / 1e3 / count));
  }
  setup.stream.AddTo(&report);
  stages.AddShares(&report);
  report.Add("store.stored_bytes_per_fix", "B/fix",
             static_cast<double>(setup.stored_bytes) / setup.fixes);
  report.Add("store.wal_bytes_per_fix", "B/fix",
             static_cast<double>(setup.wal_bytes) / setup.fixes);
  report.Add("store.segment_bytes_per_fix", "B/fix",
             static_cast<double>(setup.segment_bytes) / setup.fixes);
  report.Add("store.index_loaded", "count",
             static_cast<double>(setup.index_loaded));
  report.Add("obs.trace_overhead", "ratio",
             (untraced.queries / untraced.seconds) /
                     (traced.queries / traced.seconds) -
                 1.0);
  const std::string trace_path = options.work_dir + "/trace-store_query.json";
  if (const stcomp::Status status = tracer.WriteJson(trace_path);
      !status.ok()) {
    report.notes.push_back("span file not written: " + status.ToString());
  } else {
    report.notes.push_back("spans written to " + trace_path);
  }
  return report;
}

}  // namespace e2ebench
