// ingest_stream and ingest_ack: one FleetClient (the generator thread)
// over loopback TCP into the IngestServer's poll thread, a two-shard
// ShardedFleetCompressor running OPW-TR, and a durable
// PartitionedSegmentStore (WAL group commit per shard batch).
//
// Both push the interleaved fleet in reports of four batches (256 fixes).
// ingest_stream keeps the client's default window of in-flight batches and
// waits for acks only at the end of the measured phase; a report is timed
// from its first Push to its last Push's return. ingest_ack runs a closed
// loop: each report ends with Flush(), and is timed to Flush's return.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
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
#include "stcomp/net/fleet_client.h"
#include "stcomp/net/ingest_server.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/stream/sharded_fleet.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr size_t kFleetObjects = 64;
constexpr int kSetupRepeats = 5;
constexpr size_t kFixesPerReport = 4 * 64;  // Four default-size batches.
// Peak memory and stored bytes are measured at this many fixes, not at the
// end: the store grows with every fix, and a faster run ingests more of
// them in the same time.
constexpr uint64_t kStreamVolumeFixes = uint64_t{1} << 22;
constexpr uint64_t kAckVolumeFixes = 200 * kFixesPerReport;

using Clock = std::chrono::steady_clock;

struct SpanNames {
  Tracer::NameId client_report, client_push, client_flush, server_push;
};

// Everything a run needs, built by one set-up. Members are declared so
// they are destroyed client first, then server (joins the poll thread,
// which reads the atomics), engine, store.
struct Stack {
  // Read by the server's push function on the poll thread.
  std::atomic<Tracer*> tracer{nullptr};
  std::atomic<uint64_t> current_op{0};
  std::atomic<bool> have_poll_clock{false};
  clockid_t poll_clock = 0;  // Written once by the poll thread.
  Tracer::NameId server_push_span = 0;

  Fleet fleet;
  std::unique_ptr<stcomp::PartitionedSegmentStore> store;
  std::unique_ptr<stcomp::ShardedFleetCompressor> engine;
  std::unique_ptr<stcomp::net::IngestServer> server;
  std::unique_ptr<stcomp::net::FleetClient> client;
};

std::unique_ptr<Stack> BuildStack(const RunOptions& options,
                                  const std::string& store_dir, int repeat,
                                  Tracer::NameId server_push_span,
                                  SetupStages* stages) {
  auto stack = std::make_unique<Stack>();
  stack->server_push_span = server_push_span;
  Clock::time_point start = Clock::now();
  stack->fleet = Fleet::Generate({options.seed, kFleetObjects});
  stages->generate_s += SecondsSince(start);
  start = Clock::now();
  stack->store = OpenStore(store_dir);
  stages->open_s += SecondsSince(start);
  stcomp::ShardedFleetOptions engine_options;
  engine_options.num_shards = kShards;
  engine_options.instance = stcomp::StrFormat("e2e-ingest-%d", repeat);
  stack->engine = std::make_unique<stcomp::ShardedFleetCompressor>(
      MakeOpwTr, stack->store.get(), engine_options);

  stcomp::net::IngestServerOptions server_options;
  server_options.instance = engine_options.instance;
  Stack* raw = stack.get();
  stack->server = std::make_unique<stcomp::net::IngestServer>(
      [raw](std::string_view id, const stcomp::TimedPoint& fix) {
        if (!raw->have_poll_clock.load(std::memory_order_acquire)) {
          pthread_getcpuclockid(pthread_self(), &raw->poll_clock);
          raw->have_poll_clock.store(true, std::memory_order_release);
        }
        Tracer* tracer = raw->tracer.load(std::memory_order_relaxed);
        if (tracer != nullptr) {
          Tracer::SetTraceId(raw->current_op.load(std::memory_order_relaxed));
        }
        ScopedSpan span(tracer, raw->server_push_span);
        return raw->engine->Push(id, fix);
      },
      server_options);
  STCOMP_CHECK_OK(stack->server->Start(0));

  stcomp::net::FleetClientOptions client_options;
  client_options.port = stack->server->port();
  client_options.client_id = "e2ebench-client";
  stack->client =
      std::make_unique<stcomp::net::FleetClient>(std::move(client_options));
  STCOMP_CHECK_OK(stack->client->Connect());
  return stack;
}

double PollCpuSeconds(const Stack& stack) {
  timespec cpu{};
  if (!stack.have_poll_clock.load(std::memory_order_acquire) ||
      clock_gettime(stack.poll_clock, &cpu) != 0) {
    return 0.0;
  }
  return static_cast<double>(cpu.tv_sec) + cpu.tv_nsec * 1e-9;
}

struct Phase {
  uint64_t fixes = 0;
  uint64_t reports = 0;
  uint64_t failed_ops = 0;
  double seconds = 0.0;
  double poll_cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
  bool rss_at_volume = false;  // Else read when the phase ended.
  std::vector<double> report_ms;
  std::string error;
};

// Pushes the interleaved fleet from global fix `*next` on, a report at a
// time, until the deadline.
Phase RunPhase(Stack& stack, bool ack_mode, double seconds, Tracer* tracer,
               const SpanNames& names, uint64_t* next) {
  Phase phase;
  stack.tracer.store(tracer, std::memory_order_relaxed);
  stcomp::net::FleetClient& client = *stack.client;
  const size_t n = stack.fleet.size();
  const double poll_cpu_start = PollCpuSeconds(stack);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Client, poll thread and both shard workers each get their own CPU, and
  // the assignment turns every 250 ms.
  CpuRotation rotation;
  while (phase.error.empty() && Clock::now() < deadline) {
    rotation.Tick();
    stack.current_op.store(*next / kFixesPerReport,
                           std::memory_order_relaxed);
    Tracer::SetTraceId(*next / kFixesPerReport);
    const Clock::time_point report_start = Clock::now();
    {
      ScopedSpan report_span(tracer, names.client_report);
      for (size_t i = 0; i < kFixesPerReport; ++i) {
        const uint64_t g = (*next)++;
        const size_t object = ObjectOf(g, n);
        stcomp::Status status;
        {
          ScopedSpan push_span(tracer, names.client_push);
          status = client.Push(stack.fleet.id(object),
                               stack.fleet.FixAt(object, FixIndexOf(g, n)));
        }
        if (!status.ok()) {
          phase.error = "push: " + status.ToString();
          break;
        }
        ++phase.fixes;
      }
      if (ack_mode && phase.error.empty()) {
        ScopedSpan flush_span(tracer, names.client_flush);
        const stcomp::Status status = client.Flush();
        if (!status.ok()) {
          phase.error = "flush: " + status.ToString();
        }
      }
    }
    if (!phase.error.empty()) {
      ++phase.failed_ops;
      break;
    }
    ++phase.reports;
    phase.report_ms.push_back(SecondsSince(report_start) * 1e3);
    if (!phase.rss_at_volume &&
        *next >= (ack_mode ? kAckVolumeFixes : kStreamVolumeFixes)) {
      phase.peak_rss_mb = ReadPeakRssMb().value();
      phase.rss_at_volume = true;
    }
  }
  if (!ack_mode && phase.error.empty()) {
    ScopedSpan flush_span(tracer, names.client_flush);
    const stcomp::Status status = client.Flush();
    if (!status.ok()) {
      phase.error = "flush: " + status.ToString();
      ++phase.failed_ops;
    }
  }
  phase.seconds = SecondsSince(start);
  if (!phase.rss_at_volume) {
    phase.peak_rss_mb = ReadPeakRssMb().value();
  }
  phase.poll_cpu_seconds = PollCpuSeconds(stack) - poll_cpu_start;
  stack.tracer.store(nullptr, std::memory_order_relaxed);
  return phase;
}

// Bytes on disk per fix after the first `fixes` interleaved fixes of the
// fleet are ingested in-process into a fresh store of the same layout,
// then FinishAll + Checkpoint. The gate shows the network path stores the
// same trajectories, so this does not depend on how fast the run went.
stcomp::Result<double> StoredBytesPerFix(const Fleet& fleet, uint64_t fixes,
                                         const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::unique_ptr<stcomp::PartitionedSegmentStore> store = OpenStore(dir);
  {
    stcomp::ShardedFleetOptions engine_options;
    engine_options.num_shards = kShards;
    engine_options.instance = "e2e-ingest-volume";
    stcomp::ShardedFleetCompressor engine(MakeOpwTr, store.get(),
                                          engine_options);
    const size_t n = fleet.size();
    for (uint64_t g = 0; g < fixes; ++g) {
      const size_t object = ObjectOf(g, n);
      STCOMP_RETURN_IF_ERROR(
          engine.Push(fleet.id(object), fleet.FixAt(object, FixIndexOf(g, n))));
    }
    STCOMP_RETURN_IF_ERROR(engine.FinishAll());
  }
  STCOMP_RETURN_IF_ERROR(store->Checkpoint());
  STCOMP_ASSIGN_OR_RETURN(const uint64_t bytes, DirectoryBytes(dir));
  store.reset();
  std::filesystem::remove_all(dir);
  return static_cast<double>(bytes) / fixes;
}

}  // namespace

StreamStats StreamStats::Of(const stcomp::ShardedFleetCompressor& engine) {
  StreamStats stats;
  const std::vector<stcomp::ShardedFleetCompressor::ShardStats> shards =
      engine.StatsSnapshot();
  uint64_t enqueued = 0, batches = 0, max_enqueued = 0;
  for (const auto& shard : shards) {
    stats.backpressure_waits += shard.backpressure_waits;
    enqueued += shard.enqueued;
    batches += shard.batches;
    max_enqueued = std::max(max_enqueued, shard.enqueued);
  }
  stats.fixes_per_batch = {static_cast<double>(enqueued),
                           static_cast<double>(batches)};
  stats.shard_skew = {static_cast<double>(max_enqueued),
                      static_cast<double>(enqueued) / shards.size()};
  stats.kept = {static_cast<double>(engine.fixes_out()),
                static_cast<double>(engine.fixes_in())};
  return stats;
}

void StreamStats::AddTo(Report* report) const {
  report->Add("stream.backpressure_waits", "count",
              static_cast<double>(backpressure_waits));
  report->Add("stream.fixes_per_batch", "fixes", fixes_per_batch.value());
  report->Add("stream.shard_skew", "ratio", shard_skew.value());
  report->Add("stream.kept_ratio", "ratio", kept.value());
  report->notes.push_back(stcomp::StrFormat(
      "stream bases: kept %.0f/%.0f fixes, fixes_per_batch %.0f/%.0f, "
      "shard_skew max %.0f / mean %.1f",
      kept.part, kept.whole, fixes_per_batch.part, fixes_per_batch.whole,
      shard_skew.part, shard_skew.whole));
}

std::unique_ptr<stcomp::PartitionedSegmentStore> OpenStore(
    const std::string& dir) {
  stcomp::PartitionedSegmentStore::Options store_options;
  store_options.num_shards = kShards;
  store_options.parallel_recovery = false;
  auto store =
      std::make_unique<stcomp::PartitionedSegmentStore>(store_options);
  STCOMP_CHECK_OK(store->Open(dir));
  return store;
}

Report RunIngest(const RunOptions& options, bool ack_mode) {
  Report report;
  report.workload = ack_mode ? "ingest_ack" : "ingest_stream";
  const std::string store_dir = options.work_dir + "/ingest-store";
  Tracer tracer;
  SpanNames names;
  names.client_report = tracer.Intern("net.client.report");
  names.client_push = tracer.Intern("net.client.push");
  names.client_flush = tracer.Intern("net.client.flush");
  names.server_push = tracer.Intern("net.server.push");

  // Set-up: fleet generation, a fresh durable store, engine, server and a
  // connected client. Built kSetupRepeats times; the last one runs.
  std::vector<double> setup_s;
  SetupStages stages;
  std::unique_ptr<Stack> stack;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    stack.reset();
    std::filesystem::remove_all(store_dir);
    const Clock::time_point start = Clock::now();
    stack = BuildStack(options, store_dir, repeat, names.server_push,
                       &stages);
    setup_s.push_back(SecondsSince(start));
    stages.total_s += setup_s.back();
  }

  uint64_t next = 0;
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const Phase untraced =
      RunPhase(*stack, ack_mode, untraced_s, nullptr, names, &next);
  Phase traced;
  if (options.trace && untraced.error.empty()) {
    traced = RunPhase(*stack, ack_mode, options.seconds / 2, &tracer, names,
                      &next);
  }
  const uint64_t total_fixes = next;
  const uint64_t ops = untraced.reports + traced.reports;
  report.attempted = ops + untraced.failed_ops + traced.failed_ops;
  report.failed = untraced.failed_ops + traced.failed_ops;
  for (const Phase* phase : {&untraced, static_cast<const Phase*>(&traced)}) {
    if (!phase->error.empty()) {
      report.Fail(phase->error);
    }
  }

  const IngestCounters counters{stack->server->protocol_errors(),
                                stack->server->sessions_shed(),
                                stack->server->duplicate_batches(),
                                stack->client->reconnects()};
  const uint64_t batches_acked = stack->server->batches_acked();
  if (const std::string why = CheckIngestCounters(counters); !why.empty()) {
    report.Fail(why);
  }
  if (const stcomp::Status status = stack->client->Bye(); !status.ok()) {
    report.Fail("bye: " + status.ToString());
  }
  stack->server->Stop();

  // Tail flush, then the on-disk footprint: WAL before the checkpoint,
  // segments (and everything else) after it.
  Clock::time_point start = Clock::now();
  if (const stcomp::Status status = stack->engine->FinishAll(); !status.ok()) {
    report.Fail("finish_all: " + status.ToString());
  }
  const double finish_all_ms = SecondsSince(start) * 1e3;
  const StreamStats stream = StreamStats::Of(*stack->engine);
  const uint64_t wal_bytes = DirectoryBytes(store_dir, ".stwal").value();
  start = Clock::now();
  if (const stcomp::Status status = stack->store->Checkpoint(); !status.ok()) {
    report.Fail("checkpoint: " + status.ToString());
  }
  const double checkpoint_ms = SecondsSince(start) * 1e3;
  const uint64_t stored_bytes = DirectoryBytes(store_dir).value();
  const uint64_t segment_bytes = DirectoryBytes(store_dir, ".stseg").value();
  // Gate: reopen the store (recovery from disk alone) and compare every
  // object with CompressStream over exactly the fixes it was fed.
  stack->client.reset();
  stack->server.reset();
  stack->engine.reset();
  stack->store.reset();
  start = Clock::now();
  std::unique_ptr<stcomp::PartitionedSegmentStore> reopened =
      OpenStore(store_dir);
  const double reopen_ms = SecondsSince(start) * 1e3;
  size_t index_loaded = 0;
  for (size_t s = 0; s < reopened->num_shards(); ++s) {
    index_loaded += reopened->shard(s).last_recovery().index_loaded ? 1 : 0;
  }
  const Fleet& fleet = stack->fleet;
  std::vector<bool> bad(fleet.size(), false);
  for (size_t object = 0; object < fleet.size(); ++object) {
    const uint64_t fed = FixesOf(total_fixes, object, fleet.size());
    const stcomp::Result<std::vector<stcomp::TimedPoint>> want =
        StoredReference(fleet.Feed(object, fed), MakeOpwTr,
                        stcomp::Codec::kDelta);
    STCOMP_CHECK_OK(want.status());
    const stcomp::Result<stcomp::Trajectory> got =
        reopened->Get(fleet.id(object));
    const std::string why = got.ok() ? ComparePoints(got->points(), *want)
                                     : got.status().ToString();
    if (!why.empty()) {
      bad[object] = true;
      report.Fail(fleet.id(object) + ": " + why);
    }
  }
  // A mismatched object fails every report that carried one of its fixes.
  for (uint64_t op = 0; op < ops; ++op) {
    bool touched = false;
    for (uint64_t g = op * kFixesPerReport;
         g < (op + 1) * kFixesPerReport && g < total_fixes && !touched;
         ++g) {
      touched = bad[ObjectOf(g, fleet.size())];
    }
    report.failed += touched ? 1 : 0;
  }
  reopened.reset();
  std::filesystem::remove_all(store_dir);

  if (!options.trace) {
    report.Add("setup_s", "s", Percentile(setup_s, 50));
    if (!untraced.rss_at_volume) {
      report.notes.push_back(
          "peak_rss_mb read at the end: the run never reached its volume");
    }
    report.Add("peak_rss_mb", "MB", untraced.peak_rss_mb);
    report.Add("throughput_per_s", "1/s",  // fixes/s
               untraced.fixes / untraced.seconds);
    const Latency latency = WindowedLatency(untraced.report_ms);
    report.Add("latency_ms_p50", "ms", latency.p50);
    report.Add("latency_ms_p90", "ms", latency.tail.value);
    report.notes.push_back(stcomp::StrFormat(
        "latency_ms_p90 reports p%g, median over %zu windows of %zu reports; "
        "%llu fixes from %zu objects in %.3f s; %llu bytes stored",
        latency.tail.percentile, latency.windows, latency.tail.samples,
        static_cast<unsigned long long>(untraced.fixes), fleet.size(),
        untraced.seconds, static_cast<unsigned long long>(stored_bytes)));
    return report;
  }

  const uint64_t volume = ack_mode ? kAckVolumeFixes : kStreamVolumeFixes;
  const stcomp::Result<double> stored_per_fix =
      StoredBytesPerFix(fleet, volume, store_dir);
  STCOMP_CHECK_OK(stored_per_fix.status());
  const Tracer::Totals push = tracer.TotalsFor(names.client_push);
  const Tracer::Totals flush = tracer.TotalsFor(names.client_flush);
  const Tracer::Totals server_push = tracer.TotalsFor(names.server_push);
  const double traced_ns = traced.seconds * 1e9;
  report.Add("net.client.push_share", "ratio", push.total_ns / traced_ns);
  report.Add("net.client.flush_share", "ratio", flush.total_ns / traced_ns);
  report.Add("net.client.reconnects", "count",
             static_cast<double>(counters.reconnects));
  report.Add("net.server.push_share", "ratio",
             server_push.total_ns / traced_ns);
  report.Add("net.server.poll_busy_share", "ratio",
             Ratio{traced.poll_cpu_seconds, traced.seconds}.value());
  report.Add("net.server.batches_acked", "count",
             static_cast<double>(batches_acked));
  report.Add("net.server.duplicate_batches", "count",
             static_cast<double>(counters.duplicate_batches));
  report.Add("net.server.protocol_errors", "count",
             static_cast<double>(counters.protocol_errors));
  report.Add("net.server.sessions_shed", "count",
             static_cast<double>(counters.sessions_shed));
  stream.AddTo(&report);
  stages.AddShares(&report);
  report.Add("store.stored_bytes_per_fix", "B/fix", *stored_per_fix);
  report.Add("store.wal_bytes_per_fix", "B/fix",
             static_cast<double>(wal_bytes) / total_fixes);
  report.Add("store.segment_bytes_per_fix", "B/fix",
             static_cast<double>(segment_bytes) / total_fixes);
  report.Add("store.index_loaded", "count", static_cast<double>(index_loaded));
  // Median report time, traced over untraced.
  report.Add("obs.trace_overhead", "ratio",
             Percentile(traced.report_ms, 50) /
                     Percentile(untraced.report_ms, 50) -
                 1.0);
  report.notes.push_back(stcomp::StrFormat(
      "per fix: client push %.3f us, server push %.3f us; flush %.3f ms "
      "mean over %llu; after the run: FinishAll %.1f ms, Checkpoint %.1f "
      "ms, reopen %.1f ms; stored_bytes_per_fix at %llu fixes, ingested "
      "in-process",
      push.total_ns / 1e3 / std::max<uint64_t>(push.count, 1),
      server_push.total_ns / 1e3 / std::max<uint64_t>(server_push.count, 1),
      flush.total_ns / 1e6 / std::max<uint64_t>(flush.count, 1),
      static_cast<unsigned long long>(flush.count), finish_all_ms,
      checkpoint_ms, reopen_ms, static_cast<unsigned long long>(volume)));
  report.notes.push_back(stcomp::StrFormat(
      "bases: poll busy %.3f/%.3f s, %llu spans dropped from the span file",
      traced.poll_cpu_seconds, traced.seconds,
      static_cast<unsigned long long>(tracer.spans_dropped())));
  const std::string trace_path =
      options.work_dir + "/trace-" + report.workload + ".json";
  if (const stcomp::Status status = tracer.WriteJson(trace_path);
      !status.ok()) {
    report.notes.push_back("span file not written: " + status.ToString());
  } else {
    report.notes.push_back("spans written to " + trace_path);
  }
  return report;
}

}  // namespace e2ebench
