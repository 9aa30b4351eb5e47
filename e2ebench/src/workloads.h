// The four workloads. Each runs its own set-up (several times, reporting
// the median), measures for RunOptions::seconds, checks its outputs and
// returns the metrics of its mode: end-to-end when untraced, per-layer
// when traced.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <chrono>
#include <memory>
#include <string>

#include "report.h"
#include "stats.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/sharded_fleet.h"

namespace e2ebench {

// ingest_stream (ack_mode = false) and ingest_ack (ack_mode = true).
Report RunIngest(const RunOptions& options, bool ack_mode);
Report RunStoreQuery(const RunOptions& options);
Report RunPaperSweep(const RunOptions& options);

// The engine every store-backed workload runs: OPW-TR at a mid-range
// paper threshold (Sec. 4 sweeps 30..100 m).
inline constexpr double kOpwTrEpsilonM = 50.0;
inline std::unique_ptr<stcomp::OnlineCompressor> MakeOpwTr() {
  return std::make_unique<stcomp::OpeningWindowStream>(
      kOpwTrEpsilonM, stcomp::algo::BreakPolicy::kNormal,
      stcomp::StreamCriterion::kSynchronized);
}

// Both ingest workloads and the store_query set-up run two shards: with the
// generator thread and the server's poll thread that is the 4-core budget.
inline constexpr size_t kShards = 2;

// Opens (or recovers) the kShards-partition durable store at `dir`,
// recovering partitions one after another. Aborts on failure.
std::unique_ptr<stcomp::PartitionedSegmentStore> OpenStore(
    const std::string& dir);

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The stream layer's per-layer metrics, read from an engine after FinishAll.
struct StreamStats {
  uint64_t backpressure_waits = 0;
  Ratio fixes_per_batch;  // Fixes per worker hand-off: group-commit size.
  Ratio shard_skew;       // Max over mean fixes per shard.
  Ratio kept;             // Fixes stored over fixes pushed.

  static StreamStats Of(const stcomp::ShardedFleetCompressor& engine);
  // The stream.* metrics, and a note with their bases.
  void AddTo(Report* report) const;
};

// Seconds of set-up, and of its stages, summed over the set-up repeats.
struct SetupStages {
  double total_s = 0.0;
  double generate_s = 0.0;    // sim: the fleet or the paper dataset.
  double ingest_s = 0.0;      // stream: in-process Push + FinishAll.
  double checkpoint_s = 0.0;  // store: Checkpoint.
  double open_s = 0.0;        // store: Open, with recovery and index load.

  // The per-layer *_setup_share metrics: each stage over the whole.
  void AddShares(Report* report) const {
    const double whole = total_s > 0.0 ? total_s : 1.0;
    report->Add("sim.generate_setup_share", "ratio", generate_s / whole);
    report->Add("stream.ingest_setup_share", "ratio", ingest_s / whole);
    report->Add("store.checkpoint_setup_share", "ratio", checkpoint_s / whole);
    report->Add("store.open_setup_share", "ratio", open_s / whole);
  }
};

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
