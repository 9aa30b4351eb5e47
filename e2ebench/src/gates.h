// Correctness gates. Each returns an empty string when the output matches
// its reference and a one-line reason when it does not; a failing gate
// fails the run (the runner counts the affected operations as failed and
// reports correct=false).

#ifndef E2EBENCH_GATES_H_
#define E2EBENCH_GATES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/exp/sweep.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/query.h"
#include "stcomp/stream/online_compressor.h"

namespace e2ebench {

using CompressorFactory =
    std::function<std::unique_ptr<stcomp::OnlineCompressor>()>;

// The ingest reference for one object: CompressStream over its feed, each
// kept point mapped to the value `codec` stores for it.
stcomp::Result<std::vector<stcomp::TimedPoint>> StoredReference(
    const stcomp::Trajectory& feed, const CompressorFactory& factory,
    stcomp::Codec codec);

// Bitwise equality of two point sequences.
std::string ComparePoints(const std::vector<stcomp::TimedPoint>& got,
                          const std::vector<stcomp::TimedPoint>& want);

// Ingest runs must be clean: no protocol errors, sheds, duplicate batches
// or client reconnects.
struct IngestCounters {
  uint64_t protocol_errors = 0;
  uint64_t sessions_shed = 0;
  uint64_t duplicate_batches = 0;
  uint64_t reconnects = 0;
};
std::string CheckIngestCounters(const IngestCounters& counters);

// The query oracle over a partitioned store: BruteForceQuery on every
// partition, merged the way PartitionedSegmentStore::Query merges (set
// queries by id, kNearest by (distance, id) cut to k).
stcomp::Result<stcomp::QueryAnswer> PartitionedOracle(
    const stcomp::PartitionedSegmentStore& store,
    const stcomp::QueryRequest& request);

// Bitwise equality of hits (ids, first_hit_t, distance_m) and error bound.
std::string CompareAnswers(const stcomp::QueryAnswer& got,
                           const stcomp::QueryAnswer& want);

// One sweep pass: result[request][threshold].
using SweepPass = std::vector<std::vector<stcomp::SweepPoint>>;
// Number of cells of `pass` that are not bitwise-equal to `first`'s (a
// shape mismatch counts every cell of `pass`).
size_t CountSweepMismatches(const SweepPass& pass, const SweepPass& first);

}  // namespace e2ebench

#endif  // E2EBENCH_GATES_H_
