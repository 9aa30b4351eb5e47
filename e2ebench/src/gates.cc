#include "gates.h"

#include <algorithm>
#include <cstring>

#include "stcomp/common/strings.h"

namespace e2ebench {

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SamePoint(const stcomp::TimedPoint& a, const stcomp::TimedPoint& b) {
  return SameBits(a.t, b.t) && SameBits(a.position.x, b.position.x) &&
         SameBits(a.position.y, b.position.y);
}

bool SameSweepPoint(const stcomp::SweepPoint& a, const stcomp::SweepPoint& b) {
  return SameBits(a.epsilon_m, b.epsilon_m) &&
         SameBits(a.speed_threshold_mps, b.speed_threshold_mps) &&
         SameBits(a.compression_percent, b.compression_percent) &&
         SameBits(a.sync_error_mean_m, b.sync_error_mean_m) &&
         SameBits(a.sync_error_max_m, b.sync_error_max_m) &&
         SameBits(a.perp_error_mean_m, b.perp_error_mean_m) &&
         SameBits(a.area_error_m, b.area_error_m);
}

}  // namespace

stcomp::Result<std::vector<stcomp::TimedPoint>> StoredReference(
    const stcomp::Trajectory& feed, const CompressorFactory& factory,
    stcomp::Codec codec) {
  std::unique_ptr<stcomp::OnlineCompressor> compressor = factory();
  STCOMP_ASSIGN_OR_RETURN(const stcomp::Trajectory kept,
                          stcomp::CompressStream(feed, compressor.get()));
  std::vector<stcomp::TimedPoint> stored;
  stored.reserve(kept.size());
  for (const stcomp::TimedPoint& point : kept.points()) {
    stored.push_back(stcomp::StorageValue(point, codec));
  }
  return stored;
}

std::string ComparePoints(const std::vector<stcomp::TimedPoint>& got,
                          const std::vector<stcomp::TimedPoint>& want) {
  const size_t common = std::min(got.size(), want.size());
  for (size_t i = 0; i < common; ++i) {
    if (!SamePoint(got[i], want[i])) {
      return stcomp::StrFormat(
          "point %zu differs: got (%.17g, %.17g, %.17g), want (%.17g, "
          "%.17g, %.17g)",
          i, got[i].t, got[i].position.x, got[i].position.y, want[i].t,
          want[i].position.x, want[i].position.y);
    }
  }
  if (got.size() != want.size()) {
    return stcomp::StrFormat("%zu points, want %zu", got.size(), want.size());
  }
  return "";
}

std::string CheckIngestCounters(const IngestCounters& counters) {
  if (counters.protocol_errors == 0 && counters.sessions_shed == 0 &&
      counters.duplicate_batches == 0 && counters.reconnects == 0) {
    return "";
  }
  return stcomp::StrFormat(
      "unclean ingest: protocol_errors=%llu sessions_shed=%llu "
      "duplicate_batches=%llu reconnects=%llu",
      static_cast<unsigned long long>(counters.protocol_errors),
      static_cast<unsigned long long>(counters.sessions_shed),
      static_cast<unsigned long long>(counters.duplicate_batches),
      static_cast<unsigned long long>(counters.reconnects));
}

stcomp::Result<stcomp::QueryAnswer> PartitionedOracle(
    const stcomp::PartitionedSegmentStore& store,
    const stcomp::QueryRequest& request) {
  stcomp::QueryAnswer merged;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    STCOMP_ASSIGN_OR_RETURN(
        stcomp::QueryAnswer part,
        stcomp::BruteForceQuery(store.shard(s).store(), request));
    merged.error_bound_m = part.error_bound_m;
    for (stcomp::QueryHit& hit : part.hits) {
      merged.hits.push_back(std::move(hit));
    }
  }
  if (request.type == stcomp::QueryType::kNearest) {
    std::sort(merged.hits.begin(), merged.hits.end(),
              [](const stcomp::QueryHit& a, const stcomp::QueryHit& b) {
                if (a.distance_m != b.distance_m) {
                  return a.distance_m < b.distance_m;
                }
                return a.id < b.id;
              });
    if (merged.hits.size() > request.k) {
      merged.hits.resize(request.k);
    }
  } else {
    std::sort(merged.hits.begin(), merged.hits.end(),
              [](const stcomp::QueryHit& a, const stcomp::QueryHit& b) {
                return a.id < b.id;
              });
  }
  return merged;
}

std::string CompareAnswers(const stcomp::QueryAnswer& got,
                           const stcomp::QueryAnswer& want) {
  if (!SameBits(got.error_bound_m, want.error_bound_m)) {
    return stcomp::StrFormat("error bound %.17g, want %.17g",
                             got.error_bound_m, want.error_bound_m);
  }
  if (got.hits.size() != want.hits.size()) {
    return stcomp::StrFormat("%zu hits, want %zu", got.hits.size(),
                             want.hits.size());
  }
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const stcomp::QueryHit& a = got.hits[i];
    const stcomp::QueryHit& b = want.hits[i];
    if (a.id != b.id || !SameBits(a.first_hit_t, b.first_hit_t) ||
        !SameBits(a.distance_m, b.distance_m)) {
      return stcomp::StrFormat(
          "hit %zu differs: got %s (t=%.17g, d=%.17g), want %s (t=%.17g, "
          "d=%.17g)",
          i, a.id.c_str(), a.first_hit_t, a.distance_m, b.id.c_str(),
          b.first_hit_t, b.distance_m);
    }
  }
  return "";
}

size_t CountSweepMismatches(const SweepPass& pass, const SweepPass& first) {
  size_t cells = 0;
  for (const auto& row : pass) {
    cells += row.size();
  }
  if (pass.size() != first.size()) {
    return cells;
  }
  size_t mismatches = 0;
  for (size_t r = 0; r < pass.size(); ++r) {
    if (pass[r].size() != first[r].size()) {
      mismatches += pass[r].size();
      continue;
    }
    for (size_t k = 0; k < pass[r].size(); ++k) {
      mismatches += SameSweepPoint(pass[r][k], first[r][k]) ? 0 : 1;
    }
  }
  return mismatches;
}

}  // namespace e2ebench
