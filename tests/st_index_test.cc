// SpatioTemporalIndex (DESIGN.md §17): STIX round trip, candidate
// exactness at summary granularity (including kilometre-wide blocks and
// planet-sized or out-of-range boxes), stale-index detection via payload
// CRCs, and corruption hardening — a
// full single-bit-flip sweep over the serialized image must come back as
// kDataLoss, never a crash or a silently-wrong index.

#include "stcomp/store/st_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/serialization.h"
#include "stcomp/store/trajectory_store.h"
#include "test_util.h"

namespace stcomp {
namespace {

TrajectoryStore FleetStore(size_t objects, uint64_t seed,
                           double step_m = 50.0) {
  TrajectoryStore store;
  for (size_t i = 0; i < objects; ++i) {
    STCOMP_CHECK_OK(store.Insert("veh-" + std::to_string(i),
                                 testutil::RandomWalk(120, seed + i, step_m)));
  }
  return store;
}

std::vector<SpatioTemporalIndex::Posting> BruteForceCandidates(
    const SpatioTemporalIndex& index, const BoundingBox& box, double t0,
    double t1) {
  std::vector<SpatioTemporalIndex::Posting> expected;
  for (uint32_t object = 0; object < index.objects().size(); ++object) {
    const auto& blocks = index.objects()[object].blocks;
    for (uint32_t block = 0; block < blocks.size(); ++block) {
      if (blocks[block].OverlapsTime(t0, t1) &&
          blocks[block].bounds.Intersects(box)) {
        expected.push_back({object, block});
      }
    }
  }
  return expected;
}

TEST(StIndexTest, BuildCoversEveryBlock) {
  const TrajectoryStore store = FleetStore(6, 100);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_EQ(index.objects().size(), 6u);
  size_t blocks = 0;
  for (const auto& object : index.objects()) {
    EXPECT_EQ(object.num_points, 120u);
    blocks += object.blocks.size();
  }
  EXPECT_EQ(blocks, 12u);  // 120 points => 2 blocks of 64/56 per object.
  // An all-covering query returns every block exactly once.
  const BoundingBox everything{{-1e9, -1e9}, {1e9, 1e9}};
  EXPECT_EQ(index.CandidateBlocks(everything, -1e18, 1e18).size(), blocks);
}

// Candidates must equal a brute-force scan of every summary, for any box.
// Besides small walks, this covers the regime of a sparse compressed
// fleet: 2 km steps make one 64-point block span thousands of 250 m grid
// cells, queried with quarter-extent, planet-sized and out-of-range boxes
// (coordinates whose 250 m cell number overflows int64).
TEST(StIndexTest, CandidatesMatchSummaryScan) {
  const TrajectoryStore store = FleetStore(8, 500);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  Rng rng(77);
  for (int q = 0; q < 50; ++q) {
    const Vec2 corner{rng.NextUniform(-2000.0, 2000.0),
                      rng.NextUniform(-2000.0, 2000.0)};
    const double edge = rng.NextUniform(10.0, 3000.0);
    const BoundingBox box{corner, corner + Vec2{edge, edge}};
    const double t0 = rng.NextUniform(0.0, 600.0);
    const double t1 = t0 + rng.NextUniform(0.0, 600.0);
    EXPECT_EQ(index.CandidateBlocks(box, t0, t1),
              BruteForceCandidates(index, box, t0, t1));
  }

  const TrajectoryStore sparse = FleetStore(8, 900, 2000.0);
  const SpatioTemporalIndex wide = SpatioTemporalIndex::BuildFromStore(sparse);
  BoundingBox extent = wide.objects()[0].blocks[0].bounds;
  double widest_cells = 0.0;
  for (const auto& object : wide.objects()) {
    for (const BlockSummary& block : object.blocks) {
      extent.min = {std::min(extent.min.x, block.bounds.min.x),
                    std::min(extent.min.y, block.bounds.min.y)};
      extent.max = {std::max(extent.max.x, block.bounds.max.x),
                    std::max(extent.max.y, block.bounds.max.y)};
      const Vec2 span = block.bounds.max - block.bounds.min;
      widest_cells = std::max(widest_cells, (span.x / 250.0 + 1.0) *
                                                (span.y / 250.0 + 1.0));
    }
  }
  ASSERT_GT(widest_cells, 1000.0);
  const Vec2 size = extent.max - extent.min;
  for (int q = 0; q < 50; ++q) {
    const Vec2 corner{extent.min.x + rng.NextDouble() * size.x * 0.75,
                      extent.min.y + rng.NextDouble() * size.y * 0.75};
    const BoundingBox quarter{corner, corner + size * 0.25};
    const double t0 = rng.NextUniform(0.0, 600.0);
    const double t1 = t0 + rng.NextUniform(0.0, 600.0);
    EXPECT_EQ(wide.CandidateBlocks(quarter, t0, t1),
              BruteForceCandidates(wide, quarter, t0, t1));
  }
  const double kInf = std::numeric_limits<double>::infinity();
  const double kMax = std::numeric_limits<double>::max();
  const std::vector<BoundingBox> extreme_boxes = {
      {{-2e7, -2e7}, {2e7, 2e7}},        // Planet-sized.
      {{-1e30, -1e30}, {1e30, 1e30}},    // Past int64 at 250 m cells.
      {{-kMax, -kMax}, {kMax, kMax}},
      {{-kInf, -kInf}, {kInf, kInf}},
      {{1e25, 1e25}, {1e26, 1e26}},      // Far off, empty.
      {{-1e30, extent.min.y}, {extent.min.x + size.x * 0.5, 1e30}},
  };
  for (const BoundingBox& box : extreme_boxes) {
    for (const auto& [t0, t1] :
         {std::pair{-1e18, 1e18}, std::pair{100.0, 400.0}}) {
      EXPECT_EQ(wide.CandidateBlocks(box, t0, t1),
                BruteForceCandidates(wide, box, t0, t1));
    }
  }
  // 120 points => 2 blocks per object, all inside the planet-sized box.
  EXPECT_EQ(wide.CandidateBlocks(extreme_boxes[0], -1e18, 1e18).size(), 16u);
}

TEST(StIndexTest, SerializeRoundTrips) {
  const TrajectoryStore store = FleetStore(5, 900);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  const std::string image = index.SerializeToString();
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->objects().size(), index.objects().size());
  for (size_t i = 0; i < index.objects().size(); ++i) {
    EXPECT_EQ(loaded->objects()[i].id, index.objects()[i].id);
    EXPECT_EQ(loaded->objects()[i].num_points, index.objects()[i].num_points);
    EXPECT_EQ(loaded->objects()[i].payload_crc,
              index.objects()[i].payload_crc);
  }
  EXPECT_TRUE(loaded->Matches(store));
  // Same candidates from the loaded summaries, for any box and window.
  Rng rng(31);
  for (int q = 0; q < 20; ++q) {
    const Vec2 corner{rng.NextUniform(-2000.0, 2000.0),
                      rng.NextUniform(-2000.0, 2000.0)};
    const BoundingBox box{corner, corner + Vec2{1500.0, 1500.0}};
    const double t0 = rng.NextUniform(0.0, 600.0);
    EXPECT_EQ(loaded->CandidateBlocks(box, t0, t0 + 400.0),
              index.CandidateBlocks(box, t0, t0 + 400.0));
  }
  const BoundingBox everything{{-1e9, -1e9}, {1e9, 1e9}};
  EXPECT_EQ(loaded->CandidateBlocks(everything, -1e18, 1e18).size(), 10u);
  // Deterministic bytes for a given logical content.
  EXPECT_EQ(loaded->SerializeToString(), image);
}

TEST(StIndexTest, EmptyIndexRoundTrips) {
  const TrajectoryStore store;
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(index.SerializeToString());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->objects().empty());
  const BoundingBox everything{{-1e9, -1e9}, {1e9, 1e9}};
  EXPECT_TRUE(loaded->CandidateBlocks(everything, -1e18, 1e18).empty());
  EXPECT_TRUE(loaded->Matches(store));
}

// A stale index must be detected even when object ids and point counts
// all still agree — the payload CRC is what catches a same-shape rewrite.
TEST(StIndexTest, MatchesDetectsStaleness) {
  TrajectoryStore store = FleetStore(3, 40);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.Matches(store));

  // New object.
  ASSERT_TRUE(store.Insert("veh-9", testutil::RandomWalk(30, 1)).ok());
  EXPECT_FALSE(index.Matches(store));
  ASSERT_TRUE(store.Remove("veh-9").ok());
  EXPECT_TRUE(index.Matches(store));

  // Appended fix (count changes).
  ASSERT_TRUE(store.Append("veh-0", {1e7, 0.0, 0.0}).ok());
  EXPECT_FALSE(index.Matches(store));

  // Same id, same point count, different data (CRC changes).
  TrajectoryStore rewritten;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rewritten
                    .Insert("veh-" + std::to_string(i),
                            testutil::RandomWalk(120, 4000 + i))
                    .ok());
  }
  EXPECT_FALSE(index.Matches(rewritten));

  // Removed object.
  TrajectoryStore smaller = FleetStore(2, 40);
  EXPECT_FALSE(index.Matches(smaller));
}

// A block spanning most of the planet (two fixes 40 000 km apart) is a
// candidate for every box it touches and for no other.
TEST(StIndexTest, PlanetSizedBlocksStayExact) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Insert("wide", testutil::Traj({{0.0, -2e7, -2e7},
                                                   {10.0, 2e7, 2e7}}))
                  .ok());
  ASSERT_TRUE(store.Insert("near", testutil::RandomWalk(40, 8)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    const Vec2 corner{rng.NextUniform(-3e7, 3e7), rng.NextUniform(-3e7, 3e7)};
    const BoundingBox box{corner, corner + Vec2{500.0, 500.0}};
    EXPECT_EQ(index.CandidateBlocks(box, -1e18, 1e18),
              BruteForceCandidates(index, box, -1e18, 1e18));
  }
}

// Corruption hardening: CRC32 detects every single-bit error, so flipping
// any one bit of the image must yield kDataLoss.
TEST(StIndexTest, EverySingleBitFlipIsDataLoss) {
  const TrajectoryStore store = FleetStore(2, 60);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  const std::string image = index.SerializeToString();
  ASSERT_TRUE(SpatioTemporalIndex::LoadFromBuffer(image).ok());
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Result<SpatioTemporalIndex> loaded =
          SpatioTemporalIndex::LoadFromBuffer(mutated);
      ASSERT_FALSE(loaded.ok())
          << "bit " << bit << " of byte " << byte << " accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

// A future format version must be refused even with a valid CRC.
TEST(StIndexTest, RejectsUnknownVersion) {
  const TrajectoryStore store = FleetStore(1, 2);
  std::string image =
      SpatioTemporalIndex::BuildFromStore(store).SerializeToString();
  ASSERT_GT(image.size(), 9u);
  image[4] = 2;  // version byte follows the 4-byte magic
  // Re-stamp the trailing CRC so only the version differs.
  const uint32_t crc = Crc32(std::string_view(image).substr(0, image.size() - 4));
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(StIndexTest, RejectsTruncationAndTrailingBytes) {
  const TrajectoryStore store = FleetStore(2, 3);
  const std::string image =
      SpatioTemporalIndex::BuildFromStore(store).SerializeToString();
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{8}, image.size() - 1}) {
    EXPECT_FALSE(
        SpatioTemporalIndex::LoadFromBuffer(image.substr(0, keep)).ok())
        << "accepted a " << keep << "-byte prefix";
  }
  EXPECT_FALSE(SpatioTemporalIndex::LoadFromBuffer(image + "x").ok());
}

}  // namespace
}  // namespace stcomp
