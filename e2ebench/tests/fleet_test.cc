#include "fleet.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace e2ebench {
namespace {

// Every input byte the ingest workloads would push as the first `fixes`
// fixes of each object.
std::vector<unsigned char> InputBytes(const Fleet& fleet, uint64_t fixes) {
  std::vector<unsigned char> bytes;
  for (size_t object = 0; object < fleet.size(); ++object) {
    bytes.insert(bytes.end(), fleet.id(object).begin(), fleet.id(object).end());
    for (uint64_t j = 0; j < fixes; ++j) {
      const stcomp::TimedPoint fix = fleet.FixAt(object, j);
      const double fields[3] = {fix.t, fix.position.x, fix.position.y};
      const auto* raw = reinterpret_cast<const unsigned char*>(fields);
      bytes.insert(bytes.end(), raw, raw + sizeof(fields));
    }
  }
  return bytes;
}

TEST(FleetTest, SameSeedSameInputsOtherSeedOtherInputs) {
  const Fleet a = Fleet::Generate({7, 8});
  const Fleet b = Fleet::Generate({7, 8});
  const Fleet c = Fleet::Generate({8, 8});
  ASSERT_EQ(a.size(), 8u);
  const std::vector<unsigned char> bytes_a = InputBytes(a, 5000);
  EXPECT_EQ(bytes_a, InputBytes(b, 5000));
  EXPECT_NE(bytes_a, InputBytes(c, 5000));
}

TEST(FleetTest, FeedsRunForthAndBackWithRisingTime) {
  const Fleet fleet = Fleet::Generate({3, 2});
  for (size_t object = 0; object < fleet.size(); ++object) {
    const stcomp::Trajectory& trip = fleet.trip(object);
    const uint64_t lap = trip.size() - 1;
    EXPECT_EQ(fleet.FixAt(object, 0), trip.front());
    EXPECT_EQ(fleet.FixAt(object, lap), trip.back());
    // The way back passes the same positions in reverse.
    EXPECT_EQ(fleet.FixAt(object, lap + 1).position, trip[lap - 1].position);
    EXPECT_EQ(fleet.FixAt(object, 2 * lap).position, trip.front().position);
    EXPECT_EQ(fleet.FixAt(object, 2 * lap + 1).position, trip[1].position);
    for (uint64_t j = 1; j < 5 * lap; ++j) {
      EXPECT_LT(fleet.FixAt(object, j - 1).t, fleet.FixAt(object, j).t) << j;
    }
    const stcomp::Trajectory feed = fleet.Feed(object, 3 * lap);
    ASSERT_EQ(feed.size(), 3 * lap);
    EXPECT_EQ(feed.back(), fleet.FixAt(object, 3 * lap - 1));
  }
}

TEST(FleetTest, InterleavedOrderAccountsForEveryFix) {
  const size_t n = 5;
  for (const uint64_t total : {0u, 3u, 5u, 17u}) {
    uint64_t sum = 0;
    for (size_t object = 0; object < n; ++object) {
      uint64_t count = 0;
      for (uint64_t g = 0; g < total; ++g) {
        count += ObjectOf(g, n) == object ? 1 : 0;
      }
      EXPECT_EQ(FixesOf(total, object, n), count);
      sum += count;
    }
    EXPECT_EQ(sum, total);
  }
  EXPECT_EQ(FixIndexOf(12, n), 2u);
}

TEST(FleetTest, StratifiedPutsOneValueInEachStratum) {
  stcomp::Rng rng(11);
  const size_t n = 64;
  const std::vector<double> values = Stratified(n, &rng);
  std::vector<int> hits(n, 0);
  for (const double v : values) {
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    ++hits[static_cast<size_t>(v * n)];
  }
  EXPECT_EQ(hits, std::vector<int>(n, 1));
  stcomp::Rng again(11);
  EXPECT_EQ(values, Stratified(n, &again));
}

}  // namespace
}  // namespace e2ebench
