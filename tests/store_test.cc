#include <vector>

#include <gtest/gtest.h>

#include "stcomp/sim/random.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t value : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                              uint64_t{1} << 32,
                                              UINT64_MAX}) {
    std::string buffer;
    PutVarint(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetVarint(&cursor).value(), value);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(VarintTest, EncodingLengths) {
  std::string buffer;
  PutVarint(127, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
  PutVarint(128, &buffer);
  EXPECT_EQ(buffer.size(), 2u);
  buffer.clear();
  PutVarint(UINT64_MAX, &buffer);
  EXPECT_EQ(buffer.size(), 10u);
}

TEST(VarintTest, TruncationDetected) {
  std::string buffer;
  PutVarint(1ull << 40, &buffer);
  std::string_view truncated(buffer.data(), buffer.size() - 1);
  EXPECT_FALSE(GetVarint(&truncated).ok());
  std::string_view empty;
  EXPECT_FALSE(GetVarint(&empty).ok());
}

TEST(ZigZagTest, RoundTrip) {
  for (int64_t value : std::vector<int64_t>{0, 1, -1, 63, -64, 1234567,
                                            -1234567, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(SignedVarintTest, RoundTrip) {
  for (int64_t value : std::vector<int64_t>{0, -5, 300, -70000, INT64_MAX,
                                            INT64_MIN}) {
    std::string buffer;
    PutSignedVarint(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetSignedVarint(&cursor).value(), value);
  }
}

TEST(DoubleCodecTest, RoundTripExact) {
  for (double value : {0.0, -0.0, 1.5, -3.25e300, 5e-324}) {
    std::string buffer;
    PutDouble(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetDouble(&cursor).value(), value);
  }
}

TEST(CodecTest, RawRoundTripBitExact) {
  const Trajectory trajectory = RandomWalk(100, 1);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kRaw, &buffer).ok());
  EXPECT_EQ(buffer.size(), 24u * trajectory.size());
  std::string_view cursor = buffer;
  const auto points =
      DecodePoints(&cursor, Codec::kRaw, trajectory.size()).value();
  EXPECT_EQ(points, trajectory.points());
}

TEST(CodecTest, DeltaRoundTripWithinQuantum) {
  const Trajectory trajectory = RandomWalk(100, 2);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kDelta, &buffer).ok());
  std::string_view cursor = buffer;
  const auto points =
      DecodePoints(&cursor, Codec::kDelta, trajectory.size()).value();
  ASSERT_EQ(points.size(), trajectory.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(points[i].t, trajectory[i].t, kTimeQuantumS / 2 + 1e-12);
    EXPECT_NEAR(points[i].position.x, trajectory[i].position.x,
                kCoordQuantumM / 2 + 1e-12);
    EXPECT_NEAR(points[i].position.y, trajectory[i].position.y,
                kCoordQuantumM / 2 + 1e-12);
  }
}

TEST(CodecTest, DeltaIsIdempotentOnQuantisedData) {
  // Once decoded (quantised), re-encoding and decoding is lossless.
  const Trajectory trajectory = RandomWalk(50, 3);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kDelta, &buffer).ok());
  std::string_view cursor = buffer;
  const Trajectory quantised = Trajectory::FromPoints(
      DecodePoints(&cursor, Codec::kDelta, trajectory.size()).value()).value();
  std::string buffer2;
  ASSERT_TRUE(EncodePoints(quantised, Codec::kDelta, &buffer2).ok());
  std::string_view cursor2 = buffer2;
  const auto again =
      DecodePoints(&cursor2, Codec::kDelta, quantised.size()).value();
  EXPECT_EQ(again, quantised.points());
}

TEST(CodecTest, DeltaBeatsRawOnRealisticStreams) {
  // 10 s sampling, tens of metres of movement per fix: deltas are small.
  const Trajectory trajectory = Line(500, 10.0, 12.0, 5.0);
  const size_t raw = EncodedSize(trajectory, Codec::kRaw).value();
  const size_t delta = EncodedSize(trajectory, Codec::kDelta).value();
  EXPECT_LT(delta * 2, raw);  // At least 2x smaller.
}

TEST(SerializationTest, RoundTrip) {
  Trajectory trajectory = RandomWalk(80, 4);
  trajectory.set_name("object-7");
  for (Codec codec : {Codec::kRaw, Codec::kDelta}) {
    const std::string frame =
        SerializeTrajectory(trajectory, codec).value();
    std::string_view cursor = frame;
    const Trajectory decoded = DeserializeTrajectory(&cursor).value();
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(decoded.name(), "object-7");
    EXPECT_EQ(decoded.size(), trajectory.size());
    if (codec == Codec::kRaw) {
      EXPECT_EQ(decoded.points(), trajectory.points());
    }
  }
}

TEST(SerializationTest, DetectsCorruption) {
  const Trajectory trajectory = RandomWalk(20, 5);
  std::string frame = SerializeTrajectory(trajectory, Codec::kDelta).value();
  frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 0x40);
  std::string_view cursor = frame;
  EXPECT_FALSE(DeserializeTrajectory(&cursor).ok());
}

TEST(SerializationTest, DetectsTruncationAndBadMagic) {
  const Trajectory trajectory = RandomWalk(20, 6);
  const std::string frame =
      SerializeTrajectory(trajectory, Codec::kRaw).value();
  std::string_view truncated(frame.data(), frame.size() - 5);
  EXPECT_FALSE(DeserializeTrajectory(&truncated).ok());
  std::string bad = frame;
  bad[0] = 'X';
  std::string_view cursor = bad;
  EXPECT_FALSE(DeserializeTrajectory(&cursor).ok());
}

TEST(SerializationTest, MultipleFramesInOneBuffer) {
  const Trajectory a = RandomWalk(10, 7);
  const Trajectory b = RandomWalk(15, 8);
  const std::string buffer = SerializeTrajectory(a, Codec::kRaw).value() +
                             SerializeTrajectory(b, Codec::kRaw).value();
  std::string_view cursor = buffer;
  EXPECT_EQ(DeserializeTrajectory(&cursor).value().size(), 10u);
  EXPECT_EQ(DeserializeTrajectory(&cursor).value().size(), 15u);
  EXPECT_TRUE(cursor.empty());
}

TEST(SerializationTest, FileRoundTrip) {
  const Trajectory trajectory = RandomWalk(30, 9);
  const std::string path = ::testing::TempDir() + "/stcomp_store_test.bin";
  ASSERT_TRUE(WriteTrajectoryFile(trajectory, Codec::kRaw, path).ok());
  EXPECT_EQ(ReadTrajectoryFile(path).value().points(), trajectory.points());
}

TEST(Crc32Test, KnownVector) {
  // The canonical test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Bitwise CRC-32 (reflected IEEE polynomial), one bit at a time: the
// definition Crc32's table-driven fast path must reproduce exactly.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xffffffffu;
  for (const char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

std::string RandomBytes(Rng* rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng->NextBelow(256));
  }
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length across the 8-byte block boundary and the byte tail, at
  // every alignment of the start pointer.
  Rng rng(20261018);
  const std::string buffer = RandomBytes(&rng, 257 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnSeededRandomBuffers) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const std::string data =
        RandomBytes(&rng, static_cast<size_t>(rng.NextBelow(1 << 14)));
    ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
        << "seed " << seed << " size " << data.size();
  }
}

TEST(TrajectoryStoreTest, InsertGetRemove) {
  TrajectoryStore store;
  const Trajectory trajectory = RandomWalk(40, 10);
  ASSERT_TRUE(store.Insert("car-1", trajectory).ok());
  EXPECT_EQ(store.Insert("car-1", trajectory).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store.object_count(), 1u);
  const Trajectory loaded = store.Get("car-1").value();
  EXPECT_EQ(loaded.size(), trajectory.size());
  EXPECT_TRUE(store.Remove("car-1").ok());
  EXPECT_EQ(store.Remove("car-1").code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Get("car-1").ok());
}

TEST(TrajectoryStoreTest, RawCodecIsLossless) {
  TrajectoryStore store(Codec::kRaw);
  const Trajectory trajectory = RandomWalk(40, 11);
  ASSERT_TRUE(store.Insert("x", trajectory).ok());
  EXPECT_EQ(store.Get("x").value().points(), trajectory.points());
}

TEST(TrajectoryStoreTest, AppendBuildsTrajectory) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Append("live", {0.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(store.Append("live", {10.0, 50.0, 0.0}).ok());
  ASSERT_TRUE(store.Append("live", {20.0, 100.0, 25.0}).ok());
  EXPECT_FALSE(store.Append("live", {20.0, 1.0, 1.0}).ok());
  const Trajectory loaded = store.Get("live").value();
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_NEAR(loaded[2].position.y, 25.0, kCoordQuantumM);
}

TEST(TrajectoryStoreTest, AppendMatchesInsertEncoding) {
  // Appending point-by-point must yield the same bytes as inserting whole.
  const Trajectory trajectory = RandomWalk(60, 12);
  TrajectoryStore whole;
  ASSERT_TRUE(whole.Insert("t", trajectory).ok());
  TrajectoryStore incremental;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(incremental.Append("t", point).ok());
  }
  EXPECT_EQ(whole.StorageBytes(), incremental.StorageBytes());
  EXPECT_EQ(whole.Get("t").value().points(),
            incremental.Get("t").value().points());
}

TEST(TrajectoryStoreTest, PositionAtAndTimeSlice) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("car", Traj({{0, 0, 0}, {10, 100, 0},
                                        {20, 100, 100}})).ok());
  EXPECT_EQ(store.PositionAt("car", 5.0).value(), Vec2(50, 0));
  EXPECT_FALSE(store.PositionAt("car", 25.0).ok());
  const Trajectory slice = store.TimeSlice("car", 5.0, 15.0).value();
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0], TimedPoint(5.0, 50.0, 0.0));
  EXPECT_EQ(slice[1], TimedPoint(10.0, 100.0, 0.0));
  EXPECT_EQ(slice[2], TimedPoint(15.0, 100.0, 50.0));
}

TEST(TrajectoryStoreTest, TimeSliceClipsAndRejects) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("car", Traj({{0, 0, 0}, {10, 100, 0}})).ok());
  const Trajectory clipped = store.TimeSlice("car", -5.0, 5.0).value();
  EXPECT_DOUBLE_EQ(clipped.front().t, 0.0);
  EXPECT_DOUBLE_EQ(clipped.back().t, 5.0);
  EXPECT_FALSE(store.TimeSlice("car", 11.0, 12.0).ok());
  EXPECT_FALSE(store.TimeSlice("ghost", 0.0, 1.0).ok());
}

TEST(TrajectoryStoreTest, ObjectsInBox) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("east", Traj({{0, 100, 0}, {10, 200, 0}})).ok());
  ASSERT_TRUE(store.Insert("north", Traj({{0, 0, 100}, {10, 0, 200}})).ok());
  const BoundingBox east_box{{50, -50}, {250, 50}};
  const auto hits = store.ObjectsInBox(east_box);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], "east");
}

TEST(TrajectoryStoreTest, StorageAccounting) {
  TrajectoryStore delta(Codec::kDelta);
  TrajectoryStore raw(Codec::kRaw);
  const Trajectory trajectory = Line(200, 10.0, 12.0, 0.0);
  ASSERT_TRUE(delta.Insert("t", trajectory).ok());
  ASSERT_TRUE(raw.Insert("t", trajectory).ok());
  EXPECT_LT(delta.StorageBytes(), raw.StorageBytes() / 2);
  EXPECT_EQ(raw.StorageBytes(), 24u * trajectory.size());
}

}  // namespace
}  // namespace stcomp
