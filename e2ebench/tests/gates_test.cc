// Each gate passes on this code and fails on a deliberately wrong
// reference; the workloads themselves run end to end with every gate on.

#include "gates.h"

#include <cmath>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "fleet.h"
#include "stcomp/stream/sharded_fleet.h"
#include "workloads.h"

namespace e2ebench {
namespace {

std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ("e2ebench_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// A small fleet ingested through the two-shard engine into a durable
// store, as the workloads do it, then reopened.
struct SmallStore {
  Fleet fleet = Fleet::Generate({5, 6});
  std::unique_ptr<stcomp::PartitionedSegmentStore> store;

  explicit SmallStore(const std::string& dir) {
    {
      std::unique_ptr<stcomp::PartitionedSegmentStore> writer = OpenStore(dir);
      stcomp::ShardedFleetOptions options;
      options.num_shards = kShards;
      stcomp::ShardedFleetCompressor engine(MakeOpwTr, writer.get(), options);
      for (size_t object = 0; object < fleet.size(); ++object) {
        for (const stcomp::TimedPoint& fix : fleet.trip(object).points()) {
          EXPECT_TRUE(engine.Push(fleet.id(object), fix).ok());
        }
      }
      EXPECT_TRUE(engine.FinishAll().ok());
      EXPECT_TRUE(writer->Checkpoint().ok());
    }
    store = OpenStore(dir);
  }
};

TEST(IngestGateTest, MatchesCompressStreamAndRejectsAWrongReference) {
  const SmallStore small(TestDir("ingest_gate"));
  auto wrong_epsilon = [] {
    return std::make_unique<stcomp::OpeningWindowStream>(
        kOpwTrEpsilonM * 0.9, stcomp::algo::BreakPolicy::kNormal,
        stcomp::StreamCriterion::kSynchronized);
  };
  for (size_t object = 0; object < small.fleet.size(); ++object) {
    const stcomp::Trajectory& feed = small.fleet.trip(object);
    const std::vector<stcomp::TimedPoint> got =
        small.store->Get(small.fleet.id(object)).value().points();
    EXPECT_EQ(ComparePoints(
                  got, StoredReference(feed, MakeOpwTr, stcomp::Codec::kDelta)
                           .value()),
              "");
    EXPECT_NE(ComparePoints(got, StoredReference(feed, wrong_epsilon,
                                                 stcomp::Codec::kDelta)
                                     .value()),
              "");
    // Unquantised points are not what the delta codec stores.
    EXPECT_NE(
        ComparePoints(
            got, StoredReference(feed, MakeOpwTr, stcomp::Codec::kRaw).value()),
        "");
  }
}

TEST(IngestGateTest, ComparePointsIsBitwise) {
  const std::vector<stcomp::TimedPoint> points = {{0.0, 1.0, 2.0},
                                                  {1.0, 3.0, 4.0}};
  std::vector<stcomp::TimedPoint> other = points;
  EXPECT_EQ(ComparePoints(other, points), "");
  other[1].position.y = std::nextafter(4.0, 5.0);
  EXPECT_NE(ComparePoints(other, points), "");
  other = points;
  other[0].t = -0.0;  // Equal as a double, not as bits.
  EXPECT_NE(ComparePoints(other, points), "");
  other = points;
  other.pop_back();
  EXPECT_NE(ComparePoints(other, points), "");
}

TEST(IngestGateTest, EveryUncleanCounterFails) {
  EXPECT_EQ(CheckIngestCounters({}), "");
  EXPECT_NE(CheckIngestCounters({1, 0, 0, 0}), "");
  EXPECT_NE(CheckIngestCounters({0, 1, 0, 0}), "");
  EXPECT_NE(CheckIngestCounters({0, 0, 1, 0}), "");
  EXPECT_NE(CheckIngestCounters({0, 0, 0, 1}), "");
}

TEST(QueryGateTest, EngineMatchesOracleAndAWrongOracleFails) {
  const SmallStore small(TestDir("query_gate"));
  stcomp::QueryRequest range;
  range.type = stcomp::QueryType::kRange;
  range.box = small.fleet.extent();
  range.declared_error_m = kOpwTrEpsilonM;
  stcomp::QueryRequest nearest;
  nearest.type = stcomp::QueryType::kNearest;
  nearest.point = small.fleet.extent().min;
  nearest.k = 3;
  for (const stcomp::QueryRequest& request : {range, nearest}) {
    const stcomp::QueryAnswer got = small.store->Query(request).value();
    const stcomp::QueryAnswer want =
        PartitionedOracle(*small.store, request).value();
    ASSERT_FALSE(want.hits.empty());
    EXPECT_EQ(CompareAnswers(got, want), "");

    stcomp::QueryAnswer wrong = want;
    wrong.hits.pop_back();
    EXPECT_NE(CompareAnswers(got, wrong), "");
    wrong = want;
    wrong.hits[0].id += "x";
    EXPECT_NE(CompareAnswers(got, wrong), "");
    wrong = want;
    stcomp::QueryHit& hit = wrong.hits[0];
    hit.first_hit_t = std::nextafter(hit.first_hit_t, 1e300);
    hit.distance_m = std::nextafter(hit.distance_m, 1e300);
    EXPECT_NE(CompareAnswers(got, wrong), "");
    wrong = want;
    wrong.error_bound_m += 1.0;
    EXPECT_NE(CompareAnswers(got, wrong), "");
  }
}

TEST(SweepGateTest, CountsCellsThatDifferFromTheFirstPass) {
  SweepPass first(2, std::vector<stcomp::SweepPoint>(3));
  first[1][2].sync_error_mean_m = 12.5;
  SweepPass pass = first;
  EXPECT_EQ(CountSweepMismatches(pass, first), 0u);
  pass[1][2].sync_error_mean_m = std::nextafter(12.5, 13.0);
  pass[0][0].area_error_m = 1.0;
  EXPECT_EQ(CountSweepMismatches(pass, first), 2u);
  pass = first;
  pass[0].pop_back();
  EXPECT_EQ(CountSweepMismatches(pass, first), 2u);
  pass = first;
  pass.pop_back();
  EXPECT_EQ(CountSweepMismatches(pass, first), 3u);
}

// Every workload end to end, briefly, with all gates on.
class WorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadTest, RunsCleanAndReportsItsMetrics) {
  for (const bool trace : {false, true}) {
    RunOptions options;
    options.seed = 2;
    options.seconds = 0.5;
    options.trace = trace;
    options.work_dir = TestDir(std::string("workload_") + GetParam());
    const std::string workload = GetParam();
    const Report report =
        workload == "ingest_stream" ? RunIngest(options, false)
        : workload == "ingest_ack"  ? RunIngest(options, true)
        : workload == "store_query" ? RunStoreQuery(options)
                                    : RunPaperSweep(options);
    for (const std::string& note : report.notes) {
      EXPECT_EQ(note.find("GATE FAILED"), std::string::npos) << note;
    }
    EXPECT_TRUE(report.correct);
    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.failed, 0u);
    Report complete = report;
    ASSERT_EQ(CompleteMetrics(trace, &complete), "");
    const std::vector<MetricSpec>& specs =
        trace ? PerLayerMetrics() : EndToEndMetrics();
    ASSERT_EQ(complete.metrics.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(complete.metrics[i].name, specs[i].name);
      EXPECT_TRUE(std::isfinite(complete.metrics[i].value)) << specs[i].name;
      if (!trace) {
        EXPECT_GT(complete.metrics[i].value, 0.0) << specs[i].name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("ingest_stream", "ingest_ack",
                                           "store_query", "paper_sweep"));

}  // namespace
}  // namespace e2ebench
