// The ISSUE 10 acceptance gate: a seeded chaos soak over a real TCP
// loopback path. Several concurrent FleetClients stream a simulated
// fleet into an IngestServer feeding a ShardedFleetCompressor while a
// per-client FaultPlan injects mid-frame disconnects, stalled sockets,
// split writes and corrupted spans into every socket write. Asserts:
//
//   1. the server never dies and never leaks a session;
//   2. every fix the clients pushed arrives exactly once (acked batches
//      survive disconnects, duplicates are never re-applied);
//   3. the compressed store is bit-identical — per object, down to the
//      serialized bytes — to in-process ingest of the same fleet.
//
// Everything is deterministic in kSoakSeed: a failure reproduces from
// the seed in the failure message alone. Runs under ASan/UBSan and TSan
// in scripts/check.sh (the TSan pass is what certifies the poll-thread /
// client-thread / metrics-reader interleavings).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/common/strings.h"
#include "stcomp/net/fleet_client.h"
#include "stcomp/net/ingest_server.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/serialization.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/sharded_fleet.h"
#include "stcomp/testing/fault_plan.h"
#include "test_util.h"

namespace stcomp {
namespace {

constexpr uint64_t kSoakSeed = 20260807;
constexpr size_t kClients = 6;
constexpr size_t kObjectsPerClient = 4;
constexpr size_t kFixesPerObject = 120;

std::unique_ptr<OnlineCompressor> MakeOpw() {
  return std::make_unique<OpeningWindowStream>(
      25.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
}

ShardedFleetOptions EngineOptions(const std::string& instance) {
  ShardedFleetOptions options;
  options.num_shards = 4;
  options.queue_capacity = 64;
  options.instance = instance;
  return options;
}

std::string ObjectId(size_t client, size_t object) {
  return StrFormat("veh-%zu-%zu", client, object);
}

// The fleet: per-object random walks, deterministic in the soak seed.
std::map<std::string, Trajectory> BuildFleet() {
  std::map<std::string, Trajectory> fleet;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t o = 0; o < kObjectsPerClient; ++o) {
      fleet.emplace(ObjectId(c, o),
                    testutil::RandomWalk(
                        static_cast<int>(kFixesPerObject),
                        kSoakSeed + c * kObjectsPerClient + o));
    }
  }
  return fleet;
}

TEST(NetChaosSoak, AckedFixesSurviveWireChaosBitIdentically) {
  const std::map<std::string, Trajectory> fleet = BuildFleet();

  // --- Reference: in-process ingest of the same fleet. ---------------
  ShardedFleetCompressor reference(MakeOpw, EngineOptions("soak-ref"));
  for (const auto& [id, walk] : fleet) {
    for (const TimedPoint& p : walk.points()) {
      ASSERT_TRUE(reference.Push(id, p).ok());
    }
  }
  ASSERT_TRUE(reference.FinishAll().ok());

  // --- System under chaos: the same fleet over real TCP. -------------
  ShardedFleetCompressor engine(MakeOpw, EngineOptions("soak-net"));
  net::IngestServerOptions server_options;
  server_options.instance = "soak-server";
  net::IngestServer server(
      [&engine](std::string_view id, const TimedPoint& fix) {
        return engine.Push(id, fix);
      },
      server_options);
  ASSERT_TRUE(server.Start(0).ok());

  std::atomic<size_t> client_failures{0};
  std::atomic<uint64_t> total_reconnects{0};
  std::vector<std::string> fault_logs(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // One seeded fault plan per client: every socket write can draw a
      // disconnect, corrupt span, split write or stall.
      testing::FaultPlan plan(kSoakSeed * 1000 + c);
      net::FleetClientOptions copts;
      copts.port = server.port();
      copts.client_id = StrFormat("client-%zu", c);
      copts.batch_size = 16;
      copts.max_reconnects = 200;
      copts.fault_hook = [&plan](size_t write_size) {
        return plan.NextWireFault(write_size);
      };
      net::FleetClient client(copts);

      // Interleave this client's objects round-robin, per-object time
      // order preserved — the fleet-feed shape.
      bool ok = true;
      for (size_t i = 0; ok && i < kFixesPerObject; ++i) {
        for (size_t o = 0; ok && o < kObjectsPerClient; ++o) {
          const std::string id = ObjectId(c, o);
          ok = client.Push(id, fleet.at(id).points()[i]).ok();
        }
      }
      if (ok) ok = client.Bye().ok();
      if (!ok) {
        client_failures.fetch_add(1);
        fault_logs[c] = plan.Describe();
      }
      total_reconnects.fetch_add(client.reconnects());
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::string failed_plans;
  for (const std::string& log : fault_logs) {
    if (!log.empty()) failed_plans += log + " ";
  }
  ASSERT_EQ(client_failures.load(), 0u)
      << "soak seed " << kSoakSeed << "; failing plans: " << failed_plans;

  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u) << "leaked sessions after Stop";
  ASSERT_TRUE(engine.FinishAll().ok());

  // The chaos layer must actually have bitten for the soak to certify
  // anything: with these seeds the clients reconnect many times.
  EXPECT_GT(total_reconnects.load(), 0u)
      << "chaos plan injected no disconnects — soak is vacuous";
  EXPECT_GT(server.sessions_accepted(), kClients)
      << "no reconnections ever reached the server";

  // --- The headline: exactly-once, bit-identical. --------------------
  // Every fix arrived exactly once and in order iff each object's
  // compressed output — and its serialized bytes — equals the reference.
  EXPECT_EQ(server.fixes_in(),
            kClients * kObjectsPerClient * kFixesPerObject)
      << "applied-fix count differs: lost or duplicated batches";
  for (const auto& [id, walk] : fleet) {
    Result<Trajectory> got = engine.Get(id);
    Result<Trajectory> want = reference.Get(id);
    ASSERT_TRUE(got.ok()) << id << ": " << got.status();
    ASSERT_TRUE(want.ok()) << id << ": " << want.status();
    ASSERT_EQ(got->size(), want->size()) << id;
    for (size_t i = 0; i < got->size(); ++i) {
      ASSERT_EQ(got->points()[i].t, want->points()[i].t) << id;
      ASSERT_EQ(got->points()[i].position.x, want->points()[i].position.x)
          << id;
      ASSERT_EQ(got->points()[i].position.y, want->points()[i].position.y)
          << id;
    }
    Result<std::string> got_bytes = SerializeTrajectory(*got, Codec::kDelta);
    Result<std::string> want_bytes =
        SerializeTrajectory(*want, Codec::kDelta);
    ASSERT_TRUE(got_bytes.ok());
    ASSERT_TRUE(want_bytes.ok());
    EXPECT_EQ(*got_bytes, *want_bytes)
        << id << ": serialized bytes diverge (seed " << kSoakSeed << ")";
  }
}

TEST(NetChaosSoak, ServerSurvivesPureGarbageFlood) {
  // A second, nastier angle: raw corrupt byte blobs (FaultPlan-mutated
  // valid frames) thrown at the port from several threads. The server
  // must shrug every one off with a typed close — counters move, nothing
  // crashes, and a well-behaved client still gets service afterwards.
  net::IngestServerOptions options;
  options.instance = "soak-garbage";
  std::atomic<size_t> sunk{0};
  net::IngestServer server(
      [&sunk](std::string_view, const TimedPoint&) {
        sunk.fetch_add(1);
        return Status::Ok();
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());

  std::vector<std::thread> floods;
  for (size_t t = 0; t < 4; ++t) {
    floods.emplace_back([&, t] {
      testing::FaultPlanOptions aggressive;
      aggressive.bit_flip_per_byte = 0.05;
      testing::FaultPlan plan(kSoakSeed + 31 * t, aggressive);
      for (size_t round = 0; round < 24; ++round) {
        std::vector<net::NetFix> fixes = {
            {"junk", TimedPoint(static_cast<double>(round), 1.0, 2.0)}};
        std::string bytes =
            EncodeNetFrame(net::NetFrame::Hello("flood")) +
            EncodeNetFrame(net::NetFrame::Batch(round + 1, fixes));
        net::FleetClientOptions copts;
        copts.port = server.port();
        copts.client_id = "unused";
        // Raw socket spray via the client's dial path would handshake;
        // use a bare connection instead.
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd);
          continue;
        }
        net::SendAll(fd, plan.CorruptBytes(bytes)).ok();
        ::close(fd);
      }
    });
  }
  for (std::thread& thread : floods) thread.join();

  // Service still works for a polite client.
  net::FleetClientOptions copts;
  copts.port = server.port();
  copts.client_id = "survivor";
  net::FleetClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Push("obj", TimedPoint(0.0, 1.0, 2.0)).ok());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.Bye().ok());
  EXPECT_EQ(sunk.load(), 1u);
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
}

}  // namespace
}  // namespace stcomp
