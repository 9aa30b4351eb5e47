// IngestServer robustness contract (net/ingest_server.h): handshake and
// acked-batch semantics, exactly-once resume across reconnects, typed
// protocol-error quarantine for malformed and out-of-state frames, the
// handshake/slow-loris deadline, session-cap shedding with GOAWAY,
// graceful drain on Stop(), /ingestz rendering and the stcomp_net_*
// counters. Uses the real FleetClient where the client is cooperative
// and a raw socket where the test IS the hostile peer.

#include "stcomp/net/ingest_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/net/fleet_client.h"
#include "stcomp/net/frame.h"
#include "test_util.h"

namespace stcomp::net {
namespace {

// A thread-safe recording sink standing in for the fleet engine.
class RecordingSink {
 public:
  Status Push(std::string_view object_id, const TimedPoint& fix) {
    std::lock_guard<std::mutex> lock(mu_);
    fixes_[std::string(object_id)].push_back(fix);
    return Status::Ok();
  }

  IngestServer::PushFn AsPushFn() {
    return [this](std::string_view id, const TimedPoint& fix) {
      return Push(id, fix);
    };
  }

  std::vector<TimedPoint> Get(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    return fixes_[id];
  }

  size_t total() {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [id, fixes] : fixes_) n += fixes.size();
    return n;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<TimedPoint>> fixes_;
};

// A raw blocking TCP connection for playing hostile peer.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(std::string_view bytes) {
    ASSERT_TRUE(SendAll(fd_, bytes).ok());
  }

  // Best-effort write for sends the server may race with a close of
  // this socket (e.g. after fencing the session); failure is fine.
  void SendBestEffort(std::string_view bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  // Blocks up to `timeout_ms` for the next complete frame.
  Result<NetFrame> ReadFrame(int timeout_ms = 2000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      NetFrame frame;
      Status error;
      FrameScan scan = reader_.Next(&frame, &error);
      if (scan == FrameScan::kFrame) return frame;
      if (scan == FrameScan::kError) return error;
      if (std::chrono::steady_clock::now() >= deadline) {
        return UnavailableError("timed out waiting for frame");
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return UnavailableError("peer closed");
      reader_.Append(std::string_view(chunk, n));
    }
  }

  // True once the server closes the connection (EOF).
  bool WaitForClose(int timeout_ms = 2000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return true;
      reader_.Append(std::string_view(chunk, n));
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameReader reader_;
};

IngestServerOptions FastOptions(const std::string& instance) {
  IngestServerOptions options;
  options.instance = instance;
  options.idle_timeout_s = 30.0;
  options.handshake_timeout_s = 5.0;
  return options;
}

TEST(IngestServer, HandshakeBatchAckFlow) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-basic"));
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  FleetClientOptions copts;
  copts.port = server.port();
  copts.client_id = "veh-1";
  copts.batch_size = 4;
  FleetClient client(copts);
  ASSERT_TRUE(client.Connect().ok());

  Trajectory walk = testutil::RandomWalk(10, 77);
  for (const TimedPoint& p : walk.points()) {
    ASSERT_TRUE(client.Push("veh-1", p).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.fixes_pushed(), 10u);
  EXPECT_EQ(client.batches_acked(), 3u);  // 4 + 4 + 2

  std::vector<TimedPoint> got = sink.Get("veh-1");
  ASSERT_EQ(got.size(), walk.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, walk.points()[i].t);
    EXPECT_EQ(got[i].position.x, walk.points()[i].position.x);
    EXPECT_EQ(got[i].position.y, walk.points()[i].position.y);
  }
  EXPECT_TRUE(client.Bye().ok());
  EXPECT_EQ(server.batches_acked(), 3u);
  EXPECT_EQ(server.fixes_in(), 10u);
  server.Stop();
}

TEST(IngestServer, DuplicateBatchReackedWithoutReapplying) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-dup"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-dup")));
  Result<NetFrame> hello_ack = conn.ReadFrame();
  ASSERT_TRUE(hello_ack.ok()) << hello_ack.status();
  ASSERT_EQ(hello_ack->type, NetMessageType::kHelloAck);
  EXPECT_EQ(hello_ack->last_acked, 0u);

  std::vector<NetFix> fixes = {{"veh-dup", TimedPoint(1.0, 2.0, 3.0)}};
  const std::string batch = EncodeNetFrame(NetFrame::Batch(1, fixes));
  conn.Send(batch);
  Result<NetFrame> ack1 = conn.ReadFrame();
  ASSERT_TRUE(ack1.ok());
  EXPECT_EQ(ack1->type, NetMessageType::kBatchAck);
  EXPECT_EQ(ack1->batch_seq, 1u);

  // The identical batch again — the lost-ack resend shape. Must be acked
  // again and applied exactly once.
  conn.Send(batch);
  Result<NetFrame> ack2 = conn.ReadFrame();
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->type, NetMessageType::kBatchAck);
  EXPECT_EQ(ack2->batch_seq, 1u);

  EXPECT_EQ(sink.Get("veh-dup").size(), 1u);
  EXPECT_EQ(server.duplicate_batches(), 1u);
  server.Stop();
}

TEST(IngestServer, BatchSeqGapIsProtocolError) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-gap"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-gap")));
  ASSERT_TRUE(conn.ReadFrame().ok());

  std::vector<NetFix> fixes = {{"veh-gap", TimedPoint(1.0, 0.0, 0.0)}};
  conn.Send(EncodeNetFrame(NetFrame::Batch(3, fixes)));  // expected seq 1
  Result<NetFrame> error = conn.ReadFrame();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, NetMessageType::kError);
  EXPECT_EQ(static_cast<NetErrorCode>(error->code), NetErrorCode::kProtocol);
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_EQ(sink.total(), 0u);
  EXPECT_GE(server.protocol_errors(), 1u);
  server.Stop();
}

TEST(IngestServer, BatchBeforeHelloIsProtocolError) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-nohello"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  std::vector<NetFix> fixes = {{"x", TimedPoint(0.0, 0.0, 0.0)}};
  conn.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
  Result<NetFrame> error = conn.ReadFrame();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, NetMessageType::kError);
  EXPECT_EQ(static_cast<NetErrorCode>(error->code), NetErrorCode::kProtocol);
  EXPECT_TRUE(conn.WaitForClose());
  server.Stop();
}

TEST(IngestServer, MalformedBytesGetTypedErrorAndClose) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-garbage"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  // An HTTP request on the ingest port — realistic operator error.
  conn.Send("GET /metrics HTTP/1.0\r\n\r\n");
  Result<NetFrame> error = conn.ReadFrame();
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->type, NetMessageType::kError);
  EXPECT_EQ(static_cast<NetErrorCode>(error->code),
            NetErrorCode::kMalformedFrame);
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_GE(server.protocol_errors(), 1u);
  server.Stop();
}

TEST(IngestServer, CorruptedFrameAfterHandshakeIsQuarantined) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-corrupt"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-c")));
  ASSERT_TRUE(conn.ReadFrame().ok());

  std::vector<NetFix> fixes = {{"veh-c", TimedPoint(1.0, 2.0, 3.0)}};
  std::string bad = EncodeNetFrame(NetFrame::Batch(1, fixes));
  bad[bad.size() - 6] = static_cast<char>(bad[bad.size() - 6] ^ 0x7f);
  conn.Send(bad);
  Result<NetFrame> error = conn.ReadFrame();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, NetMessageType::kError);
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_EQ(sink.total(), 0u);  // the corrupt batch must not apply
  server.Stop();
}

TEST(IngestServer, ResumeAfterDisconnectReportsAckHighWaterMark) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-resume"));
  ASSERT_TRUE(server.Start(0).ok());

  std::vector<NetFix> fixes = {{"veh-r", TimedPoint(1.0, 2.0, 3.0)}};
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.Send(EncodeNetFrame(NetFrame::Hello("veh-r")));
    ASSERT_TRUE(conn.ReadFrame().ok());
    conn.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
    ASSERT_TRUE(conn.ReadFrame().ok());
    // Hard disconnect: no Bye — the RawConn destructor just closes.
  }
  // Reconnect under the same client id: the kHelloAck must say batch 1
  // is already in, so a client rewinds nothing it already delivered.
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-r")));
  Result<NetFrame> hello_ack = conn.ReadFrame();
  ASSERT_TRUE(hello_ack.ok());
  EXPECT_EQ(hello_ack->last_acked, 1u);
  // Resending the acked batch (the conservative client move) is a no-op.
  conn.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
  Result<NetFrame> ack = conn.ReadFrame();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, NetMessageType::kBatchAck);
  EXPECT_EQ(sink.Get("veh-r").size(), 1u);
  server.Stop();
}

TEST(IngestServer, HelloFencesZombieSessionSharingClientId) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-fence"));
  ASSERT_TRUE(server.Start(0).ok());

  // The session that will become the zombie: hello, batch 1, ack — then
  // it leaves HALF of batch 2 in the server's reassembly buffer.
  RawConn zombie(server.port());
  ASSERT_TRUE(zombie.connected());
  zombie.Send(EncodeNetFrame(NetFrame::Hello("veh-fence")));
  ASSERT_TRUE(zombie.ReadFrame().ok());
  std::vector<NetFix> fixes = {{"veh-fence", TimedPoint(1.0, 2.0, 3.0)}};
  zombie.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
  ASSERT_TRUE(zombie.ReadFrame().ok());
  const std::string batch2 = EncodeNetFrame(NetFrame::Batch(2, fixes));
  zombie.Send(std::string_view(batch2).substr(0, batch2.size() / 2));

  // The device reconnects: same client id, fresh socket. The hello must
  // fence the zombie with a typed GOAWAY(superseded)...
  RawConn fresh(server.port());
  ASSERT_TRUE(fresh.connected());
  fresh.Send(EncodeNetFrame(NetFrame::Hello("veh-fence")));
  Result<NetFrame> hello_ack = fresh.ReadFrame();
  ASSERT_TRUE(hello_ack.ok()) << hello_ack.status();
  ASSERT_EQ(hello_ack->type, NetMessageType::kHelloAck);
  EXPECT_EQ(hello_ack->last_acked, 1u);

  Result<NetFrame> goaway = zombie.ReadFrame();
  ASSERT_TRUE(goaway.ok()) << goaway.status();
  EXPECT_EQ(goaway->type, NetMessageType::kGoAway);
  EXPECT_EQ(static_cast<GoAwayReason>(goaway->code),
            GoAwayReason::kSuperseded);

  // ...and completing batch 2 on the fenced socket must go nowhere.
  // Without the fence and the shared seq gate, both connections would
  // pass their own session-local `seq == last + 1` check and the batch
  // would apply twice; the replacement replays it and the sink must see
  // it exactly once.
  zombie.SendBestEffort(std::string_view(batch2).substr(batch2.size() / 2));
  EXPECT_TRUE(zombie.WaitForClose());
  fresh.Send(batch2);
  Result<NetFrame> ack = fresh.ReadFrame();
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->type, NetMessageType::kBatchAck);
  EXPECT_EQ(ack->batch_seq, 2u);
  EXPECT_EQ(sink.Get("veh-fence").size(), 2u);
  server.Stop();
}

TEST(IngestServer, HandshakeDeadlineClosesSilentConnections) {
  RecordingSink sink;
  IngestServerOptions options = FastOptions("t-loris");
  options.handshake_timeout_s = 0.2;
  IngestServer server(sink.AsPushFn(), options);
  ASSERT_TRUE(server.Start(0).ok());

  // The slow-loris shape: connect and send nothing.
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  Result<NetFrame> goaway = conn.ReadFrame(3000);
  ASSERT_TRUE(goaway.ok()) << goaway.status();
  EXPECT_EQ(goaway->type, NetMessageType::kGoAway);
  EXPECT_EQ(static_cast<GoAwayReason>(goaway->code),
            GoAwayReason::kIdleTimeout);
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_GE(server.idle_timeouts(), 1u);
  server.Stop();
}

TEST(IngestServer, SessionCapShedsNewestWithGoAway) {
  RecordingSink sink;
  IngestServerOptions options = FastOptions("t-shed");
  options.max_sessions = 2;
  IngestServer server(sink.AsPushFn(), options);
  ASSERT_TRUE(server.Start(0).ok());

  RawConn a(server.port()), b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  a.Send(EncodeNetFrame(NetFrame::Hello("a")));
  b.Send(EncodeNetFrame(NetFrame::Hello("b")));
  ASSERT_TRUE(a.ReadFrame().ok());
  ASSERT_TRUE(b.ReadFrame().ok());

  RawConn c(server.port());
  ASSERT_TRUE(c.connected());
  Result<NetFrame> goaway = c.ReadFrame();
  ASSERT_TRUE(goaway.ok()) << goaway.status();
  EXPECT_EQ(goaway->type, NetMessageType::kGoAway);
  EXPECT_EQ(static_cast<GoAwayReason>(goaway->code),
            GoAwayReason::kOverloaded);
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_EQ(server.sessions_shed(), 1u);
  server.Stop();
}

TEST(IngestServer, StopDrainsBufferedFramesAndSendsGoAway) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-drain"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-d")));
  ASSERT_TRUE(conn.ReadFrame().ok());

  std::vector<NetFix> fixes = {{"veh-d", TimedPoint(1.0, 2.0, 3.0)}};
  conn.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
  // Give the poll loop a beat to buffer (possibly not yet process) it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();

  // The batch the server accepted before stopping must have applied.
  EXPECT_EQ(sink.Get("veh-d").size(), 1u);
  // And the goodbye must be a typed GOAWAY(draining), not a bare RST
  // (the ack may arrive first — read until the GOAWAY).
  bool saw_goaway = false;
  for (int i = 0; i < 3 && !saw_goaway; ++i) {
    Result<NetFrame> frame = conn.ReadFrame(500);
    if (!frame.ok()) break;
    if (frame->type == NetMessageType::kGoAway) {
      EXPECT_EQ(static_cast<GoAwayReason>(frame->code),
                GoAwayReason::kDraining);
      saw_goaway = true;
    }
  }
  EXPECT_TRUE(saw_goaway);
}

TEST(IngestServer, IngestzRendersServerAndSessionState) {
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-ingestz"));
  ASSERT_TRUE(server.Start(0).ok());

  FleetClientOptions copts;
  copts.port = server.port();
  copts.client_id = "veh-z";
  copts.batch_size = 2;
  FleetClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Push("veh-z", TimedPoint(0.0, 1.0, 2.0)).ok());
  ASSERT_TRUE(client.Push("veh-z", TimedPoint(1.0, 2.0, 3.0)).ok());
  ASSERT_TRUE(client.Flush().ok());

  const std::string json = server.RenderIngestzJson();
  EXPECT_NE(json.find("\"server\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sessions\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"client\":\"veh-z\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"instance\":\"t-ingestz\""), std::string::npos);
  EXPECT_NE(json.find("\"batches_acked\":1"), std::string::npos) << json;
  server.Stop();
  // After Stop the surface still renders (draining=true, no sessions).
  const std::string after = server.RenderIngestzJson();
  EXPECT_NE(after.find("\"draining\":true"), std::string::npos) << after;
}

TEST(IngestServer, FailingSinkFailsBatchWithoutAck) {
  // A sink that refuses everything: the batch must surface as a typed
  // kInternal error, never an ack — so the client retries it later and
  // no fix is silently dropped.
  IngestServer server(
      [](std::string_view, const TimedPoint&) {
        return InternalError("sink on fire");
      },
      FastOptions("t-sinkfail"));
  ASSERT_TRUE(server.Start(0).ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeNetFrame(NetFrame::Hello("veh-f")));
  ASSERT_TRUE(conn.ReadFrame().ok());
  std::vector<NetFix> fixes = {{"veh-f", TimedPoint(0.0, 0.0, 0.0)}};
  conn.Send(EncodeNetFrame(NetFrame::Batch(1, fixes)));
  Result<NetFrame> error = conn.ReadFrame();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, NetMessageType::kError);
  EXPECT_EQ(static_cast<NetErrorCode>(error->code), NetErrorCode::kInternal);
  EXPECT_EQ(server.batches_acked(), 0u);
  server.Stop();
}

TEST(IngestServer, ClientSurvivesServerSideSessionKill) {
  // End-to-end resume through the real client: push through one
  // connection, have the server idle-kill it, keep pushing — the client
  // reconnects and nothing is lost or duplicated.
  RecordingSink sink;
  IngestServerOptions options = FastOptions("t-kill");
  IngestServer server(sink.AsPushFn(), options);
  ASSERT_TRUE(server.Start(0).ok());

  FleetClientOptions copts;
  copts.port = server.port();
  copts.client_id = "veh-k";
  copts.batch_size = 3;
  FleetClient client(copts);
  ASSERT_TRUE(client.Connect().ok());

  Trajectory walk = testutil::RandomWalk(9, 123);
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Push("veh-k", walk.points()[i]).ok());
  }
  ASSERT_TRUE(client.Flush().ok());

  // Simulate a mid-life network partition by restarting the server's
  // view of the session: stop/start would lose acked_ state, so instead
  // drop the client's own socket via a fresh client with the same id —
  // the server-side high-water mark is what resume is built on.
  FleetClient client2(copts);
  ASSERT_TRUE(client2.Connect().ok());
  for (size_t i = 6; i < 9; ++i) {
    ASSERT_TRUE(client2.Push("veh-k", walk.points()[i]).ok());
  }
  ASSERT_TRUE(client2.Bye().ok());

  // One client id == one monotone seq space. client2's process-local
  // numbering would restart at 1 — already acked for veh-k, so the
  // server would drop its batches as duplicates. The kHelloAck said
  // last_acked=2 (two batches of 3), and FleetClient fast-forwards its
  // seq space past it, so client2's first batch goes out as seq 3.
  std::vector<TimedPoint> got = sink.Get("veh-k");
  ASSERT_EQ(got.size(), walk.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, walk.points()[i].t) << "fix " << i;
  }
  server.Stop();
}

TEST(IngestServer, ClosedLoopAckRoundTripIsFast) {
  // A closed loop of reports, each four 64-fix batches and a Flush() that
  // waits for their acks. With Nagle on either end, an ack or batch
  // written behind an unacknowledged one waits out the peer's delayed
  // ACK (~40 ms), so 100 reports take at least 4 s; with TCP_NODELAY and
  // one ack write per poll pass they take milliseconds each.
  constexpr size_t kReports = 100;
  constexpr size_t kBatchSize = 64;
  constexpr size_t kFixesPerReport = 4 * kBatchSize;
  RecordingSink sink;
  IngestServer server(sink.AsPushFn(), FastOptions("t-ack-loop"));
  ASSERT_TRUE(server.Start(0).ok());

  FleetClientOptions copts;
  copts.port = server.port();
  copts.client_id = "veh-loop";
  copts.batch_size = kBatchSize;
  FleetClient client(copts);
  ASSERT_TRUE(client.Connect().ok());

  const Trajectory walk =
      testutil::RandomWalk(static_cast<int>(kReports * kFixesPerReport), 31);
  const auto start = std::chrono::steady_clock::now();
  size_t next = 0;
  for (size_t report = 0; report < kReports; ++report) {
    for (size_t i = 0; i < kFixesPerReport; ++i) {
      ASSERT_TRUE(client.Push("veh-loop", walk.points()[next++]).ok());
    }
    ASSERT_TRUE(client.Flush().ok());
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0) << "closed loop of " << kReports << " reports";
  EXPECT_EQ(client.batches_acked(), kReports * 4);
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(sink.total(), walk.size());
  server.Stop();
}

}  // namespace
}  // namespace stcomp::net
