#include "stcomp/net/ingest_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "stcomp/common/strings.h"
#include "stcomp/net/socket_util.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/flight_recorder.h"

namespace stcomp::net {
namespace {

// Poll slice: bounds how stale deadline enforcement and the running_
// flag can get when no socket is ready.
constexpr int kPollSliceMs = 50;

// Non-blocking read chunk. Small enough that one greedy session cannot
// starve the poll loop; the loop comes back for the rest next tick.
constexpr size_t kReadChunk = 4096;

std::atomic<uint64_t> g_instance_counter{1};

double SecondsSince(std::chrono::steady_clock::time_point then,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - then).count();
}

}  // namespace

IngestServer::IngestServer(PushFn push, IngestServerOptions options)
    : push_(std::move(push)), options_(std::move(options)) {
  instance_ = options_.instance.empty()
                  ? StrFormat("ingest-%llu",
                              static_cast<unsigned long long>(
                                  g_instance_counter.fetch_add(1)))
                  : options_.instance;
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels = {{"server", instance_}};
  accepted_ =
      registry.GetCounter("stcomp_net_sessions_accepted_total", labels);
  shed_ = registry.GetCounter("stcomp_net_sessions_shed_total", labels);
  protocol_errors_ =
      registry.GetCounter("stcomp_net_protocol_errors_total", labels);
  batches_acked_ =
      registry.GetCounter("stcomp_net_batches_acked_total", labels);
  duplicate_batches_ =
      registry.GetCounter("stcomp_net_duplicate_batches_total", labels);
  fixes_in_ = registry.GetCounter("stcomp_net_fixes_in_total", labels);
  frames_in_ = registry.GetCounter("stcomp_net_frames_in_total", labels);
  bytes_in_ = registry.GetCounter("stcomp_net_bytes_in_total", labels);
  bytes_out_ = registry.GetCounter("stcomp_net_bytes_out_total", labels);
  idle_timeouts_ =
      registry.GetCounter("stcomp_net_idle_timeouts_total", labels);
  resumed_sessions_ =
      registry.GetCounter("stcomp_net_resumed_sessions_total", labels);
  active_sessions_gauge_ =
      registry.GetGauge("stcomp_net_sessions_active", labels);
  buffered_bytes_gauge_ =
      registry.GetGauge("stcomp_net_buffered_bytes", labels);
}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("ingest server already running");
  }
  STCOMP_ASSIGN_OR_RETURN(Listener listener, ListenLoopback(port, 128));
  STCOMP_RETURN_IF_ERROR(SetNonBlocking(listener.fd));
  listen_fd_ = listener.fd;
  port_ = listener.port;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&IngestServer::Serve, this);
  return Status::Ok();
}

void IngestServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  // Drain ran on the poll thread on its way out (it sees running_ false).
}

size_t IngestServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void IngestServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    // Build the poll set: listener + every live session. Session ids are
    // snapshotted alongside so map mutation during processing is safe.
    std::vector<pollfd> pfds;
    std::vector<uint64_t> ids;
    pfds.push_back({listen_fd_, POLLIN, 0});
    ids.push_back(0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, session] : sessions_) {
        short events = POLLIN;
        if (!session->outbound.empty()) events |= POLLOUT;
        pfds.push_back({session->fd, events, 0});
        ids.push_back(id);
      }
    }
    int ready = ::poll(pfds.data(), pfds.size(), kPollSliceMs);
    if (ready < 0 && errno != EINTR) break;
    if (!running_.load(std::memory_order_acquire)) break;

    if (pfds[0].revents & POLLIN) AcceptPending();

    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Session* session = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(ids[i]);
        if (it == sessions_.end()) continue;
        session = it->second.get();
      }
      // Only the poll thread erases sessions, so the pointer stays valid
      // without holding mu_ (Push may block; never call it under a lock).
      bool alive = true;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfds[i].revents & (POLLIN | POLLHUP))) {
        alive = ReadSession(session);
        if (alive) ProcessFrames(session);
      }
      // One send per session per pass: every ack and control frame this
      // pass queued (plus any backlog POLLOUT reported room for) leaves
      // in a single write.
      if (alive && !session->outbound.empty()) alive = FlushSession(session);
      if (alive && session->closing && session->outbound.empty()) {
        alive = false;  // error/GOAWAY fully flushed; hang up
      }
      if (!alive) CloseSession(ids[i]);
    }

    EnforceDeadlines();

    // Sweep sessions marked closing whose farewell frame is fully
    // flushed — deadline-triggered GOAWAYs produce no poll event, so the
    // per-event close check above never sees them.
    std::vector<uint64_t> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, session] : sessions_) {
        if (session->closing && session->outbound.empty()) done.push_back(id);
      }
    }
    for (uint64_t id : done) CloseSession(id);
  }
  DrainAndCloseAll();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void IngestServer::AcceptPending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: accepted everything pending
    }
    // Acks are small frames written while earlier ones may still be
    // unacknowledged; without TCP_NODELAY Nagle holds them for the
    // client's delayed ACK.
    if (!SetNonBlocking(fd).ok() || !SetNoDelay(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    session->reader =
        std::make_unique<FrameReader>(options_.max_payload_bytes);
    session->accepted_at = std::chrono::steady_clock::now();
    session->last_activity = session->accepted_at;
    Session* raw = session.get();
    size_t active;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.emplace(raw->id, std::move(session));
      active = sessions_.size();
    }
    accepted_->Increment();
    active_sessions_gauge_->Set(static_cast<double>(active));
    STCOMP_FLIGHT_EVENT(kNetAccept, instance_, raw->id, active);
    if (active > options_.max_sessions) {
      GoAwaySession(raw, GoAwayReason::kOverloaded, "session limit reached");
    }
  }
}

bool IngestServer::ReadSession(Session* session) {
  char chunk[kReadChunk];
  while (true) {
    ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      session->last_activity = std::chrono::steady_clock::now();
      bytes_in_->Increment(static_cast<uint64_t>(n));
      // A closing session's bytes are ignored: its fate is sealed, and
      // buffering more input for a peer we are hanging up on is waste.
      if (!session->closing) {
        session->reader->Append(std::string_view(chunk, n));
        RefreshBufferGauge(session);
        const size_t session_total =
            session->reader->buffered_bytes() + session->outbound.size();
        if (session_total > options_.session_buffer_budget ||
            TotalBufferedBytes() > options_.global_buffer_budget) {
          GoAwaySession(session, GoAwayReason::kOverloaded,
                        "buffer budget exhausted");
          return true;
        }
      }
      if (static_cast<size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n == 0) return false;  // orderly peer close
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void IngestServer::ProcessFrames(Session* session) {
  while (!session->closing) {
    NetFrame frame;
    Status error;
    FrameScan scan = session->reader->Next(&frame, &error);
    if (scan == FrameScan::kNeedMore) break;
    if (scan == FrameScan::kError) {
      NetErrorCode code = NetErrorCode::kMalformedFrame;
      if (error.code() == StatusCode::kUnimplemented) {
        code = NetErrorCode::kBadVersion;
      } else if (error.code() == StatusCode::kOutOfRange) {
        // ScanNetFrame's typed verdict for a declared payload over the
        // cap; every other framing error arrives as kDataLoss.
        code = NetErrorCode::kOversizedFrame;
      }
      ProtocolError(session, code, std::string(error.message()));
      break;
    }
    frames_in_->Increment();
    HandleFrame(session, frame);
  }
  RefreshBufferGauge(session);
}

void IngestServer::HandleFrame(Session* session, const NetFrame& frame) {
  if (!session->hello_done && frame.type != NetMessageType::kHello) {
    ProtocolError(session, NetErrorCode::kProtocol,
                  StrFormat("%s before hello",
                            std::string(NetMessageTypeName(frame.type))
                                .c_str()));
    return;
  }
  switch (frame.type) {
    case NetMessageType::kHello: {
      if (session->hello_done) {
        ProtocolError(session, NetErrorCode::kProtocol, "duplicate hello");
        return;
      }
      if (frame.client_id.empty()) {
        ProtocolError(session, NetErrorCode::kProtocol, "empty client id");
        return;
      }
      uint64_t last_acked = 0;
      bool resumed = false;
      std::vector<Session*> stale;
      {
        std::lock_guard<std::mutex> lock(mu_);
        session->client_id = frame.client_id;
        auto it = acked_.find(frame.client_id);
        if (it != acked_.end()) {
          last_acked = it->second;
          resumed = true;
        }
        for (const auto& [id, other] : sessions_) {
          if (other.get() != session && other->hello_done &&
              !other->closing && other->client_id == frame.client_id) {
            stale.push_back(other.get());
          }
        }
      }
      // A still-open session speaking for this client id is a zombie —
      // its device reconnected. Fence it now so frames it already wrote
      // to its socket can never be applied alongside the new
      // connection's (one client id, one live connection, one seq
      // space).
      for (Session* zombie : stale) {
        GoAwaySession(zombie, GoAwayReason::kSuperseded,
                      "client reconnected on a new connection");
      }
      session->hello_done = true;
      session->last_acked.store(last_acked, std::memory_order_relaxed);
      if (resumed) resumed_sessions_->Increment();
      QueueFrame(session, NetFrame::HelloAck(session->id, last_acked));
      return;
    }
    case NetMessageType::kBatch:
      HandleBatch(session, frame);
      return;
    case NetMessageType::kBye:
      // Clean goodbye: flush whatever acks are queued, then close. The
      // acked_ entry survives for a future reconnect.
      session->closing = true;
      return;
    case NetMessageType::kHelloAck:
    case NetMessageType::kBatchAck:
    case NetMessageType::kError:
    case NetMessageType::kGoAway:
      ProtocolError(session, NetErrorCode::kProtocol,
                    StrFormat("client sent server-only frame %s",
                              std::string(NetMessageTypeName(frame.type))
                                  .c_str()));
      return;
  }
  ProtocolError(session, NetErrorCode::kProtocol, "unhandled frame type");
}

void IngestServer::HandleBatch(Session* session, const NetFrame& frame) {
  // Gate against the per-client high-water mark in acked_, never a
  // session-local snapshot: if two sessions ever share a client id (a
  // zombie connection racing its replacement past the hello fence),
  // each session's own snapshot would pass its own `last + 1` check and
  // the same batch would apply twice. All batch handling runs on the
  // single poll thread, so this read and the store below cannot
  // interleave with another session's.
  uint64_t last = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = acked_.find(session->client_id);
    if (it != acked_.end()) last = it->second;
  }
  if (frame.batch_seq <= last) {
    // A resend of something already applied (the client missed our ack,
    // or rewound conservatively after reconnect): re-ack, never re-apply
    // — this is the exactly-once half the seq gate buys.
    duplicate_batches_->Increment();
    QueueFrame(session, NetFrame::BatchAck(frame.batch_seq));
    return;
  }
  if (frame.batch_seq != last + 1) {
    ProtocolError(session, NetErrorCode::kProtocol,
                  StrFormat("batch seq gap: got %llu, expected %llu",
                            static_cast<unsigned long long>(frame.batch_seq),
                            static_cast<unsigned long long>(last + 1)));
    return;
  }
  // Apply, then ack. push_ may block on shard-queue backpressure — that
  // is by design: this thread stops reading sockets, TCP windows fill,
  // and the devices slow down. If the process dies mid-batch the batch
  // was never acked, so the client replays it and per-object monotonic
  // ordering downstream discards nothing (the batch simply applies then).
  for (const NetFix& net_fix : frame.fixes) {
    Status pushed = push_(net_fix.object_id, net_fix.fix);
    if (!pushed.ok()) {
      ProtocolError(session, NetErrorCode::kInternal,
                    std::string(pushed.message()));
      return;
    }
  }
  session->last_acked.store(frame.batch_seq, std::memory_order_relaxed);
  session->fixes.fetch_add(frame.fixes.size(), std::memory_order_relaxed);
  session->batches_acked.fetch_add(1, std::memory_order_relaxed);
  fixes_in_->Increment(frame.fixes.size());
  batches_acked_->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    acked_[session->client_id] = frame.batch_seq;
  }
  QueueFrame(session, NetFrame::BatchAck(frame.batch_seq));
}

void IngestServer::QueueFrame(Session* session, const NetFrame& frame) {
  session->outbound.append(EncodeNetFrame(frame));
  RefreshBufferGauge(session);
}

void IngestServer::ProtocolError(Session* session, NetErrorCode code,
                                 std::string message) {
  if (session->closing) return;
  protocol_errors_->Increment();
  STCOMP_FLIGHT_EVENT(kNetProtocolError, instance_, session->id,
                      static_cast<uint64_t>(code));
  QueueFrame(session, NetFrame::Error(code, std::move(message)));
  session->closing = true;
}

void IngestServer::GoAwaySession(Session* session, GoAwayReason reason,
                                 std::string message) {
  if (session->closing) return;
  if (reason == GoAwayReason::kOverloaded) {
    shed_->Increment();
    STCOMP_FLIGHT_EVENT(kNetShed, instance_, session->id,
                        static_cast<uint64_t>(reason));
  } else if (reason == GoAwayReason::kIdleTimeout) {
    idle_timeouts_->Increment();
  }
  QueueFrame(session, NetFrame::GoAway(reason, std::move(message)));
  session->closing = true;
}

bool IngestServer::FlushSession(Session* session) {
  while (!session->outbound.empty()) {
    ssize_t n = ::send(session->fd, session->outbound.data(),
                       session->outbound.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_->Increment(static_cast<uint64_t>(n));
      session->outbound.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      RefreshBufferGauge(session);
      return true;  // kernel buffer full; POLLOUT will resume us
    }
    return false;  // peer gone
  }
  RefreshBufferGauge(session);
  return true;
}

void IngestServer::CloseSession(uint64_t session_id) {
  std::unique_ptr<Session> session;
  size_t active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
    active = sessions_.size();
  }
  ::close(session->fd);
  total_buffered_.fetch_sub(
      session->buffered_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  active_sessions_gauge_->Set(static_cast<double>(active));
  STCOMP_IF_METRICS(
      buffered_bytes_gauge_->Set(static_cast<double>(TotalBufferedBytes())));
}

void IngestServer::EnforceDeadlines() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Session*> idle;
  std::vector<Session*> no_hello;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->closing) continue;
      if (!session->hello_done &&
          SecondsSince(session->accepted_at, now) >
              options_.handshake_timeout_s) {
        no_hello.push_back(session.get());
      } else if (SecondsSince(session->last_activity, now) >
                 options_.idle_timeout_s) {
        idle.push_back(session.get());
      }
    }
  }
  // A handshake that never arrives is the slow-loris shape: hold the fd,
  // send nothing. Typed close, not a hang.
  for (Session* session : no_hello) {
    GoAwaySession(session, GoAwayReason::kIdleTimeout, "handshake timeout");
  }
  for (Session* session : idle) {
    GoAwaySession(session, GoAwayReason::kIdleTimeout, "idle timeout");
  }
}

void IngestServer::DrainAndCloseAll() {
  // 1. Every complete frame already buffered is processed (and acked) so
  //    no fix a client believes delivered rides the floor.
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  size_t drained = 0;
  for (uint64_t id : ids) {
    Session* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;
      session = it->second.get();
    }
    ProcessFrames(session);
    if (!session->closing) {
      GoAwaySession(session, GoAwayReason::kDraining, "server draining");
    }
    ++drained;
  }
  // 2. Give buffered acks/GOAWAYs drain_timeout_s to reach their peers.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.drain_timeout_s));
  bool pending = true;
  while (pending && std::chrono::steady_clock::now() < deadline) {
    pending = false;
    for (uint64_t id : ids) {
      Session* session = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(id);
        if (it == sessions_.end()) continue;
        session = it->second.get();
      }
      if (!FlushSession(session)) {
        CloseSession(id);
      } else if (!session->outbound.empty()) {
        pending = true;
      }
    }
    if (pending) {
      struct pollfd dummy = {-1, 0, 0};
      ::poll(&dummy, 1, 10);  // brief nap; kernel buffers need a moment
    }
  }
  // 3. Hang up on whatever is left.
  for (uint64_t id : ids) CloseSession(id);
  STCOMP_FLIGHT_EVENT(kNetDrain, instance_, drained, batches_acked_->value());
}

size_t IngestServer::TotalBufferedBytes() const {
  return total_buffered_.load(std::memory_order_relaxed);
}

void IngestServer::RefreshBufferGauge(Session* session) {
  const size_t now =
      session->reader->buffered_bytes() + session->outbound.size();
  const size_t before =
      session->buffered_bytes.exchange(now, std::memory_order_relaxed);
  // Unsigned wraparound makes the delta exact even when now < before,
  // keeping the running total in lockstep without iterating sessions —
  // the global budget check runs per read chunk and must stay O(1).
  total_buffered_.fetch_add(now - before, std::memory_order_relaxed);
  STCOMP_IF_METRICS(
      buffered_bytes_gauge_->Set(static_cast<double>(TotalBufferedBytes())));
}

std::string IngestServer::RenderIngestzJson() const {
  const auto now = std::chrono::steady_clock::now();
  std::string out;
  out.reserve(1024);
  out += StrFormat(
      "{\"server\":{\"instance\":\"%s\",\"port\":%u,"
      "\"active_sessions\":%zu,\"accepted\":%llu,\"shed\":%llu,"
      "\"protocol_errors\":%llu,\"idle_timeouts\":%llu,"
      "\"batches_acked\":%llu,\"duplicate_batches\":%llu,"
      "\"fixes\":%llu,\"bytes_in\":%llu,\"bytes_out\":%llu,"
      "\"draining\":%s},\"sessions\":[",
      obs::JsonEscape(instance_).c_str(), port_, active_sessions(),
      static_cast<unsigned long long>(accepted_->value()),
      static_cast<unsigned long long>(shed_->value()),
      static_cast<unsigned long long>(protocol_errors_->value()),
      static_cast<unsigned long long>(idle_timeouts_->value()),
      static_cast<unsigned long long>(batches_acked_->value()),
      static_cast<unsigned long long>(duplicate_batches_->value()),
      static_cast<unsigned long long>(fixes_in_->value()),
      static_cast<unsigned long long>(bytes_in_->value()),
      static_cast<unsigned long long>(bytes_out_->value()),
      running_.load(std::memory_order_acquire) ? "false" : "true");
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [id, session] : sessions_) {
      if (!first) out += ',';
      first = false;
      out += StrFormat(
          "{\"id\":%llu,\"client\":\"%s\",\"fixes\":%llu,"
          "\"batches_acked\":%llu,\"last_acked\":%llu,"
          "\"buffer_bytes\":%zu,\"age_seconds\":%.3f}",
          static_cast<unsigned long long>(id),
          obs::JsonEscape(session->client_id).c_str(),
          static_cast<unsigned long long>(
              session->fixes.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              session->batches_acked.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              session->last_acked.load(std::memory_order_relaxed)),
          session->buffered_bytes.load(std::memory_order_relaxed),
          SecondsSince(session->accepted_at, now));
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace stcomp::net
