#include "stcomp/net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "stcomp/common/strings.h"

namespace stcomp::net {

Result<Listener> ListenLoopback(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return UnavailableError(StrFormat("bind(127.0.0.1:%u) failed: %s",
                                      static_cast<unsigned>(port),
                                      std::strerror(err)));
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    return UnavailableError(
        StrFormat("listen() failed: %s", std::strerror(err)));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const int err = errno;
    ::close(fd);
    return UnavailableError(
        StrFormat("getsockname() failed: %s", std::strerror(err)));
  }
  Listener listener;
  listener.fd = fd;
  listener.port = ntohs(bound.sin_port);
  return listener;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return UnavailableError(
        StrFormat("fcntl(O_NONBLOCK) failed: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return UnavailableError(
        StrFormat("setsockopt(TCP_NODELAY) failed: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

Status SendAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that disconnects mid-write must surface as
    // EPIPE here, not as a SIGPIPE whose default action kills the whole
    // embedding process.
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The socket may be non-blocking (ingest server control frames);
        // wait for writability instead of spinning.
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, /*timeout_ms=*/100);
        continue;
      }
      return UnavailableError(
          StrFormat("send() failed: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

ReadOutcome ReadUntil(int fd, size_t max_bytes,
                      std::chrono::steady_clock::time_point deadline,
                      const std::atomic<bool>* running,
                      const std::function<bool(std::string_view)>& done,
                      std::string* buffer) {
  char chunk[1024];
  while (true) {
    if (done(*buffer)) {
      return ReadOutcome::kComplete;
    }
    if (buffer->size() >= max_bytes) {
      return ReadOutcome::kOverflow;
    }
    if (running != nullptr && !running->load(std::memory_order_acquire)) {
      return ReadOutcome::kStopped;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return ReadOutcome::kDeadline;
    }
    // Short poll slices so both the deadline and `running` are observed
    // promptly even against a byte-trickling client.
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>(std::min<long long>(remaining.count(), 100));
    if (::poll(&pfd, 1, timeout_ms) < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      continue;  // poll timed out; re-check deadline and running
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return ReadOutcome::kClosed;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

Status SendAllFaulty(int fd, std::string_view data,
                     const WireFaultHook& hook) {
  if (!hook) {
    return SendAll(fd, data);
  }
  const WireFault fault = hook(data.size());
  switch (fault.kind) {
    case WireFault::Kind::kNone:
      return SendAll(fd, data);
    case WireFault::Kind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.stall_ms));
      return SendAll(fd, data);
    case WireFault::Kind::kSplitWrite: {
      const size_t split = std::min(fault.offset, data.size());
      STCOMP_RETURN_IF_ERROR(SendAll(fd, data.substr(0, split)));
      // Yield so the receiver really observes two reads, exercising the
      // torn-frame reassembly path rather than a coalesced delivery.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return SendAll(fd, data.substr(split));
    }
    case WireFault::Kind::kCorruptSpan: {
      std::string corrupted(data);
      const size_t start = std::min(fault.offset, corrupted.size());
      const size_t end =
          std::min(start + std::max<size_t>(fault.length, 1), corrupted.size());
      for (size_t i = start; i < end; ++i) {
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5a);
      }
      return SendAll(fd, corrupted);
    }
    case WireFault::Kind::kDisconnect: {
      const size_t cut = std::min(fault.offset, data.size());
      // Best-effort prefix: the injected failure may race a real one.
      (void)SendAll(fd, data.substr(0, cut));
      return UnavailableError("injected disconnect");
    }
  }
  return SendAll(fd, data);
}

}  // namespace stcomp::net
