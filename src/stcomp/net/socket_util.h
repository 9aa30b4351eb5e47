// Hardened POSIX socket plumbing shared by every listener in the tree —
// the obs admin server and the net ingest server link the same
// implementation, so the slow-loris deadline, the MSG_NOSIGNAL write
// discipline and the loopback-only bind policy are fixed in exactly one
// place (DESIGN.md §18).
//
// Everything here is deliberately low-level and allocation-light: Status
// in, Status out, no exceptions, no ownership of file descriptors beyond
// what each function documents. The wire-fault seam (WireFault /
// SendAllFaulty) is how the chaos soak and the fleet-client retry tests
// inject mid-frame disconnects, stalled sockets, split writes and byte
// corruption into an otherwise-real TCP path.

#ifndef STCOMP_NET_SOCKET_UTIL_H_
#define STCOMP_NET_SOCKET_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "stcomp/common/result.h"

namespace stcomp::net {

// A bound, listening TCP socket. `port` is the actual bound port (useful
// when the caller asked for 0 = ephemeral). The caller owns `fd`.
struct Listener {
  int fd = -1;
  uint16_t port = 0;
};

// Creates a loopback-only (127.0.0.1) TCP listener with SO_REUSEADDR.
// Every server in this tree binds loopback: the surfaces expose object
// ids and internals, and the ingest path has no auth — never forward the
// port off a trusted host. kUnavailable on any socket/bind/listen error.
Result<Listener> ListenLoopback(uint16_t port, int backlog);

// Puts `fd` into non-blocking mode (O_NONBLOCK).
Status SetNonBlocking(int fd);

// Disables Nagle's algorithm (TCP_NODELAY) on a connected TCP socket.
// Every ingest socket needs it: a frame queued behind an unacknowledged
// one would otherwise wait out the peer's delayed ACK (~40 ms on Linux),
// and a request/ack protocol pays that wait on every round trip.
Status SetNoDelay(int fd);

// Writes all of `data`, retrying on EINTR, always with MSG_NOSIGNAL so a
// peer that disconnects mid-write surfaces as a Status (EPIPE), never as
// a SIGPIPE that kills the embedding process. Blocks until everything is
// written or the peer is gone. kUnavailable when the connection died.
Status SendAll(int fd, std::string_view data);

// How a deadline-bounded read ended.
enum class ReadOutcome {
  kComplete,  // `done(buffer)` returned true
  kDeadline,  // wall-clock deadline expired first
  kClosed,    // peer closed (or a read error) before completion
  kStopped,   // `running` flipped false (server shutdown)
  kOverflow,  // buffer reached max_bytes without completing
};

// Accumulates bytes from `fd` into `*buffer` until `done(*buffer)` is
// true, bounding the whole read by a wall-clock `deadline` — a per-read
// timeout alone would let a client trickling one byte every few seconds
// pin a serving thread (and block Stop()) for hours. `running` (may be
// null) is re-checked between polls so shutdown is observed promptly;
// `max_bytes` caps the buffer so a misbehaving client cannot balloon it.
ReadOutcome ReadUntil(int fd, size_t max_bytes,
                      std::chrono::steady_clock::time_point deadline,
                      const std::atomic<bool>* running,
                      const std::function<bool(std::string_view)>& done,
                      std::string* buffer);

// --- Wire-fault injection seam ---------------------------------------
//
// A WireFault describes one transport-level misbehaviour to apply to a
// single write. Deterministic plans (testing/FaultPlan::NextWireFault)
// produce these; production code passes no hook and pays nothing.

struct WireFault {
  enum class Kind : uint8_t {
    kNone = 0,
    kDisconnect,   // write only [0, offset), then report the link dead
    kStall,        // sleep stall_ms, then write normally
    kSplitWrite,   // write [0, offset), yield briefly, write the rest
    kCorruptSpan,  // XOR-corrupt `length` bytes starting at offset
  };
  Kind kind = Kind::kNone;
  size_t offset = 0;
  size_t length = 0;
  uint64_t stall_ms = 0;
};

// Decides the fault for one write of `write_size` bytes.
using WireFaultHook = std::function<WireFault(size_t write_size)>;

// SendAll with `hook` (may be empty) consulted once per call. On
// kDisconnect the prefix is written and kUnavailable("injected
// disconnect") is returned — the caller must treat the connection as
// dead and close the fd, exactly as it would for a real peer reset.
Status SendAllFaulty(int fd, std::string_view data,
                     const WireFaultHook& hook);

}  // namespace stcomp::net

#endif  // STCOMP_NET_SOCKET_UTIL_H_
