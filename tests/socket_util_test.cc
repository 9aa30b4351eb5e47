// socket_util (net/socket_util.h): SetNoDelay turns Nagle off on both
// ends of a loopback TCP connection — the socket a client dials and the
// one a listener accepts — as the ingest path's ack latency requires
// (DESIGN.md §18).

#include "stcomp/net/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace stcomp::net {
namespace {

int NoDelayOf(int fd) {
  int value = -1;
  socklen_t size = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &size), 0);
  return value;
}

TEST(SocketUtilTest, NoDelayOnDialedAndAcceptedSockets) {
  Result<Listener> listener = ListenLoopback(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();

  const int dialed = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(dialed, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener->port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(dialed, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const int accepted = ::accept(listener->fd, nullptr, nullptr);
  ASSERT_GE(accepted, 0);

  // Nagle is on by default; the helper is what turns it off.
  EXPECT_EQ(NoDelayOf(dialed), 0);
  ASSERT_TRUE(SetNoDelay(dialed).ok());
  EXPECT_NE(NoDelayOf(dialed), 0);
  ASSERT_TRUE(SetNoDelay(accepted).ok());
  EXPECT_NE(NoDelayOf(accepted), 0);

  ::close(accepted);
  ::close(dialed);
  ::close(listener->fd);
}

TEST(SocketUtilTest, NoDelayOnNonSocketFails) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  EXPECT_EQ(SetNoDelay(pipe_fds[0]).code(), StatusCode::kUnavailable);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

}  // namespace
}  // namespace stcomp::net
