#include "stream/source.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "util/errors.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace mlp::stream {

namespace {
std::atomic<const std::atomic<bool>*> g_interrupt_flag{nullptr};
}  // namespace

void set_interrupt_flag(const std::atomic<bool>* flag) {
  g_interrupt_flag.store(flag, std::memory_order_release);
}

bool interrupt_requested() {
  const std::atomic<bool>* flag =
      g_interrupt_flag.load(std::memory_order_acquire);
  return flag != nullptr && flag->load(std::memory_order_relaxed);
}

MemorySource::MemorySource(std::vector<std::uint8_t> data,
                           std::size_t max_chunk)
    : data_(std::move(data)), max_chunk_(std::max<std::size_t>(1, max_chunk)) {}

std::size_t MemorySource::read(std::span<std::uint8_t> out) {
  const std::size_t n =
      std::min({out.size(), max_chunk_, data_.size() - pos_});
  // An empty source has no buffer: memcpy from a null pointer is
  // undefined even for zero bytes.
  if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n);
  pos_ += n;
  return n;
}

#ifndef _WIN32

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw ParseError(what + ": " + std::strerror(errno));
}

}  // namespace

FdSource::FdSource(int fd, bool owned) : fd_(fd), owned_(owned) {
  if (fd_ < 0) throw InvalidArgument("FdSource: bad file descriptor");
}

FdSource::~FdSource() {
  if (owned_) ::close(fd_);
}

std::size_t FdSource::read(std::span<std::uint8_t> out) {
  if (out.empty()) return 0;
  for (;;) {
    const ssize_t n = ::read(fd_, out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) {
      // A graceful-shutdown signal interrupted the wait: end the stream
      // so the reader unwinds normally instead of blocking again.
      if (interrupt_requested()) return 0;
      continue;
    }
    fail_errno("FdSource: read failed");
  }
}

FdPair open_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) fail_errno("open_pipe");
  return FdPair{fds[0], fds[1]};
}

FdPair open_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    fail_errno("open_socketpair");
  return FdPair{fds[0], fds[1]};
}

FdPair open_tcp_loopback() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) fail_errno("open_tcp_loopback: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    fail_errno("open_tcp_loopback: bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listener);
    fail_errno("open_tcp_loopback: getsockname");
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client < 0) {
    ::close(listener);
    fail_errno("open_tcp_loopback: socket");
  }
  // Loopback connect with the listener's backlog already posted cannot
  // block indefinitely, so the connect-then-accept order is safe
  // single-threaded.
  if (::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(client);
    ::close(listener);
    fail_errno("open_tcp_loopback: connect");
  }
  const int accepted = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (accepted < 0) {
    ::close(client);
    fail_errno("open_tcp_loopback: accept");
  }
  return FdPair{accepted, client};
}

TcpListener open_tcp_listener(std::uint16_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) fail_errno("open_tcp_listener: socket");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 4) != 0) {
    ::close(listener);
    fail_errno("open_tcp_listener: bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listener);
    fail_errno("open_tcp_listener: getsockname");
  }
  return TcpListener{listener, ntohs(addr.sin_port)};
}

int tcp_accept(int listener_fd) {
  for (;;) {
    const int accepted = ::accept(listener_fd, nullptr, nullptr);
    if (accepted >= 0) return accepted;
    if (errno == EINTR) {
      if (interrupt_requested()) return -1;
      continue;
    }
    fail_errno("tcp_accept");
  }
}

int tcp_listen_accept(std::uint16_t port) {
  const TcpListener listener = open_tcp_listener(port);
  int accepted = -1;
  try {
    accepted = tcp_accept(listener.fd);
  } catch (...) {
    ::close(listener.fd);
    throw;
  }
  ::close(listener.fd);
  if (accepted < 0) throw ParseError("tcp_listen_accept: interrupted");
  return accepted;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw InvalidArgument("tcp_connect: not an IPv4 address: " + host);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("tcp_connect: socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    fail_errno("tcp_connect: connect to " + host + ":" +
               std::to_string(port));
  }
  return fd;
}

void write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write_all");
    }
    written += static_cast<std::size_t>(n);
  }
}

void close_fd(int fd) { ::close(fd); }

#else  // _WIN32: the fd transports are POSIX-only; the in-memory source
       // above still works everywhere.

FdSource::FdSource(int, bool) {
  throw InvalidArgument("FdSource: not supported on this platform");
}
FdSource::~FdSource() = default;
std::size_t FdSource::read(std::span<std::uint8_t>) { return 0; }
FdPair open_pipe() {
  throw InvalidArgument("open_pipe: not supported on this platform");
}
FdPair open_socketpair() {
  throw InvalidArgument("open_socketpair: not supported on this platform");
}
FdPair open_tcp_loopback() {
  throw InvalidArgument(
      "open_tcp_loopback: not supported on this platform");
}
TcpListener open_tcp_listener(std::uint16_t) {
  throw InvalidArgument(
      "open_tcp_listener: not supported on this platform");
}
int tcp_accept(int) {
  throw InvalidArgument("tcp_accept: not supported on this platform");
}
int tcp_listen_accept(std::uint16_t) {
  throw InvalidArgument(
      "tcp_listen_accept: not supported on this platform");
}
int tcp_connect(const std::string&, std::uint16_t) {
  throw InvalidArgument("tcp_connect: not supported on this platform");
}
void write_all(int, std::span<const std::uint8_t>) {
  throw InvalidArgument("write_all: not supported on this platform");
}
void close_fd(int) {}

#endif

}  // namespace mlp::stream
