#include "pipeline/query_server.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/engine_snapshot.hpp"
#include "pipeline/live_session.hpp"
#include "pipeline/thread_pool.hpp"
#include "stream/source.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

namespace {

/// Split a request line on single spaces (empty tokens dropped).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Longest request line a well-formed request needs, newline excluded:
/// the longest verb (`member`), an IXP name and two ASNs, single-spaced,
/// plus the '\r' of a CRLF client.
std::size_t max_request_line(const LiveSession& session) {
  constexpr std::size_t kVerb = sizeof("member") - 1;
  constexpr std::size_t kAsn = std::numeric_limits<std::uint32_t>::digits10 + 1;
  std::size_t ixp = 0;
  for (const auto& snap : session.epoch_snapshots())
    ixp = std::max(ixp, snap->ixp().size());
  return kVerb + 1 + ixp + 2 * (1 + kAsn) + 1;
}

/// Send one response line; false when the client has gone away.
/// MSG_NOSIGNAL: a hung-up client must not raise SIGPIPE in the server.
[[nodiscard]] bool write_line(int fd, std::string_view line) {
  while (!line.empty()) {
    const ssize_t n = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    line.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool parse_asn(const std::string& token, std::uint32_t& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Wait until `fd` is readable or the deadline/stop flag fires. Returns
/// false on stop/error, true when readable.
bool wait_readable(int fd, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready > 0) return (pfd.revents & (POLLIN | POLLHUP)) != 0;
  }
  return false;
}

}  // namespace

QueryServer::QueryServer(const LiveSession& session, Options options)
    : session_(session), max_line_(max_request_line(session)) {
  const stream::TcpListener listener = stream::open_tcp_listener(options.port);
  listener_fd_ = listener.fd;
  port_ = listener.port;
  const int creator_cpu = ::sched_getcpu();
  thread_ = std::thread([this, creator_cpu] {
    leave_cpu(creator_cpu);
    serve();
  });
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listener_fd_ != -1) {
    stream::close_fd(listener_fd_);
    listener_fd_ = -1;
  }
}

void QueryServer::serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!wait_readable(listener_fd_, stop_)) continue;  // stop re-checked
    const int fd = stream::tcp_accept(listener_fd_);
    if (fd < 0) continue;  // interrupted accept: loop re-checks stop
    serve_connection(fd);
    stream::close_fd(fd);
  }
}

void QueryServer::serve_connection(int fd) {
  // Holds at most max_line_ bytes between reads; `scanned` is the prefix
  // already known to hold no newline, so each byte is searched once.
  std::string buffer;
  std::size_t scanned = 0;
  std::uint8_t chunk[4096];
  while (!stop_.load(std::memory_order_acquire)) {
    std::size_t newline = 0;
    while ((newline = buffer.find('\n', scanned)) != std::string::npos) {
      if (newline > max_line_) break;
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == "quit") {
        (void)write_line(fd, "ok bye\n");
        return;
      }
      queries_.fetch_add(1, std::memory_order_relaxed);
      if (!write_line(fd, respond(line) + "\n")) return;
    }
    scanned = buffer.size();
    if (buffer.size() > max_line_) {
      (void)write_line(fd, "err line too long\n");
      return;
    }
    if (!wait_readable(fd, stop_)) return;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // EOF or hard error: connection done
    }
    buffer.append(reinterpret_cast<const char*>(chunk),
                  static_cast<std::size_t>(n));
  }
}

std::string QueryServer::respond(const std::string& line) const {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) return "err empty request";
  const std::string& verb = tokens[0];

  if (verb == "ixps") {
    const auto snapshots = session_.epoch_snapshots();
    std::string out = "ok " + std::to_string(snapshots.size());
    for (const auto& snap : snapshots) out += " " + snap->ixp();
    return out;
  }

  if (verb != "epoch" && verb != "stats" && verb != "link" &&
      verb != "links" && verb != "member")
    return "err unknown verb " + verb;

  // Every remaining verb addresses one IXP: resolve its published epoch
  // first (one atomic load; the rest of the answer reads the immutable
  // snapshot, so one response line is internally consistent).
  if (tokens.size() < 2) return "err " + verb + ": missing ixp";
  std::shared_ptr<const core::EngineSnapshot> snap;
  try {
    snap = session_.epoch_snapshot(tokens[1]);
  } catch (const InvalidArgument&) {
    return "err unknown ixp " + tokens[1];
  }

  if (verb == "epoch") {
    return "ok epoch=" + std::to_string(snap->epoch()) +
           " generation=" + std::to_string(snap->generation());
  }
  if (verb == "stats") {
    // The frontier/backlog gauges read the shard's queue (its own mutex,
    // shared only with merge bookkeeping -- never feeds_mutex_ or a lane
    // mutex), so `stats` stays off the ingest hot path like every other
    // verb while still reporting how far the snapshot may trail the
    // feeds.
    const std::size_t index = session_.ixp_index(tokens[1]);
    const std::uint32_t frontier = session_.merge_frontier(index);
    const core::EngineStats& stats = snap->stats();
    std::string out =
        "ok rs_members=" + std::to_string(stats.rs_members) +
        " observed=" + std::to_string(stats.observed_members) +
        " links=" + std::to_string(stats.links) +
        " observations=" + std::to_string(stats.observations) +
        " rejected=" + std::to_string(snap->rejected_observations()) +
        " epoch=" + std::to_string(snap->epoch()) + " frontier=";
    // The sentinel means "unconstrained" (no watermark-publishing source
    // open): render it as `none` rather than a bogus timestamp.
    out += frontier == std::numeric_limits<std::uint32_t>::max()
               ? "none"
               : std::to_string(frontier);
    out += " backlog=" + std::to_string(session_.merge_backlog(index));
    return out;
  }
  if (verb == "link") {
    std::uint32_t a = 0, b = 0;
    if (tokens.size() != 4 || !parse_asn(tokens[2], a) ||
        !parse_asn(tokens[3], b))
      return "err link: want `link <ixp> <asn> <asn>`";
    return snap->has_link(a, b) ? "ok true" : "ok false";
  }
  if (verb == "links") {
    std::uint32_t asn = 0;
    if (tokens.size() != 3 || !parse_asn(tokens[2], asn))
      return "err links: want `links <ixp> <asn>`";
    const std::vector<core::Asn> partners = snap->links_of(asn);
    std::string out = "ok " + std::to_string(partners.size());
    for (const core::Asn partner : partners)
      out += " " + std::to_string(partner);
    return out;
  }
  if (verb == "member") {
    std::uint32_t asn = 0;
    if (tokens.size() != 3 || !parse_asn(tokens[2], asn))
      return "err member: want `member <ixp> <asn>`";
    if (!snap->is_member(asn)) return "ok non-member";
    return snap->is_observed(asn) ? "ok observed" : "ok unobserved";
  }
  return "err unknown verb " + verb;  // unreachable: verbs checked above
}

}  // namespace mlp::pipeline
