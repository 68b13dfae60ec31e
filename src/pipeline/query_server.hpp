// Lock-free line-protocol query front end over a LiveSession.
//
// Grown from the `mlp_infer serve` scaffolding: a loopback TCP server
// whose every answer comes from the session's PUBLISHED EPOCHS
// (LiveSession::epoch_snapshot) -- one atomic shared_ptr load per
// query, never feeds_mutex_, never a lane mutex, never a pool settle.
// Readers therefore scale independently of ingest: the feed threads
// keep framing/decoding/merging while any number of clients query, and
// a query's answer is at most one publish cadence
// (LiveConfig::publish_every_batches) behind the engines.
//
// Protocol (newline-terminated requests, one response line each;
// responses start with "ok " or "err "):
//
//   ixps                       ok <n> <name>...
//   epoch <ixp>                ok epoch=<e> generation=<g>
//   stats <ixp>                ok rs_members=<n> observed=<n> links=<n>
//                                 observations=<n> rejected=<n> epoch=<e>
//                                 frontier=<ts|none> backlog=<n>
//   link <ixp> <asn> <asn>     ok true | ok false
//   links <ixp> <asn>          ok <k> <asn>...
//   member <ixp> <asn>         ok observed | ok unobserved | ok non-member
//   quit                       ok bye (server closes the connection)
//
// A request line longer than the longest well-formed request (the
// longest verb, the session's longest IXP name and two ASNs) is answered
// with `err line too long` and the connection is closed, so a client that
// never sends a newline cannot grow the server's memory.
//
// Epoch semantics: answers within one response line are consistent (they
// come from one immutable snapshot), but two successive queries may read
// different epochs -- clients needing a consistent multi-query view pin
// it by comparing `epoch`. Connections are served sequentially by one
// accept thread; the per-query work is a few string ops, so a handful of
// dashboard/CI clients share it comfortably. Scale-out is by running the
// readers in-process against epoch_snapshot() directly (what
// BM_QueryThroughput measures) -- the server is the wire adapter, not
// the concurrency ceiling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace mlp::pipeline {

class LiveSession;

/// One accept-loop thread answering queries from published epochs. The
/// session must outlive the server. Thread-safety: the server itself
/// holds no mutex -- its shared state is the stop flag and counters
/// (atomics) plus the session's atomic epoch pointers.
class QueryServer {
 public:
  struct Options {
    /// 127.0.0.1 port to listen on; 0 picks an ephemeral port (read it
    /// back via port()).
    std::uint16_t port = 0;
  };

  /// Binds and starts serving immediately; throws ParseError when the
  /// port cannot be bound.
  QueryServer(const LiveSession& session, Options options);
  /// stop() + join.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// The bound port (the resolved one when Options::port was 0).
  std::uint16_t port() const { return port_; }

  /// Queries answered so far (across connections).
  std::uint64_t queries_served() const {
    return queries_.load(std::memory_order_relaxed);
  }

  /// Stop accepting, close the listener, and join the serve thread.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  void serve();
  /// Serve one accepted connection until quit/EOF/stop.
  void serve_connection(int fd);
  /// One request line -> one response line (without the newline).
  std::string respond(const std::string& line) const;

  const LiveSession& session_;
  /// Longest accepted request line, newline excluded.
  const std::size_t max_line_;
  int listener_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> queries_{0};
  std::thread thread_;
};

}  // namespace mlp::pipeline
