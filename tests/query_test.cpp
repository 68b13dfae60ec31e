// Epoch publishing and the query front end: published snapshots are
// immutable, epochs are monotone, concurrent readers never block ingest
// (the TSan target for the lock-free swap), the snapshot/result flag
// plumbing agrees end to end, and the QueryServer line protocol answers
// over loopback TCP.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_snapshot.hpp"
#include "pipeline/live_session.hpp"
#include "pipeline/query_server.hpp"
#include "scenario/scenario.hpp"
#include "stream/source.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {
namespace {

scenario::Scenario make_scenario(std::uint64_t seed = 515151) {
  scenario::ScenarioParams params;
  params.topology.n_ases = 400;
  params.membership_scale = 0.15;
  params.seed = seed;
  return scenario::Scenario(params);
}

/// The collector's update dump with record i restamped to base + i
/// seconds. The dump stamps every record alike, and the watermark merge
/// drains only below the feed's stream clock, so without advancing time
/// nothing would reach the engines -- or publish an epoch -- before the
/// feed closes.
std::vector<std::uint8_t> advancing_updates(scenario::Scenario& s) {
  constexpr std::uint32_t kBase = 1367366400;
  auto data = s.collectors().front().update_dump(kBase);
  std::uint32_t timestamp = kBase;
  // MRT common header: u32 timestamp, u16 type, u16 subtype, u32 length.
  for (std::size_t at = 0; at + 12 <= data.size(); ++timestamp) {
    for (std::size_t b = 0; b < 4; ++b)
      data[at + b] = static_cast<std::uint8_t>(timestamp >> (24 - 8 * b));
    const std::size_t length = (std::size_t{data[at + 8]} << 24) |
                               (std::size_t{data[at + 9]} << 16) |
                               (std::size_t{data[at + 10]} << 8) |
                               std::size_t{data[at + 11]};
    at += 12 + length;
  }
  return data;
}

LiveConfig make_config(std::size_t threads) {
  LiveConfig config;
  config.threads = threads;
  config.batch_size = 64;
  return config;
}

FeedHandle add_feed(LiveSession& session, const std::string& name) {
  FeedOptions options;
  options.name = name;
  return session.add_feed(options);
}

void feed_chunks(FeedHandle handle, std::span<const std::uint8_t> data,
                 std::size_t chunk) {
  std::size_t at = 0;
  while (at < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - at);
    handle.feed(data.subspan(at, n));
    at += n;
  }
}

// --------------------------------------------------------- epoch basics

TEST(EpochPublishing, ConstructionPublishesEpochOne) {
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  LiveSession session(make_config(1), ixps);
  ASSERT_EQ(session.ixp_count(), ixps.size());
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto snap = session.epoch_snapshot(i);
    ASSERT_TRUE(snap != nullptr);
    EXPECT_EQ(snap->epoch(), 1u);
    EXPECT_EQ(snap->generation(), 0u);
    EXPECT_EQ(snap->ixp(), ixps[i].name);
    EXPECT_EQ(snap->link_count(), 0u);
  }
  // Name-addressed lookups hit the same snapshots; unknown names throw.
  EXPECT_EQ(session.epoch_snapshot(ixps[0].name)->ixp(), ixps[0].name);
  EXPECT_EQ(session.ixp_index(ixps.back().name), ixps.size() - 1);
  EXPECT_THROW((void)session.epoch_snapshot("no-such-ixp"),
               InvalidArgument);
  EXPECT_THROW((void)session.ixp_index("no-such-ixp"), InvalidArgument);
  EXPECT_EQ(session.epoch_snapshots().size(), ixps.size());
  (void)session.finish();
}

TEST(EpochPublishing, EpochsAdvanceMonotonicallyDuringIngest) {
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = advancing_updates(s);

  auto config = make_config(2);
  config.publish_every_batches = 1;  // publish as eagerly as possible
  // Bound the announce-window so stable announcements surface as
  // observations mid-stream (FIFO eviction) instead of only at close --
  // otherwise nothing would reach the engines before finish().
  config.passive.max_pending_announcements = 50;
  LiveSession session(config, ixps);
  auto handle = add_feed(session, "feed0");

  std::vector<std::uint64_t> last_epoch(ixps.size(), 0);
  std::vector<std::uint64_t> last_generation(ixps.size(), 0);
  std::size_t at = 0;
  while (at < data.size()) {
    const std::size_t n = std::min<std::size_t>(2048, data.size() - at);
    handle.feed(std::span<const std::uint8_t>(data.data() + at, n));
    at += n;
    for (std::size_t i = 0; i < ixps.size(); ++i) {
      const auto snap = session.epoch_snapshot(i);
      EXPECT_GE(snap->epoch(), last_epoch[i]) << "ixp " << i;
      EXPECT_GE(snap->generation(), last_generation[i]) << "ixp " << i;
      // Internally consistent regardless of when it was frozen.
      EXPECT_EQ(snap->link_count(), snap->links().size()) << "ixp " << i;
      last_epoch[i] = snap->epoch();
      last_generation[i] = snap->generation();
    }
  }
  // The settled snapshot publishes a current epoch everywhere: after it,
  // published state reflects every accepted observation so far.
  const auto snap = session.snapshot();
  std::size_t published_links = 0;
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto epoch_snap = session.epoch_snapshot(i);
    EXPECT_GE(epoch_snap->epoch(), last_epoch[i]);
    EXPECT_EQ(epoch_snap->link_count(), snap.links_per_ixp[i]);
    published_links += epoch_snap->link_count();
  }
  EXPECT_GT(published_links, 0u);
  (void)session.finish();
}

TEST(EpochPublishing, FinishPublishesTheFinalState) {
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  // The unbounded announce-window means most observations reach the
  // engines only at finish(), exactly the case where a stale published
  // epoch would be visible afterwards if finish() forgot to publish.
  LiveSession session(make_config(1), ixps);
  feed_chunks(add_feed(session, "feed0"), data, 4096);
  const auto result = session.finish();
  ASSERT_EQ(result.per_ixp.size(), ixps.size());
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto snap = session.epoch_snapshot(i);
    EXPECT_EQ(snap->link_count(), result.per_ixp[i].links.size())
        << "ixp " << i;
    EXPECT_EQ(snap->links(), result.per_ixp[i].links) << "ixp " << i;
    EXPECT_EQ(snap->stats().observations,
              result.per_ixp[i].stats.observations)
        << "ixp " << i;
  }
}

// ------------------------------------------- snapshot/result flag plumbing

TEST(EpochPublishing, SnapshotAndResultAgreeForBothFlagValues) {
  // assume_open_for_unobserved is plumbed through LiveConfig ->
  // publish_epoch -> EngineSnapshot (the LiveSnapshot numbers) and
  // through finish() -> infer_links (the LiveResult sets). The two paths
  // must agree at the same settled state, for BOTH flag values.
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  for (const bool assume_open : {false, true}) {
    auto config = make_config(2);
    config.assume_open_for_unobserved = assume_open;
    LiveSession session(config, ixps);
    auto handle = add_feed(session, "feed0");
    feed_chunks(handle, data, 4096);
    // Close first: the announce-window flushes, so the settled snapshot
    // and the final result describe the same observation set.
    handle.close();
    const auto snap = session.snapshot();
    const auto result = session.finish();
    ASSERT_EQ(snap.links_per_ixp.size(), result.per_ixp.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < result.per_ixp.size(); ++i) {
      EXPECT_EQ(snap.links_per_ixp[i], result.per_ixp[i].links.size())
          << "assume_open=" << assume_open << " ixp " << i;
      const auto epoch_snap = session.epoch_snapshot(i);
      EXPECT_EQ(epoch_snap->assume_open_for_unobserved(), assume_open);
      EXPECT_EQ(epoch_snap->links(), result.per_ixp[i].links)
          << "assume_open=" << assume_open << " ixp " << i;
      total += snap.links_per_ixp[i];
    }
    // The flag must actually change the answer on this scenario (every
    // IXP has unobserved members), or the equality above proves nothing.
    if (assume_open) {
      EXPECT_GT(total, 0u);
    }
  }
}

// ------------------------------------------------- concurrent readers

TEST(EpochPublishing, LockFreeReadersRaceIngest) {
  // The TSan target: N reader threads hammer epoch_snapshot() while the
  // feed thread ingests and pumps publish. Readers assert only
  // thread-local invariants (per-reader epoch monotonicity, internal
  // snapshot consistency) -- any data race on the swap or on frozen
  // state is the sanitizer's to catch.
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = advancing_updates(s);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto config = make_config(threads);
    config.publish_every_batches = 1;
    // Surface observations mid-stream so the readers race real epoch
    // swaps, not thirteen reads of the construction epoch.
    config.passive.max_pending_announcements = 50;
    LiveSession session(config, ixps);
    auto handle = add_feed(session, "feed0");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < 4; ++r) {
      readers.emplace_back([&, r] {
        std::vector<std::uint64_t> last(ixps.size(), 0);
        std::uint64_t local = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const std::size_t i = (r + local) % ixps.size();
          const auto snap = session.epoch_snapshot(i);
          ASSERT_TRUE(snap != nullptr);
          ASSERT_GE(snap->epoch(), last[i]);
          last[i] = snap->epoch();
          // Touch the frozen payload: counts, pairwise bits, rows.
          const auto links = snap->links();
          ASSERT_EQ(snap->link_count(), links.size());
          for (const auto& link : links) {
            ASSERT_TRUE(snap->has_link(link.a, link.b));
            ASSERT_TRUE(snap->has_link(link.b, link.a));
          }
          if (!snap->participants().empty()) {
            const core::Asn member = snap->participants().values().front();
            (void)snap->links_of(member);
            (void)snap->is_observed(member);
          }
          ++local;
        }
        reads.fetch_add(local, std::memory_order_relaxed);
      });
    }
    feed_chunks(handle, data, 1024);
    const auto snap = session.snapshot();
    stop.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
    EXPECT_GT(reads.load(), 0u);
    // A snapshot pointer grabbed before finish() stays valid and
    // answers identically after the session is torn down.
    const auto held = session.epoch_snapshot(0);
    const auto held_links = held->links();
    const auto result = session.finish();
    EXPECT_EQ(held->links(), held_links);
    ASSERT_FALSE(result.per_ixp.empty());
    (void)snap;
  }
}

// ------------------------------------------------------- query server

/// Minimal line-protocol client over the stream-layer TCP helpers.
class QueryClient {
 public:
  explicit QueryClient(std::uint16_t port)
      : fd_(stream::tcp_connect("127.0.0.1", port)) {}
  ~QueryClient() { stream::close_fd(fd_); }

  std::string ask(const std::string& request) {
    const std::string line = request + "\n";
    stream::write_all(fd_, std::span<const std::uint8_t>(
                               reinterpret_cast<const std::uint8_t*>(
                                   line.data()),
                               line.size()));
    std::string response;
    char byte = 0;
    while (::read(fd_, &byte, 1) == 1) {
      if (byte == '\n') return response;
      response.push_back(byte);
    }
    return response;  // EOF mid-line: return what arrived
  }

 private:
  int fd_;
};

TEST(QueryServer, AnswersProtocolOverLoopback) {
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  LiveSession session(make_config(2), ixps);
  auto handle = add_feed(session, "feed0");
  feed_chunks(handle, data, 4096);
  handle.close();
  const auto snap = session.snapshot();  // settle + publish

  QueryServer server(session, QueryServer::Options{/*port=*/0});
  ASSERT_NE(server.port(), 0);
  QueryClient client(server.port());

  // ixps enumerates every configured IXP in construction order.
  std::string expected_ixps = "ok " + std::to_string(ixps.size());
  for (const auto& ixp : ixps) expected_ixps += " " + ixp.name;
  EXPECT_EQ(client.ask("ixps"), expected_ixps);

  // Per-IXP answers match the settled session exactly.
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto epoch_snap = session.epoch_snapshot(i);
    const auto& name = ixps[i].name;
    EXPECT_EQ(client.ask("epoch " + name),
              "ok epoch=" + std::to_string(epoch_snap->epoch()) +
                  " generation=" +
                  std::to_string(epoch_snap->generation()));
    const auto stats_line = client.ask("stats " + name);
    EXPECT_TRUE(stats_line.rfind("ok rs_members=", 0) == 0) << stats_line;
    EXPECT_NE(stats_line.find(
                  " links=" + std::to_string(epoch_snap->link_count())),
              std::string::npos)
        << stats_line;
    EXPECT_NE(stats_line.find(" backlog="), std::string::npos);
    const auto links = epoch_snap->links();
    if (!links.empty()) {
      const auto& link = *links.begin();
      EXPECT_EQ(client.ask("link " + name + " " +
                           std::to_string(link.a) + " " +
                           std::to_string(link.b)),
                "ok true");
      const auto partners = epoch_snap->links_of(link.a);
      std::string expected = "ok " + std::to_string(partners.size());
      for (const auto partner : partners) {
        expected += ' ';
        expected += std::to_string(partner);
      }
      EXPECT_EQ(client.ask("links " + name + " " +
                           std::to_string(link.a)),
                expected);
      EXPECT_EQ(client.ask("member " + name + " " +
                           std::to_string(link.a)),
                "ok observed");
    }
    EXPECT_EQ(client.ask("link " + name + " 999999 999998"), "ok false");
    // The longest well-formed request, CRLF-terminated, is still served.
    EXPECT_EQ(client.ask("link " + name + " 4294967295 4294967295\r"),
              "ok false");
    EXPECT_EQ(client.ask("member " + name + " 999999"), "ok non-member");
  }

  // Malformed requests: errors, never a dropped connection.
  EXPECT_EQ(client.ask("bogus"), "err unknown verb bogus");
  EXPECT_EQ(client.ask("epoch nope"), "err unknown ixp nope");
  EXPECT_EQ(client.ask("stats"), "err stats: missing ixp");
  EXPECT_EQ(client.ask("link " + ixps[0].name + " x y"),
            "err link: want `link <ixp> <asn> <asn>`");
  EXPECT_EQ(client.ask(""), "err empty request");
  EXPECT_EQ(client.ask("quit"), "ok bye");
  EXPECT_GT(server.queries_served(), 0u);

  // Sequential connections: a second client is served after the first.
  QueryClient second(server.port());
  EXPECT_EQ(second.ask("ixps"), expected_ixps);
  EXPECT_EQ(second.ask("quit"), "ok bye");

  server.stop();
  (void)session.finish();
  (void)snap;
}

TEST(QueryServer, OverlongRequestLineIsRefusedAndClosed) {
  // A client that never sends a newline must not grow the server's
  // memory: past the longest well-formed request the server answers once
  // and hangs up, then serves the next connection as usual.
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  LiveSession session(make_config(1), ixps);
  QueryServer server(session, QueryServer::Options{/*port=*/0});

  const int fd = stream::tcp_connect("127.0.0.1", server.port());
  std::thread sender([fd] {
    const std::vector<std::uint8_t> junk(std::size_t{1} << 20, 'x');
    std::size_t sent = 0;
    while (sent < junk.size()) {
      const ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;  // the server hung up
      sent += static_cast<std::size_t>(n);
    }
  });
  std::string response;
  char byte = 0;
  while (::read(fd, &byte, 1) == 1 && byte != '\n') response.push_back(byte);
  EXPECT_EQ(response, "err line too long");
  EXPECT_LE(::read(fd, &byte, 1), 0);  // EOF or reset: the server hung up
  sender.join();
  stream::close_fd(fd);

  QueryClient client(server.port());
  std::string expected_ixps = "ok " + std::to_string(ixps.size());
  for (const auto& ixp : ixps) expected_ixps += " " + ixp.name;
  EXPECT_EQ(client.ask("ixps"), expected_ixps);
  EXPECT_EQ(client.ask("quit"), "ok bye");
  server.stop();
  (void)session.finish();
}

TEST(QueryServer, ServesDuringIngestAndMatchesFinalState) {
  // Queries answered while the feed thread ingests must be valid
  // (well-formed, internally consistent); after the final settle the
  // served numbers equal the session's own snapshot.
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = advancing_updates(s);
  auto config = make_config(2);
  config.publish_every_batches = 1;
  config.passive.max_pending_announcements = 50;
  LiveSession session(config, ixps);
  auto handle = add_feed(session, "feed0");

  QueryServer server(session, QueryServer::Options{/*port=*/0});
  std::atomic<bool> stop{false};
  std::thread client_thread([&] {
    QueryClient client(server.port());
    std::uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto line = client.ask("epoch " + ixps[0].name);
      ASSERT_TRUE(line.rfind("ok epoch=", 0) == 0) << line;
      const std::uint64_t epoch =
          std::strtoull(line.c_str() + 9, nullptr, 10);
      ASSERT_GE(epoch, last_epoch);
      last_epoch = epoch;
      const auto stats = client.ask("stats " + ixps[0].name);
      ASSERT_TRUE(stats.rfind("ok rs_members=", 0) == 0) << stats;
    }
    client.ask("quit");
  });

  feed_chunks(handle, data, 1024);
  handle.close();
  const auto snap = session.snapshot();
  stop.store(true, std::memory_order_release);
  client_thread.join();

  QueryClient verifier(server.port());
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto stats_line = verifier.ask("stats " + ixps[i].name);
    EXPECT_NE(
        stats_line.find(" links=" +
                        std::to_string(snap.links_per_ixp[i]) + " "),
        std::string::npos)
        << ixps[i].name << ": " << stats_line;
  }
  verifier.ask("quit");
  EXPECT_GT(server.queries_served(), 0u);
  server.stop();
  (void)session.finish();
}

}  // namespace
}  // namespace mlp::pipeline
