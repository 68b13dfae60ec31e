// Tests for the live update-stream subsystem: incremental MRT framing,
// the BMP (RFC 7854) transport, the byte-stream transports including
// reconnect/resume, per-record update decoding, the LiveSession
// chunk-boundary determinism guarantee (final link sets byte-identical
// to archive ingest for every chunking of the same byte stream, across
// thread counts), its multi-feed generalization (cross-feed merge ==
// the archive pipeline's timestamp merge, for every interleaving), and
// the committed golden-corpus fixtures under tests/data/.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "bgp/wire.hpp"
#include "core/engine.hpp"
#include "core/passive.hpp"
#include "mrt/mrt.hpp"
#include "mrt/record_codec.hpp"
#include "mrt/table_dump.hpp"
#include "pipeline/live_session.hpp"
#include "pipeline/pipeline.hpp"
#include "scenario/scenario.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "stream/reconnect.hpp"
#include "stream/source.hpp"
#include "util/errors.hpp"

namespace mlp::stream {
namespace {

using bgp::Community;
using routeserver::IxpCommunityScheme;
using routeserver::SchemeStyle;

// ------------------------------------------------------------- fixtures

/// One BGP4MP update record announcing `prefix` on path 5 10 20 (or
/// 5 20 10 when flipped: setter 10 instead of 20) with the DE-CIX ALL
/// community (attributable by the two_ixps fixture).
std::vector<std::uint8_t> update_record(std::uint32_t timestamp,
                                        const std::string& prefix,
                                        bool flip = false,
                                        bool four_octet_as = true) {
  mrt::MrtWriter w;
  mrt::Bgp4mpMessage m;
  m.peer_asn = 5;
  m.local_asn = 65000;
  m.peer_ip = 0x0505;
  m.four_octet_as = four_octet_as;
  m.update.nlri = {*bgp::IpPrefix::parse(prefix)};
  m.update.attrs.as_path =
      flip ? bgp::AsPath({5, 20, 10}) : bgp::AsPath({5, 10, 20});
  m.update.attrs.next_hop = 1;
  m.update.attrs.communities = {Community(6695, 6695)};
  w.write_bgp4mp(timestamp, m);
  return w.take();
}

std::vector<core::IxpContext> two_ixps() {
  core::IxpContext decix;
  decix.name = "DE-CIX";
  decix.scheme =
      IxpCommunityScheme::make("DE-CIX", 6695, SchemeStyle::RsAsnBased);
  decix.rs_members = {10, 20, 30, 40};
  core::IxpContext mskix;
  mskix.name = "MSK-IX";
  mskix.scheme =
      IxpCommunityScheme::make("MSK-IX", 8631, SchemeStyle::RsAsnBased);
  mskix.rs_members = {10, 20, 50, 60};
  return {decix, mskix};
}

/// Split `data` at MRT record boundaries (header-declared lengths).
std::vector<std::size_t> record_boundaries(
    std::span<const std::uint8_t> data) {
  std::vector<std::size_t> cuts;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const auto peek = mrt::detail::peek_header(data.subspan(pos));
    if (!peek) break;  // callers assert full coverage via the last cut
    pos += mrt::detail::kMrtHeaderBytes + peek->length;
    cuts.push_back(pos);
  }
  return cuts;
}

// -------------------------------------------------------------- framer

TEST(MrtFramer, ReassemblesRecordsForEveryChunking) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 20; ++i) {
    const auto record = update_record(1000 + i, "10." + std::to_string(i) +
                                                    ".0.0/16");
    data.insert(data.end(), record.begin(), record.end());
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, data.size()}) {
    MrtFramer framer;
    std::vector<std::uint8_t> reassembled;
    for (std::size_t at = 0; at < data.size(); at += chunk) {
      const std::size_t n = std::min(chunk, data.size() - at);
      framer.feed(std::span<const std::uint8_t>(data.data() + at, n));
      for (;;) {
        const auto record = framer.next();
        if (!record) break;
        reassembled.insert(reassembled.end(), record->begin(),
                           record->end());
      }
    }
    EXPECT_EQ(framer.records(), 20u) << "chunk " << chunk;
    EXPECT_EQ(reassembled, data) << "chunk " << chunk;
    EXPECT_EQ(framer.buffered(), 0u);
    EXPECT_EQ(framer.bytes_fed(), data.size());
  }
}

TEST(MrtFramer, NeverBuffersMoreThanOnePartialRecord) {
  const auto record = update_record(1, "10.0.0.0/16");
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 10; ++i)
    data.insert(data.end(), record.begin(), record.end());

  MrtFramer framer;
  for (std::size_t at = 0; at < data.size(); ++at) {
    framer.feed(std::span<const std::uint8_t>(data.data() + at, 1));
    while (framer.next()) {
    }
    // The invariant behind BM_LiveFraming's flat heap profile: whatever
    // the total stream length, only the current partial record stays.
    EXPECT_LT(framer.buffered(), record.size());
  }
  EXPECT_EQ(framer.records(), 10u);
}

TEST(MrtFramer, LengthCapThrowsAndResyncRecovers) {
  MrtFramer::Config config;
  config.max_record_bytes = 1024;
  MrtFramer framer(config);

  std::vector<std::uint8_t> bogus(16, 0xFF);  // length field 0xFFFFFFFF
  const auto good = update_record(7, "10.1.0.0/16");
  framer.feed(bogus);
  try {
    (void)framer.next();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("stream offset 0"),
              std::string::npos)
        << e.what();
  }
  framer.resync();
  EXPECT_FALSE(framer.next().has_value());  // still scanning
  framer.feed(good);
  const auto record = framer.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(std::equal(record->begin(), record->end(), good.begin(),
                         good.end()));
  EXPECT_EQ(framer.last_record_offset(), bogus.size());
}

TEST(MrtFramer, ResyncAcrossChunkBoundaries) {
  // Garbage followed by a real record, delivered one byte at a time: the
  // resync scan must pause at chunk ends and resume, anchoring exactly
  // on the record header.
  std::vector<std::uint8_t> data(9, 0xAA);
  const auto good = update_record(9, "10.2.0.0/16");
  data.insert(data.end(), good.begin(), good.end());

  MrtFramer framer;
  framer.resync();  // enter scanning mode from the start
  std::vector<std::uint8_t> framed;
  for (const std::uint8_t byte : data) {
    framer.feed(std::span<const std::uint8_t>(&byte, 1));
    for (;;) {
      const auto record = framer.next();
      if (!record) break;
      framed.assign(record->begin(), record->end());
    }
  }
  EXPECT_EQ(framed, good);
  EXPECT_EQ(framer.records(), 1u);
}

// ------------------------------------------------------------- sources

TEST(StreamSource, MemorySourceRespectsChunkCap) {
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  MemorySource source(data, /*max_chunk=*/7);
  std::vector<std::uint8_t> out;
  std::uint8_t buffer[64];
  for (;;) {
    const std::size_t n = source.read(buffer);
    if (n == 0) break;
    EXPECT_LE(n, 7u);
    out.insert(out.end(), buffer, buffer + n);
  }
  EXPECT_EQ(out, data);
}

class TransportTest : public ::testing::TestWithParam<const char*> {};

FdPair open_transport(const std::string& kind) {
  if (kind == "pipe") return open_pipe();
  if (kind == "socketpair") return open_socketpair();
  return open_tcp_loopback();
}

TEST_P(TransportTest, DeliversBytesInOrder) {
  std::vector<std::uint8_t> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);

  const FdPair pair = open_transport(GetParam());
  std::thread writer([&] {
    // Odd-sized writes so reads cross every internal boundary.
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t n = std::min<std::size_t>(977, data.size() - at);
      write_all(pair.write_fd,
                std::span<const std::uint8_t>(data.data() + at, n));
      at += n;
    }
    close_fd(pair.write_fd);
  });

  FdSource source(pair.read_fd);
  std::vector<std::uint8_t> out;
  std::uint8_t buffer[1024];
  for (;;) {
    const std::size_t n = source.read(buffer);
    if (n == 0) break;
    out.insert(out.end(), buffer, buffer + n);
  }
  writer.join();
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest,
                         ::testing::Values("pipe", "socketpair", "tcp"));

// ------------------------------------------------------------- decoder

TEST(UpdateDecoder, MatchesParseUpdates) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 5; ++i) {
    const auto record =
        update_record(100 + i, "10." + std::to_string(i) + ".0.0/16");
    data.insert(data.end(), record.begin(), record.end());
  }
  const auto want = mrt::parse_updates(data);

  MrtFramer framer;
  UpdateDecoder decoder;
  framer.feed(data);
  std::size_t at = 0;
  for (;;) {
    const auto record = framer.next();
    if (!record) break;
    const UpdateRecordView* view = decoder.decode(*record);
    ASSERT_NE(view, nullptr);
    ASSERT_LT(at, want.size());
    EXPECT_EQ(view->timestamp, want[at].timestamp);
    EXPECT_EQ(view->peer_asn, want[at].peer_asn);
    EXPECT_EQ(view->peer_ip, want[at].peer_ip);
    EXPECT_EQ(*view->update, want[at].update);
    ++at;
  }
  EXPECT_EQ(at, want.size());
  EXPECT_EQ(decoder.skipped(), 0u);
}

TEST(UpdateDecoder, StepsOverNonUpdateRecords) {
  mrt::MrtWriter w;
  mrt::PeerIndexTable peers;
  peers.peers = {mrt::PeerEntry{1, 1, 6695, true}};
  w.write_peer_index(1, peers);
  auto data = w.take();
  const auto good = update_record(2, "10.0.0.0/16");
  data.insert(data.end(), good.begin(), good.end());

  MrtFramer framer;
  UpdateDecoder decoder;
  framer.feed(data);
  EXPECT_EQ(decoder.decode(*framer.next()), nullptr);  // TABLE_DUMP_V2
  EXPECT_NE(decoder.decode(*framer.next()), nullptr);
  EXPECT_EQ(decoder.skipped(), 1u);
}

// --------------------------------------------------------- live session

using pipeline::LiveConfig;
using pipeline::LiveResult;
using pipeline::LiveSession;

/// Archive-ingest reference: one accumulate-mode extractor over the whole
/// byte stream, observations fed to per-IXP engines in order.
struct Reference {
  std::vector<std::set<bgp::AsLink>> links;
  core::PassiveStats stats;
};

Reference reference_run(const std::vector<core::IxpContext>& ixps,
                        std::span<const std::uint8_t> data,
                        core::PassiveConfig passive) {
  core::PassiveExtractor extractor(ixps, nullptr, passive);
  extractor.consume_update_stream(data);
  Reference ref;
  ref.stats = extractor.stats();
  auto observations = extractor.take_observations();
  for (const auto& ixp : ixps) {
    core::MlpInferenceEngine engine(ixp);
    const auto it = observations.find(ixp.name);
    if (it != observations.end())
      for (const auto& observation : it->second) engine.add(observation);
    ref.links.push_back(engine.infer_links());
  }
  return ref;
}

LiveResult live_run(const std::vector<core::IxpContext>& ixps,
                    std::span<const std::uint8_t> data,
                    core::PassiveConfig passive, std::size_t threads,
                    std::span<const std::size_t> cuts) {
  LiveConfig config;
  config.threads = threads;
  config.passive = passive;
  config.batch_size = 64;
  LiveSession session(config, ixps);
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    session.feed(data.subspan(at, cut - at));
    at = cut;
  }
  if (at < data.size()) session.feed(data.subspan(at));
  return session.finish();
}

std::vector<std::size_t> fixed_cuts(std::size_t total, std::size_t step) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = step; at < total; at += step) cuts.push_back(at);
  cuts.push_back(total);
  return cuts;
}

TEST(LiveSession, ChunkBoundaryDeterminismMatchesArchiveIngest) {
  // The acceptance matrix: the same update byte stream in chunk sizes
  // {1, 7, record-aligned, whole} through LiveSession must yield link
  // sets byte-identical to consume_update_stream on the whole archive,
  // for 1 and N threads, with and without a bounded announce-window.
  scenario::ScenarioParams params;
  params.topology.n_ases = 600;
  params.membership_scale = 0.15;
  params.seed = 424242;
  scenario::Scenario s(params);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);

  const std::vector<std::size_t> aligned = record_boundaries(data);
  ASSERT_FALSE(aligned.empty());
  ASSERT_EQ(aligned.back(), data.size());  // cleanly record-partitioned

  core::PassiveConfig unbounded;
  core::PassiveConfig bounded;
  bounded.max_pending_announcements = 500;  // mid-stream FIFO eviction

  for (const auto& passive : {unbounded, bounded}) {
    const Reference ref = reference_run(ixps, data, passive);
    ASSERT_EQ(ref.links.size(), ixps.size());
    EXPECT_GT(ref.stats.observations, 0u);

    const std::vector<std::vector<std::size_t>> chunkings = {
        fixed_cuts(data.size(), 1), fixed_cuts(data.size(), 7), aligned,
        {data.size()}};
    for (std::size_t c = 0; c < chunkings.size(); ++c) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const LiveResult result =
            live_run(ixps, data, passive, threads, chunkings[c]);
        ASSERT_EQ(result.per_ixp.size(), ixps.size());
        for (std::size_t i = 0; i < ixps.size(); ++i)
          EXPECT_EQ(result.per_ixp[i].links, ref.links[i])
              << "chunking " << c << " threads " << threads << " ixp " << i;
        EXPECT_EQ(result.passive.paths_seen, ref.stats.paths_seen);
        EXPECT_EQ(result.passive.observations, ref.stats.observations);
        EXPECT_EQ(result.passive.paths_transient, ref.stats.paths_transient);
      }
    }
  }
}

TEST(LiveSession, TransportsMatchWholeBufferIngest) {
  scenario::ScenarioParams params;
  params.topology.n_ases = 400;
  params.membership_scale = 0.15;
  params.seed = 77;
  scenario::Scenario s(params);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  const Reference ref = reference_run(ixps, data, core::PassiveConfig{});

  for (const std::string kind : {"pipe", "socketpair", "tcp"}) {
    const FdPair pair = open_transport(kind);
    std::thread writer([&] {
      std::size_t at = 0;
      while (at < data.size()) {
        const std::size_t n = std::min<std::size_t>(4096 + 13,
                                                    data.size() - at);
        write_all(pair.write_fd,
                  std::span<const std::uint8_t>(data.data() + at, n));
        at += n;
      }
      close_fd(pair.write_fd);
    });

    LiveConfig config;
    config.threads = 2;
    config.read_chunk = 1024;
    LiveSession session(config, ixps);
    FdSource source(pair.read_fd);
    EXPECT_EQ(session.drain(source), data.size());
    writer.join();
    const LiveResult result = session.finish();
    ASSERT_EQ(result.per_ixp.size(), ref.links.size());
    for (std::size_t i = 0; i < ref.links.size(); ++i)
      EXPECT_EQ(result.per_ixp[i].links, ref.links[i])
          << kind << " ixp " << i;
    EXPECT_EQ(result.passive.observations, ref.stats.observations);
  }
}

TEST(LiveSession, SnapshotTracksProgressAndFinishAgrees) {
  const auto ixps = two_ixps();
  core::PassiveConfig passive;
  passive.max_pending_announcements = 4;  // surface observations live
  LiveConfig config;
  config.threads = 2;
  config.passive = passive;
  config.batch_size = 1;
  LiveSession session(config, ixps);

  // Alternate the two path directions so both members 10 and 20 collect
  // observations (reciprocity needs both sides).
  for (int i = 0; i < 32; ++i) {
    const auto record = update_record(
        1000 + i, "10." + std::to_string(i) + ".0.0/16", i % 2 == 1);
    session.feed(record);
  }
  const auto snap = session.snapshot();
  EXPECT_EQ(snap.records, 32u);
  // 32 standing announcements against a window of 4: most were evicted
  // (min_duration 0 settles them as stable) and are visible mid-stream.
  EXPECT_GE(snap.passive.observations, 28u);
  ASSERT_EQ(snap.links_per_ixp.size(), 2u);
  EXPECT_GT(snap.links_per_ixp[0], 0u);  // DE-CIX saw 10-20 crossings

  const auto result = session.finish();
  ASSERT_EQ(result.per_ixp.size(), 2u);
  // The final snapshot's cheap count equals the materialized link set of
  // the records it covered -- here everything was covered pre-finish
  // except the still-pending window flush, so recompute for the final
  // state instead of demanding equality with the mid-stream count.
  EXPECT_EQ(result.per_ixp[0].links.size(),
            result.per_ixp[0].stats.links);
  EXPECT_THROW(session.feed(std::span<const std::uint8_t>()),
               InvalidArgument);
  EXPECT_THROW(session.finish(), InvalidArgument);
}

TEST(LiveSession, TolerantModeSkipsGarbageAcrossChunks) {
  const auto ixps = two_ixps();
  std::vector<std::uint8_t> data = update_record(1000, "10.0.0.0/16");
  data.insert(data.end(), 16, std::uint8_t{0xFF});
  const auto second = update_record(2000, "10.1.0.0/16");
  data.insert(data.end(), second.begin(), second.end());

  LiveConfig config;
  config.passive.tolerate_malformed = true;
  LiveSession session(config, ixps);
  // Deliver in 3-byte slivers: the bogus record and the resync scan both
  // straddle chunk boundaries.
  for (std::size_t at = 0; at < data.size(); at += 3)
    session.feed(std::span<const std::uint8_t>(
        data.data() + at, std::min<std::size_t>(3, data.size() - at)));
  const auto result = session.finish();
  EXPECT_EQ(result.passive.paths_seen, 2u);
  EXPECT_EQ(result.passive.observations, 2u);
  EXPECT_EQ(result.passive.records_malformed, 1u);
}

TEST(LiveSession, StrictModeThrowsWithStreamOffset) {
  const auto ixps = two_ixps();
  const auto good = update_record(1000, "10.0.0.0/16");
  std::vector<std::uint8_t> data = good;
  data.insert(data.end(), 16, std::uint8_t{0xFF});

  LiveSession session(LiveConfig{}, ixps);
  try {
    session.feed(data);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("stream offset " +
                                         std::to_string(good.size())),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- BMP framer

/// Feed `data` through a BmpFramer in `chunk`-sized slivers, collecting
/// every synthesized MRT record (PeerUp/PeerDown events stepped over).
std::vector<std::vector<std::uint8_t>> bmp_frame_all(
    std::span<const std::uint8_t> data, std::size_t chunk) {
  BmpFramer framer;
  std::vector<std::vector<std::uint8_t>> records;
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    const std::size_t n = std::min(chunk, data.size() - at);
    framer.feed(data.subspan(at, n));
    for (;;) {
      const auto event = framer.next();
      if (!event) break;
      if (event->kind == BmpEvent::Kind::Update)
        records.emplace_back(event->record.begin(), event->record.end());
    }
  }
  return records;
}

TEST(BmpFramer, UnwrapsRouteMonitoringForEveryChunking) {
  // Mixed AS widths: every third record is a legacy 2-octet-AS message,
  // which must round-trip through the BMP A flag (peer-header bit 0x20)
  // back to subtype Message so the AS_PATH decodes at the right width.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 12; ++i) {
    const auto record =
        update_record(2000 + i, "10." + std::to_string(i) + ".0.0/16",
                      i % 2 == 1, /*four_octet_as=*/i % 3 != 0);
    data.insert(data.end(), record.begin(), record.end());
  }
  const auto wrapped = bmp_wrap_updates(data);
  const auto want = mrt::parse_updates(data);
  ASSERT_EQ(want.size(), 12u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, wrapped.size()}) {
    const auto records = bmp_frame_all(wrapped, chunk);
    ASSERT_EQ(records.size(), want.size()) << "chunk " << chunk;
    UpdateDecoder decoder;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const UpdateRecordView* view = decoder.decode(records[i]);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->timestamp, want[i].timestamp);
      EXPECT_EQ(view->peer_asn, want[i].peer_asn);
      EXPECT_EQ(view->peer_ip, want[i].peer_ip);
      EXPECT_EQ(*view->update, want[i].update);
    }
  }

  BmpFramer framer;
  framer.feed(wrapped);
  while (framer.next()) {
  }
  // 12 RM + Initiation + Termination + one Peer Up (single peer 5).
  EXPECT_EQ(framer.messages(), 15u);
  EXPECT_EQ(framer.skipped(), 2u);
  EXPECT_EQ(framer.peer_ups(), 1u);
  EXPECT_EQ(framer.peer_downs(), 0u);
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_EQ(framer.bytes_fed(), wrapped.size());
}

TEST(BmpFramer, BadVersionThrowsAndResyncRecovers) {
  BmpFramer framer;
  std::vector<std::uint8_t> garbage(10, 0x00);
  framer.feed(garbage);
  try {
    (void)framer.next();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("stream offset 0"),
              std::string::npos)
        << e.what();
  }
  framer.resync();
  EXPECT_FALSE(framer.next().has_value());  // still scanning
  const auto record = update_record(5, "10.5.0.0/16");
  const auto wrapped = bmp_wrap_updates(record);
  framer.feed(wrapped);
  const auto up = framer.next();  // Initiation skipped; Peer Up first
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->kind, BmpEvent::Kind::PeerUp);
  const auto framed = framer.next();
  ASSERT_TRUE(framed.has_value());
  ASSERT_EQ(framed->kind, BmpEvent::Kind::Update);
  UpdateDecoder decoder;
  EXPECT_NE(decoder.decode(framed->record), nullptr);
}

TEST(BmpFramer, TruncatedRouteMonitoringThrows) {
  // A type-0 message whose declared length cannot hold the per-peer
  // header plus a BGP header is structurally invalid.
  std::vector<std::uint8_t> bogus = {3, 0, 0, 0, 20, 0};
  bogus.resize(20, 0);
  BmpFramer framer;
  framer.feed(bogus);
  EXPECT_THROW((void)framer.next(), ParseError);
}

TEST(BmpFramer, ResetDropsPartialAndKeepsCounters) {
  const auto wrapped = bmp_wrap_updates(update_record(6, "10.6.0.0/16"));
  BmpFramer framer;
  framer.feed(wrapped);
  while (framer.next()) {
  }
  // Replay the Initiation in full plus a 6-byte sliver of the Peer Up: a
  // complete header whose body never arrives.
  const auto tail = std::span<const std::uint8_t>(wrapped)
                        .first(bmp_initiation().size() + 6);
  framer.feed(tail);
  while (framer.next()) {
  }
  EXPECT_GT(framer.buffered(), 0u);
  const std::size_t dropped = framer.reset();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(framer.buffered(), 0u);
  // Initiation + Peer Up + RM + Termination, plus the replayed
  // Initiation that completed before the cut.
  EXPECT_EQ(framer.messages(), 5u);
  EXPECT_EQ(framer.bytes_fed(), wrapped.size() + tail.size());
  // The framer accepts a fresh session after the reset.
  framer.feed(wrapped);
  std::size_t updates = 0;
  for (auto event = framer.next(); event; event = framer.next())
    if (event->kind == BmpEvent::Kind::Update) ++updates;
  EXPECT_EQ(updates, 1u);
}

TEST(BmpFramer, PeerUpAndPeerDownSurfaceParsedHeaders) {
  std::vector<std::uint8_t> data = bmp_peer_up(1700, 65666, 0x0a000001);
  const auto down = bmp_peer_down(1800, 65666, 0x0a000001, /*reason=*/2);
  data.insert(data.end(), down.begin(), down.end());

  BmpFramer framer;
  framer.feed(data);
  const auto up = framer.next();
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->kind, BmpEvent::Kind::PeerUp);
  EXPECT_EQ(up->peer.asn, 65666u);
  EXPECT_EQ(up->peer.peer_ip, 0x0a000001u);
  EXPECT_EQ(up->peer.timestamp, 1700u);
  EXPECT_FALSE(up->peer.ipv6);
  EXPECT_TRUE(up->record.empty());

  const auto peer_down = framer.next();
  ASSERT_TRUE(peer_down.has_value());
  EXPECT_EQ(peer_down->kind, BmpEvent::Kind::PeerDown);
  EXPECT_EQ(peer_down->peer.asn, 65666u);
  EXPECT_EQ(peer_down->peer.timestamp, 1800u);
  EXPECT_EQ(peer_down->peer_down_reason, 2u);

  EXPECT_FALSE(framer.next().has_value());
  EXPECT_EQ(framer.peer_ups(), 1u);
  EXPECT_EQ(framer.peer_downs(), 1u);
  EXPECT_EQ(framer.skipped(), 0u);
}

TEST(BmpFramer, Ipv6PeerSynthesizesAfi2Record) {
  // An IPv6 peer (V flag) must survive the BMP -> MRT synthesis: the
  // BGP4MP header carries AFI 2 with the verbatim 16-byte address, and
  // the decoder reports peer_ip 0 (no 4-byte form exists).
  const std::uint8_t v6[16] = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0,
                               0,    0,    0,    0,    0, 0, 0, 1};
  const auto record = update_record(3000, "10.42.0.0/16");
  const auto want = mrt::parse_updates(record);
  ASSERT_EQ(want.size(), 1u);
  const auto pdu = bgp::encode_update(want[0].update, true);
  const auto wrapped = bmp_route_monitoring_v6(3000, 5, v6, pdu);

  BmpFramer framer;
  framer.feed(wrapped);
  const auto event = framer.next();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, BmpEvent::Kind::Update);
  EXPECT_TRUE(event->peer.ipv6);
  EXPECT_EQ(event->peer.peer_ip, 0u);
  EXPECT_TRUE(std::equal(std::begin(v6), std::end(v6),
                         std::begin(event->peer.address)));

  UpdateDecoder decoder;
  const UpdateRecordView* view = decoder.decode(event->record);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->timestamp, 3000u);
  EXPECT_EQ(view->peer_asn, 5u);
  EXPECT_EQ(view->peer_ip, 0u);  // AFI 2: no 4-byte peer address
  EXPECT_EQ(*view->update, want[0].update);
}

TEST(LiveSession, BmpLaneSurvivesRecordCapViolation) {
  // A BMP message below the BMP cap can still synthesize an MRT record
  // above LiveConfig::framing.max_record_bytes. In tolerant mode the
  // lane must drop that one record (no MrtFramer resync scan -- BMP
  // boundaries are trusted) and keep decoding the rest.
  const auto ixps = two_ixps();
  mrt::MrtWriter w;
  mrt::Bgp4mpMessage big;
  big.peer_asn = 5;
  big.four_octet_as = true;
  big.update.attrs.as_path = bgp::AsPath({5, 10, 20});
  big.update.attrs.next_hop = 1;
  for (int i = 0; i < 60; ++i)
    big.update.nlri.push_back(
        *bgp::IpPrefix::parse("10.7." + std::to_string(i) + ".0/24"));
  w.write_bgp4mp(1500, big);
  std::vector<std::uint8_t> data = update_record(1000, "10.0.0.0/16");
  const auto big_record = w.take();
  ASSERT_GT(big_record.size(), 256u);
  data.insert(data.end(), big_record.begin(), big_record.end());
  const auto last = update_record(2000, "10.1.0.0/16", true);
  data.insert(data.end(), last.begin(), last.end());
  const auto wrapped = bmp_wrap_updates(data);

  LiveConfig config;
  config.passive.tolerate_malformed = true;
  config.framing.max_record_bytes = 256;
  LiveSession session(config, ixps);
  pipeline::FeedOptions options;
  options.transport = pipeline::Transport::Bmp;
  pipeline::FeedHandle handle = session.add_feed(options);
  for (std::size_t at = 0; at < wrapped.size(); at += 5)
    handle.feed(std::span<const std::uint8_t>(wrapped).subspan(
        at, std::min<std::size_t>(5, wrapped.size() - at)));
  const LiveResult result = session.finish();
  EXPECT_EQ(result.passive.records_malformed, 1u);
  EXPECT_EQ(result.records, 2u);  // the two small updates survived
  EXPECT_EQ(result.passive.observations, 2u);
}

TEST(LiveSession, BmpFeedMatchesArchiveIngest) {
  scenario::ScenarioParams params;
  params.topology.n_ases = 400;
  params.membership_scale = 0.15;
  params.seed = 99;
  scenario::Scenario s(params);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  const auto wrapped = bmp_wrap_updates(data);
  const Reference ref = reference_run(ixps, data, core::PassiveConfig{});

  LiveConfig config;
  config.threads = 2;
  LiveSession session(config, ixps);
  pipeline::FeedOptions options;
  options.name = "bmp-feed";
  options.transport = pipeline::Transport::Bmp;
  pipeline::FeedHandle handle = session.add_feed(options);
  for (std::size_t at = 0; at < wrapped.size(); at += 4096)
    handle.feed(std::span<const std::uint8_t>(wrapped)
                    .subspan(at, std::min<std::size_t>(
                                     4096, wrapped.size() - at)));
  const LiveResult result = session.finish();
  ASSERT_EQ(result.per_ixp.size(), ref.links.size());
  for (std::size_t i = 0; i < ref.links.size(); ++i)
    EXPECT_EQ(result.per_ixp[i].links, ref.links[i]) << "ixp " << i;
  EXPECT_EQ(result.passive.observations, ref.stats.observations);
  ASSERT_EQ(result.per_feed.size(), 1u);
  EXPECT_EQ(result.per_feed[0].name, "bmp-feed");
  EXPECT_EQ(result.per_feed[0].bytes_fed, wrapped.size());
  EXPECT_EQ(result.per_feed[0].records, result.records);
  EXPECT_EQ(result.per_feed[0].bmp_skipped, 2u);  // Initiation+Termination
  // bmp_wrap_updates inserts a Peer Up per distinct peer on first sight.
  EXPECT_GE(result.per_feed[0].bmp_peer_ups, 1u);
  EXPECT_EQ(result.per_feed[0].bmp_peer_downs, 0u);
}

// ----------------------------------------------------------- multi-feed

/// One synthetic feed: `n` update records with feed-unique prefixes
/// (disjoint (peer, prefix) announce-window keys across feeds, so
/// per-feed windows == one window over the concatenation).
std::vector<std::uint8_t> synthetic_feed_stream(std::size_t feed,
                                                std::size_t n) {
  std::vector<std::uint8_t> data;
  for (std::size_t i = 0; i < n; ++i) {
    const auto record = update_record(
        1000 + static_cast<std::uint32_t>(i),
        "10." + std::to_string(feed) + "." + std::to_string(i) + ".0/24",
        (feed + i) % 2 == 1);
    data.insert(data.end(), record.begin(), record.end());
  }
  return data;
}

/// Cut list for one stream: fixed step, or record-aligned when step==0.
std::vector<std::size_t> cuts_for(std::span<const std::uint8_t> data,
                                  std::size_t step) {
  if (step == 0) return record_boundaries(data);
  return fixed_cuts(data.size(), step);
}

TEST(LiveSession, MultiFeedMatchesArchivePipelineOnScenarioSplit) {
  // Fixture-independent form of the merge invariant: a live multi-feed
  // session over ANY per-feed byte sequences equals InferencePipeline
  // over the same sequences as update archives (the pipeline is
  // per-archive extractors + the same watermark queues). Split a real
  // scenario stream round-robin so feeds DO share (peer, prefix) keys.
  scenario::ScenarioParams params;
  params.topology.n_ases = 400;
  params.membership_scale = 0.15;
  params.seed = 1234;
  scenario::Scenario s(params);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  const auto bounds = record_boundaries(data);
  ASSERT_EQ(bounds.back(), data.size());

  constexpr std::size_t kFeeds = 3;
  std::vector<std::vector<std::uint8_t>> streams(kFeeds);
  std::size_t at = 0;
  for (std::size_t r = 0; r < bounds.size(); ++r) {
    const auto record =
        std::span<const std::uint8_t>(data).subspan(at, bounds[r] - at);
    auto& stream = streams[r % kFeeds];
    stream.insert(stream.end(), record.begin(), record.end());
    at = bounds[r];
  }

  pipeline::PipelineConfig pipe_config;
  pipe_config.threads = 2;
  pipeline::InferencePipeline pipe(pipe_config);
  for (const auto& ixp : ixps) pipe.add_ixp(ixp);
  for (const auto& stream : streams) {
    auto copy = stream;
    pipe.add_update_stream(std::move(copy));
  }
  const auto want = pipe.run();

  LiveConfig config;
  config.threads = 4;
  LiveSession session(config, ixps);
  std::vector<pipeline::FeedHandle> handles;
  for (std::size_t f = 0; f < kFeeds; ++f)
    handles.push_back(session.add_feed());
  std::mt19937 rng(5);
  std::vector<std::size_t> offsets(kFeeds, 0);
  std::vector<std::size_t> live;
  for (std::size_t f = 0; f < kFeeds; ++f)
    if (!streams[f].empty()) live.push_back(f);
  while (!live.empty()) {
    const std::size_t pick =
        std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
    const std::size_t f = live[pick];
    const std::size_t n =
        std::min<std::size_t>(1024 + 37, streams[f].size() - offsets[f]);
    handles[f].feed(std::span<const std::uint8_t>(
        streams[f].data() + offsets[f], n));
    offsets[f] += n;
    if (offsets[f] == streams[f].size())
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  const LiveResult result = session.finish();

  ASSERT_EQ(result.per_ixp.size(), want.per_ixp.size());
  for (std::size_t i = 0; i < want.per_ixp.size(); ++i)
    EXPECT_EQ(result.per_ixp[i].links, want.per_ixp[i].links)
        << "ixp " << i;
  EXPECT_EQ(result.all_links, want.all_links);
  EXPECT_EQ(result.passive.paths_seen, want.passive.paths_seen);
  EXPECT_EQ(result.passive.observations, want.passive.observations);
}

// ------------------------------------------------------ watermark merge

/// One BGP4MP record from `peer`: an announcement of `prefix` over
/// `path` with `communities`, or a withdrawal when `path` is empty.
std::vector<std::uint8_t> keyed_record(std::uint32_t timestamp,
                                       bgp::Asn peer,
                                       const std::string& prefix,
                                       std::vector<bgp::Asn> path,
                                       std::vector<Community> communities) {
  mrt::MrtWriter w;
  mrt::Bgp4mpMessage m;
  m.peer_asn = peer;
  m.local_asn = 65000;
  m.peer_ip = 0x0505;
  m.four_octet_as = true;
  if (path.empty()) {
    m.update.withdrawn = {*bgp::IpPrefix::parse(prefix)};
  } else {
    m.update.nlri = {*bgp::IpPrefix::parse(prefix)};
    m.update.attrs.as_path = bgp::AsPath(std::move(path));
    m.update.attrs.next_hop = 1;
    m.update.attrs.communities = std::move(communities);
  }
  w.write_bgp4mp(timestamp, m);
  return w.take();
}

/// Records of one feed for the watermark matrix, as (timestamp, bytes).
///
/// Every feed contends on the shared engine key (setter 20,
/// 10.200.0.0/16): odd feeds attach EXCLUDE(10) next to ALL, so the
/// surviving policy -- and with it link {10,20} -- depends on which
/// feed's observation the engine applies last. Withdrawals settle the
/// observations at globally distinct timestamps (k*100 + feed*7), which
/// makes exactly one merge order correct. Peer ASNs are feed-unique so
/// the per-feed announce windows equal one window over the
/// timestamp-sorted concatenation -- the archive reference below.
std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
watermark_feed_records(std::size_t feed) {
  const auto peer = static_cast<bgp::Asn>(100 + feed);
  const auto t = [&](std::uint32_t k) {
    return 1000 + k * 100 + static_cast<std::uint32_t>(feed) * 7;
  };
  std::vector<Community> shared = {Community(6695, 6695)};
  if (feed % 2 == 1) shared.push_back(Community(0, 10));  // EXCLUDE 10
  const std::string unique = "10.201." + std::to_string(feed) + ".0/24";
  const std::string tail = "10.202." + std::to_string(feed) + ".0/24";
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> records;
  records.emplace_back(
      t(0), keyed_record(t(0), peer, "10.200.0.0/16", {peer, 10, 20},
                         shared));
  records.emplace_back(t(1), keyed_record(t(1), peer, unique, {peer, 20, 10},
                                          {Community(6695, 6695)}));
  records.emplace_back(t(2),
                       keyed_record(t(2), peer, "10.200.0.0/16", {}, {}));
  records.emplace_back(t(3), keyed_record(t(3), peer, unique, {}, {}));
  records.emplace_back(t(4), keyed_record(t(4), peer, tail, {peer, 10, 20},
                                          {Community(6695, 6695)}));
  return records;
}

TEST(LiveSession, WatermarkMergeDeterminismMatrix) {
  // The PR-6 acceptance matrix: {2,4} open-ended feeds with SHARED
  // engine keys and skewed timestamps, x {1B,7B,record-aligned} chunking
  // x {1,4} threads x shuffled interleavings. The watermark merge must
  // make every run equal archive ingest of the timestamp-sorted record
  // concatenation -- the unique stable merge -- even though an arbitrary
  // interleaving would flip the contended policy.
  const auto ixps = two_ixps();
  const core::PassiveConfig passive;
  for (const std::size_t n_feeds : {std::size_t{2}, std::size_t{4}}) {
    std::vector<std::vector<std::uint8_t>> streams;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> merged;
    for (std::size_t f = 0; f < n_feeds; ++f) {
      std::vector<std::uint8_t> stream;
      for (auto& [ts, record] : watermark_feed_records(f)) {
        stream.insert(stream.end(), record.begin(), record.end());
        merged.emplace_back(ts, std::move(record));
      }
      streams.push_back(std::move(stream));
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::uint8_t> sorted_concat;
    for (const auto& [ts, record] : merged)
      sorted_concat.insert(sorted_concat.end(), record.begin(),
                           record.end());
    const Reference ref = reference_run(ixps, sorted_concat, passive);
    ASSERT_GT(ref.stats.observations, 0u);
    // The contended key makes the fixture order-sensitive: the last
    // settle of 10.200.0.0/16 comes from feed n-1 (odd), whose EXCLUDE
    // community must win and suppress link {10,20} at DE-CIX.
    EXPECT_EQ(ref.links[0].count(bgp::AsLink(10, 20)), 0u);

    for (const std::size_t step : {std::size_t{1}, std::size_t{7},
                                   std::size_t{0}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const unsigned seed : {3u, 42u}) {
          LiveConfig config;
          config.threads = threads;
          config.passive = passive;
          config.batch_size = 4;
          LiveSession session(config, ixps);
          std::vector<pipeline::FeedHandle> handles;
          for (std::size_t f = 0; f < n_feeds; ++f)
            handles.push_back(session.add_feed());

          struct FeedCursor {
            std::span<const std::uint8_t> data;
            std::vector<std::size_t> cuts;
            std::size_t at = 0;
            std::size_t cut = 0;
          };
          std::vector<FeedCursor> cursors;
          for (std::size_t f = 0; f < n_feeds; ++f)
            cursors.push_back(
                FeedCursor{streams[f], cuts_for(streams[f], step)});
          std::mt19937 rng(seed);
          std::vector<std::size_t> live;
          for (std::size_t f = 0; f < n_feeds; ++f) live.push_back(f);
          while (!live.empty()) {
            const std::size_t pick = std::uniform_int_distribution<
                std::size_t>(0, live.size() - 1)(rng);
            const std::size_t f = live[pick];
            FeedCursor& cursor = cursors[f];
            const std::size_t end = cursor.cuts[cursor.cut++];
            handles[f].feed(cursor.data.subspan(cursor.at,
                                                end - cursor.at));
            cursor.at = end;
            if (cursor.cut == cursor.cuts.size())
              live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          }

          // No close() before finish(): the feeds are open-ended for
          // their whole life; finish() alone releases the frontier.
          const LiveResult result = session.finish();
          ASSERT_EQ(result.per_ixp.size(), ixps.size());
          for (std::size_t i = 0; i < ixps.size(); ++i)
            EXPECT_EQ(result.per_ixp[i].links, ref.links[i])
                << n_feeds << " feeds, step " << step << ", threads "
                << threads << ", seed " << seed << ", ixp " << i;
          EXPECT_EQ(result.passive.paths_seen, ref.stats.paths_seen);
          EXPECT_EQ(result.passive.observations, ref.stats.observations);
          EXPECT_EQ(result.min_watermark, UINT32_MAX);  // all closed
        }
      }
    }
  }
}

TEST(LiveSession, ArchivePipelineMatchesLiveOnReverseRegisteredFeeds) {
  // Archive and live ingest run one merge. Registering the watermark
  // fixture's feeds in reverse order puts the feed whose EXCLUDE(10)
  // settles the contended key last at source index 0, so a source-order
  // drain would let feed 0's open policy win and keep link {10,20};
  // the timestamp merge applies that EXCLUDE last and drops the link.
  // InferencePipeline over the per-feed archives must answer exactly
  // what LiveSession answers over the same bytes as live feeds.
  const auto ixps = two_ixps();
  constexpr std::size_t kFeeds = 4;
  std::vector<std::vector<std::uint8_t>> streams;
  for (std::size_t f = kFeeds; f-- > 0;) {
    std::vector<std::uint8_t> stream;
    for (const auto& [ts, record] : watermark_feed_records(f))
      stream.insert(stream.end(), record.begin(), record.end());
    streams.push_back(std::move(stream));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pipeline::PipelineConfig pipe_config;
    pipe_config.threads = threads;
    pipeline::InferencePipeline pipe(pipe_config);
    for (const auto& ixp : ixps) pipe.add_ixp(ixp);
    for (const auto& stream : streams) pipe.add_update_stream(stream);
    const pipeline::PipelineResult archive = pipe.run();

    LiveConfig config;
    config.threads = threads;
    LiveSession session(config, ixps);
    std::vector<pipeline::FeedHandle> handles;
    for (std::size_t f = 0; f < kFeeds; ++f)
      handles.push_back(session.add_feed());
    for (std::size_t f = 0; f < kFeeds; ++f) handles[f].feed(streams[f]);
    const LiveResult live = session.finish();

    ASSERT_EQ(archive.per_ixp.size(), live.per_ixp.size());
    for (std::size_t i = 0; i < ixps.size(); ++i)
      EXPECT_EQ(archive.per_ixp[i].links, live.per_ixp[i].links)
          << "threads " << threads << ", ixp " << i;
    EXPECT_EQ(archive.passive.observations, live.passive.observations);
    EXPECT_EQ(live.per_ixp[0].links.count(bgp::AsLink(10, 20)), 0u);
  }
}

TEST(LiveSession, WatermarkSnapshotSeesBothOpenFeedsMidStream) {
  // Continuous merging: with two OPEN feeds (no close(), no finish()),
  // snapshot() must already reflect observations from BOTH feeds -- the
  // DE-CIX link {10,20} needs setter 20 from feed 0 AND setter 10 from
  // feed 1, each settled by a withdrawal below the shared merge frontier.
  const auto ixps = two_ixps();
  LiveConfig config;
  LiveSession session(config, ixps);
  pipeline::FeedHandle feed0 = session.add_feed();
  pipeline::FeedHandle feed1 = session.add_feed();

  const auto feed_records = [](pipeline::FeedHandle& handle,
                               const auto&... records) {
    (handle.feed(records), ...);
  };
  feed_records(
      feed0,
      keyed_record(1000, 5, "10.0.0.0/16", {5, 10, 20},
                   {Community(6695, 6695)}),
      keyed_record(1010, 5, "10.0.0.0/16", {}, {}),
      // Frontier advance: a still-pending announcement at t=2000 lifts
      // this lane's watermark without settling anything new.
      keyed_record(2000, 5, "10.1.0.0/16", {5, 10, 20},
                   {Community(6695, 6695)}));
  // Raising feed 0's watermark pushed its settled observation out of the
  // lane's partial batch: it waits in the queue for feed 1's frontier.
  EXPECT_EQ(session.merge_backlog(0), 1u);
  feed_records(
      feed1,
      keyed_record(1005, 7, "10.2.0.0/16", {7, 20, 10},
                   {Community(6695, 6695)}),
      keyed_record(1020, 7, "10.2.0.0/16", {}, {}),
      keyed_record(2000, 7, "10.3.0.0/16", {7, 20, 10},
                   {Community(6695, 6695)}));

  const pipeline::LiveSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.min_watermark, 2000u);
  EXPECT_EQ(snap.records, 6u);
  EXPECT_EQ(snap.passive.observations, 2u);  // both withdrawals settled
  ASSERT_EQ(snap.links_per_ixp.size(), 2u);
  EXPECT_EQ(snap.links_per_ixp[0], 1u);  // {10,20} live mid-stream
  ASSERT_EQ(snap.per_feed.size(), 2u);
  EXPECT_EQ(snap.per_feed[0].watermark, 2000u);
  EXPECT_EQ(snap.per_feed[1].watermark, 2000u);
  EXPECT_FALSE(snap.per_feed[0].closed);
  EXPECT_FALSE(snap.per_feed[1].closed);

  const LiveResult result = session.finish();
  EXPECT_EQ(result.per_ixp[0].links,
            std::set<bgp::AsLink>{bgp::AsLink(10, 20)});
  EXPECT_EQ(result.passive.observations, 4u);  // tails flushed at close
}

TEST(LiveSession, DetachedFeedHandleThrows) {
  pipeline::FeedHandle handle;
  EXPECT_FALSE(handle.valid());
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  EXPECT_THROW(handle.feed(bytes), InvalidArgument);
  EXPECT_THROW(handle.close(), InvalidArgument);
  EXPECT_THROW(handle.note_disconnect(), InvalidArgument);
  MemorySource source(bytes);
  EXPECT_THROW(handle.drain(source), InvalidArgument);
}

TEST(LiveSession, PeerDownEvictsPendingAnnouncements) {
  // BMP session semantics end-to-end: a PeerDown must tear down the
  // peer's standing announce-window entries (they settle through the
  // usual age test) and, once the merge frontier passes the teardown
  // time, their observations must be live in the engines -- all while
  // the feed stays open.
  const auto ixps = two_ixps();
  std::vector<std::uint8_t> archive = update_record(1000, "10.1.0.0/16");
  const auto second = update_record(1001, "10.2.0.0/16", true);
  archive.insert(archive.end(), second.begin(), second.end());
  std::vector<std::uint8_t> data = bmp_wrap_updates(archive);
  const auto down = bmp_peer_down(1500, 5, 0x0505);
  data.insert(data.end(), down.begin(), down.end());
  // Frontier advance past the teardown: a later record from another
  // peer whose announcement stays pending.
  const auto later = update_record(2000, "10.9.0.0/16");
  const auto want = mrt::parse_updates(later);
  ASSERT_EQ(want.size(), 1u);
  const auto pdu = bgp::encode_update(want[0].update, true);
  const auto rm = bmp_route_monitoring(2000, 9, 0x0909, pdu);
  data.insert(data.end(), rm.begin(), rm.end());

  LiveConfig config;
  LiveSession session(config, ixps);
  pipeline::FeedOptions options;
  options.transport = pipeline::Transport::Bmp;
  pipeline::FeedHandle handle = session.add_feed(options);
  for (std::size_t at = 0; at < data.size(); at += 7)
    handle.feed(std::span<const std::uint8_t>(data).subspan(
        at, std::min<std::size_t>(7, data.size() - at)));

  const pipeline::LiveSnapshot snap = session.snapshot();
  ASSERT_EQ(snap.per_feed.size(), 1u);
  EXPECT_EQ(snap.per_feed[0].bmp_peer_ups, 1u);
  EXPECT_EQ(snap.per_feed[0].bmp_peer_downs, 1u);
  // The PeerUp tore down an (empty) window; the PeerDown evicted peer
  // 5's two pending announcements at stream time 1500.
  EXPECT_EQ(snap.passive.peer_session_resets, 2u);
  EXPECT_EQ(snap.passive.pending_torn_down, 2u);
  EXPECT_EQ(snap.passive.observations, 2u);
  EXPECT_EQ(snap.min_watermark, 2000u);
  // Both evicted observations sit below the frontier: the link already
  // reflects them with the feed still open.
  ASSERT_EQ(snap.links_per_ixp.size(), 2u);
  EXPECT_EQ(snap.links_per_ixp[0], 1u);

  const LiveResult result = session.finish();
  EXPECT_EQ(result.passive.peer_session_resets, 2u);
  EXPECT_EQ(result.passive.pending_torn_down, 2u);
  EXPECT_EQ(result.per_ixp[0].links,
            std::set<bgp::AsLink>{bgp::AsLink(10, 20)});
}

TEST(ObservationQueue, WatermarkGatesDrainByMinimumFrontier) {
  using core::Observation;
  pipeline::ObservationQueue queue(2);
  const auto obs = [](std::uint32_t ts, const char* prefix) {
    Observation o;
    o.setter = 20;
    o.prefix = *bgp::IpPrefix::parse(prefix);
    o.timestamp = ts;
    return o;
  };
  queue.push(0, {obs(100, "10.0.0.0/16"), obs(300, "10.1.0.0/16")});
  queue.push(1, {obs(200, "10.2.0.0/16")});
  // No watermarks yet: nothing is provably final.
  EXPECT_FALSE(queue.has_ready());
  std::vector<Observation> out;

  queue.set_watermark(0, 301);
  EXPECT_FALSE(queue.has_ready());  // source 1 still pins the frontier
  queue.set_watermark(1, 250);
  // Frontier 250: one batch of 100 (source 0) then 200 (source 1),
  // holding 300 back.
  ASSERT_TRUE(queue.try_pop(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].timestamp, 100u);
  EXPECT_EQ(out[1].timestamp, 200u);
  EXPECT_FALSE(queue.try_pop(out));

  // A stale watermark never lowers the frontier.
  queue.set_watermark(1, 10);
  EXPECT_FALSE(queue.has_ready());

  // Close both: the sentinel frontier drains the remainder, and pop()
  // reports exhaustion.
  queue.push(1, {obs(400, "10.3.0.0/16")});
  queue.close(0);
  queue.close(1);
  ASSERT_TRUE(queue.pop(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].timestamp, 300u);
  EXPECT_EQ(out[1].timestamp, 400u);
  EXPECT_FALSE(queue.pop(out));
}

TEST(ObservationQueue, WatermarkTiesBreakBySourceIndexThenFifo) {
  using core::Observation;
  pipeline::ObservationQueue queue(3);
  const auto obs = [](std::uint32_t ts, std::uint32_t setter) {
    Observation o;
    o.setter = setter;
    o.prefix = *bgp::IpPrefix::parse("10.0.0.0/16");
    o.timestamp = ts;
    return o;
  };
  queue.push(2, {obs(100, 1), obs(100, 2)});
  queue.push(0, {obs(100, 3)});
  queue.push(1, {obs(50, 4)});
  for (std::size_t source = 0; source < 3; ++source)
    queue.close(source);
  std::vector<std::uint32_t> setters;
  std::vector<Observation> out;
  while (queue.pop(out))
    for (const auto& o : out) setters.push_back(o.setter);
  // 50 first; the 100s by source index, FIFO within source 2.
  const std::vector<std::uint32_t> want = {4, 3, 1, 2};
  EXPECT_EQ(setters, want);
}

TEST(LiveSession, ConcurrentFeedThreadsMatchReferenceUnderSnapshots) {
  // Lanes are independent: one thread per feed, snapshots taken from the
  // main thread while everything is in flight (the stop-the-world path
  // TSan must bless), final result still the deterministic merge.
  const auto ixps = two_ixps();
  constexpr std::size_t kFeeds = 4;
  std::vector<std::vector<std::uint8_t>> streams;
  std::vector<std::uint8_t> concat;
  for (std::size_t f = 0; f < kFeeds; ++f) {
    streams.push_back(synthetic_feed_stream(f, 40));
    concat.insert(concat.end(), streams.back().begin(),
                  streams.back().end());
  }
  const Reference ref = reference_run(ixps, concat, core::PassiveConfig{});

  LiveConfig config;
  config.threads = 2;
  LiveSession session(config, ixps);
  std::vector<pipeline::FeedHandle> handles;
  for (std::size_t f = 0; f < kFeeds; ++f)
    handles.push_back(session.add_feed());

  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < kFeeds; ++f) {
    feeders.emplace_back([&, f] {
      const auto& stream = streams[f];
      for (std::size_t feed_at = 0; feed_at < stream.size(); feed_at += 16)
        handles[f].feed(std::span<const std::uint8_t>(stream).subspan(
            feed_at, std::min<std::size_t>(16, stream.size() - feed_at)));
      handles[f].close();
    });
  }
  for (int i = 0; i < 5; ++i) {
    const auto snap = session.snapshot();
    EXPECT_LE(snap.records, kFeeds * 40u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)session.records();
  for (auto& feeder : feeders) feeder.join();

  const LiveResult result = session.finish();
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_EQ(result.per_ixp[i].links, ref.links[i]) << "ixp " << i;
  EXPECT_EQ(result.passive.observations, ref.stats.observations);
}

TEST(LiveSession, FeedLifecycleCloseOrderingAndErrors) {
  const auto ixps = two_ixps();
  const auto stream0 = synthetic_feed_stream(0, 10);
  const auto stream1 = synthetic_feed_stream(1, 10);
  std::vector<std::uint8_t> concat = stream0;
  concat.insert(concat.end(), stream1.begin(), stream1.end());
  const Reference ref = reference_run(ixps, concat, core::PassiveConfig{});

  LiveConfig config;
  LiveSession session(config, ixps);
  pipeline::FeedHandle first = session.add_feed();
  first.feed(stream0);
  first.close();
  first.close();  // idempotent
  EXPECT_THROW(first.feed(stream0), InvalidArgument);
  // A feed added mid-session continues the merge order.
  pipeline::FeedHandle second = session.add_feed();
  second.feed(stream1);
  const LiveResult result = session.finish();
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_EQ(result.per_ixp[i].links, ref.links[i]) << "ixp " << i;
  EXPECT_EQ(result.passive.observations, ref.stats.observations);
  EXPECT_THROW(session.add_feed(), InvalidArgument);
  EXPECT_THROW(session.finish(), InvalidArgument);
}

// ------------------------------------------------------------ reconnect

TEST(ReconnectingSource, BackoffIsBoundedExponential) {
  std::vector<std::chrono::milliseconds> sleeps;
  int dials = 0;
  ReconnectPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(6);
  policy.reconnect_on_clean_eof = false;
  ReconnectingSource source(
      [&]() -> std::unique_ptr<StreamSource> {
        if (++dials < 5) throw ParseError("connection refused");
        return std::make_unique<MemorySource>(
            std::vector<std::uint8_t>{1, 2, 3});
      },
      policy,
      [&](std::chrono::milliseconds d) { sleeps.push_back(d); });

  std::uint8_t buffer[8];
  EXPECT_EQ(source.read(buffer), 3u);
  EXPECT_EQ(source.dial_attempts(), 5u);
  // The first attempt is immediate; then 1, 2, 4 ms, capped at 6.
  const std::vector<std::chrono::milliseconds> want = {
      std::chrono::milliseconds(1), std::chrono::milliseconds(2),
      std::chrono::milliseconds(4), std::chrono::milliseconds(6)};
  EXPECT_EQ(sleeps, want);
  EXPECT_EQ(source.read(buffer), 0u);  // clean EOF, no reconnect asked
  EXPECT_EQ(source.disconnects(), 1u);
  EXPECT_EQ(source.reconnects(), 0u);
  EXPECT_FALSE(source.exhausted());
}

TEST(ReconnectingSource, ExhaustedDialBudgetEndsStream) {
  std::vector<std::chrono::milliseconds> sleeps;
  ReconnectPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(100);
  ReconnectingSource source(
      []() -> std::unique_ptr<StreamSource> {
        throw ParseError("connection refused");
      },
      policy, [&](std::chrono::milliseconds d) { sleeps.push_back(d); });
  std::uint8_t buffer[8];
  EXPECT_EQ(source.read(buffer), 0u);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.dial_attempts(), 3u);
  const std::vector<std::chrono::milliseconds> want = {
      std::chrono::milliseconds(1), std::chrono::milliseconds(2)};
  EXPECT_EQ(sleeps, want);
  EXPECT_EQ(source.read(buffer), 0u);  // stays over
}

TEST(ReconnectingSource, BarrenConnectionsAreThrottledAndBounded) {
  // A crash-looping peer whose listen queue keeps completing handshakes:
  // every dial succeeds, every connection dies without a byte. The
  // wrapper must back off between such connections and give up after
  // max_attempts of them instead of spinning forever.
  std::vector<std::chrono::milliseconds> sleeps;
  int dials = 0;
  ReconnectPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(4);
  ReconnectingSource source(
      [&]() -> std::unique_ptr<StreamSource> {
        ++dials;
        return std::make_unique<MemorySource>(std::vector<std::uint8_t>{});
      },
      policy, [&](std::chrono::milliseconds d) { sleeps.push_back(d); });
  std::uint8_t buffer[8];
  EXPECT_EQ(source.read(buffer), 0u);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(dials, 3);
  EXPECT_EQ(source.disconnects(), 3u);
  const std::vector<std::chrono::milliseconds> want = {
      std::chrono::milliseconds(1), std::chrono::milliseconds(2)};
  EXPECT_EQ(sleeps, want);
  EXPECT_NE(source.last_error().find("before serving"), std::string::npos);
}

/// Flaky in-process TCP server: accept, send [0, first_stop), drop the
/// connection, accept again, send [resume_at, end), then close the
/// listener (so the client's post-stream redial fails fast) and the
/// connection.
void run_flaky_server(const TcpListener& listener,
                      std::span<const std::uint8_t> data,
                      std::size_t first_stop, std::size_t resume_at) {
  int fd = tcp_accept(listener.fd);
  write_all(fd, data.first(first_stop));
  close_fd(fd);
  fd = tcp_accept(listener.fd);
  write_all(fd, data.subspan(resume_at));
  close_fd(listener.fd);
  close_fd(fd);
}

struct ReconnectOutcome {
  std::uint64_t drained = 0;
  std::uint64_t reconnects = 0;
  bool exhausted = false;
  pipeline::LiveResult result;
};

ReconnectOutcome run_reconnect_session(
    const std::vector<core::IxpContext>& ixps,
    std::span<const std::uint8_t> data, std::size_t first_stop,
    std::size_t resume_at) {
  const TcpListener listener = open_tcp_listener(0);
  std::thread server(
      [&] { run_flaky_server(listener, data, first_stop, resume_at); });

  LiveConfig config;
  config.threads = 2;
  config.read_chunk = 512;
  pipeline::LiveSession session(config, ixps);
  pipeline::FeedHandle handle = session.add_feed();
  ReconnectPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(8);
  const std::uint16_t port = listener.port;
  ReconnectingSource source(
      [port]() -> std::unique_ptr<StreamSource> {
        return std::make_unique<FdSource>(tcp_connect("127.0.0.1", port));
      },
      policy);
  source.set_on_reconnect([&handle]() { handle.note_disconnect(); });

  ReconnectOutcome outcome;
  outcome.drained = handle.drain(source);
  server.join();
  outcome.reconnects = source.reconnects();
  outcome.exhausted = source.exhausted();
  outcome.result = session.finish();
  return outcome;
}

TEST(LiveSession, ReconnectResumesAfterMidRecordDrop) {
  const auto ixps = two_ixps();
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 12; ++i) {
    const auto record = update_record(
        1000 + i, "10." + std::to_string(i) + ".0.0/16", i % 2 == 1);
    data.insert(data.end(), record.begin(), record.end());
  }
  const auto bounds = record_boundaries(data);
  ASSERT_EQ(bounds.size(), 12u);
  const std::size_t resume_at = bounds[5];
  const std::size_t first_stop = resume_at + 10;  // 10B into record 6
  const Reference ref = reference_run(ixps, data, core::PassiveConfig{});

  const ReconnectOutcome outcome =
      run_reconnect_session(ixps, data, first_stop, resume_at);

  // Every byte arrived, plus the torn partial that was dropped on resume.
  EXPECT_EQ(outcome.drained, data.size() + 10);
  EXPECT_EQ(outcome.reconnects, 1u);
  EXPECT_TRUE(outcome.exhausted);  // the post-stream redial spent the budget
  ASSERT_EQ(outcome.result.per_ixp.size(), ixps.size());
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_EQ(outcome.result.per_ixp[i].links, ref.links[i]) << "ixp " << i;
  EXPECT_EQ(outcome.result.passive.observations, ref.stats.observations);
  EXPECT_EQ(outcome.result.passive.records_malformed, 0u);
  ASSERT_EQ(outcome.result.per_feed.size(), 1u);
  const pipeline::FeedStats& feed = outcome.result.per_feed[0];
  EXPECT_EQ(feed.records, 12u);
  EXPECT_EQ(feed.dirty_disconnects, 1u);
  EXPECT_EQ(feed.clean_disconnects, 0u);
  EXPECT_EQ(feed.partial_records_dropped, 1u);
}

TEST(LiveSession, ReconnectAtRecordBoundaryIsClean) {
  const auto ixps = two_ixps();
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 10; ++i) {
    const auto record = update_record(
        2000 + i, "10." + std::to_string(i) + ".0.0/16", i % 2 == 1);
    data.insert(data.end(), record.begin(), record.end());
  }
  const auto bounds = record_boundaries(data);
  const std::size_t cut = bounds[4];
  const Reference ref = reference_run(ixps, data, core::PassiveConfig{});

  const ReconnectOutcome outcome =
      run_reconnect_session(ixps, data, cut, cut);

  EXPECT_EQ(outcome.drained, data.size());
  EXPECT_EQ(outcome.reconnects, 1u);
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_EQ(outcome.result.per_ixp[i].links, ref.links[i]) << "ixp " << i;
  ASSERT_EQ(outcome.result.per_feed.size(), 1u);
  const pipeline::FeedStats& feed = outcome.result.per_feed[0];
  EXPECT_EQ(feed.records, 10u);
  EXPECT_EQ(feed.clean_disconnects, 1u);
  EXPECT_EQ(feed.dirty_disconnects, 0u);
  EXPECT_EQ(feed.partial_records_dropped, 0u);
  EXPECT_EQ(outcome.result.passive.records_malformed, 0u);
}

// -------------------------------------------------------- golden corpus

std::vector<std::uint8_t> load_fixture(const std::string& name) {
  return mrt::load_file(std::string(MLP_TEST_DATA_DIR) + "/" + name);
}

TEST(GoldenCorpus, UpdatesArchiveYieldsPinnedLinkSetAndStats) {
  // tests/data/golden_updates.mrt is hand-assembled from the RFC wire
  // formats (see make_golden.py) and committed: these pins anchor decode
  // behavior to real bytes, not to the repo's own encoder.
  const auto data = load_fixture("golden_updates.mrt");
  const auto ixps = two_ixps();
  LiveConfig config;
  LiveSession session(config, ixps);
  session.feed(data);
  const LiveResult result = session.finish();

  EXPECT_EQ(result.records, 6u);
  EXPECT_EQ(result.records_skipped, 1u);  // the PEER_INDEX_TABLE
  EXPECT_EQ(result.passive.paths_seen, 4u);
  EXPECT_EQ(result.passive.observations, 4u);
  EXPECT_EQ(result.passive.records_malformed, 0u);
  ASSERT_EQ(result.per_ixp.size(), 2u);
  const std::set<bgp::AsLink> want_link = {bgp::AsLink(10, 20)};
  EXPECT_EQ(result.per_ixp[0].links, want_link);  // DE-CIX: 6695:6695
  EXPECT_EQ(result.per_ixp[1].links, want_link);  // MSK-IX: 8631:8631
}

TEST(GoldenCorpus, BmpSessionYieldsPinnedSnapshot) {
  const auto data = load_fixture("golden_session.bmp");
  const auto ixps = two_ixps();
  LiveConfig config;
  LiveSession session(config, ixps);
  pipeline::FeedOptions options;
  options.transport = pipeline::Transport::Bmp;
  pipeline::FeedHandle handle = session.add_feed(options);
  // 3-byte slivers: every BMP header and PDU straddles chunk boundaries.
  for (std::size_t at = 0; at < data.size(); at += 3)
    handle.feed(std::span<const std::uint8_t>(data).subspan(
        at, std::min<std::size_t>(3, data.size() - at)));
  const LiveResult result = session.finish();

  ASSERT_EQ(result.per_feed.size(), 1u);
  const pipeline::FeedStats& feed = result.per_feed[0];
  EXPECT_EQ(feed.bmp_messages, 10u);
  // Initiation, Termination, Stats Report, KEEPALIVE RM.
  EXPECT_EQ(feed.bmp_skipped, 4u);
  EXPECT_EQ(feed.bmp_peer_ups, 1u);
  EXPECT_EQ(feed.bmp_peer_downs, 1u);
  // Two AS4-peer update RMs, the IPv6-peer RM (AFI-2 synthesis), and the
  // legacy (A flag) RM whose path must decode with 2-byte ASN width.
  EXPECT_EQ(feed.records, 4u);
  EXPECT_EQ(result.passive.paths_seen, 4u);
  EXPECT_EQ(result.passive.observations, 4u);
  // The Peer Up found an empty window; the Peer Down at stream time 2030
  // tore down all four still-pending announcements.
  EXPECT_EQ(result.passive.peer_session_resets, 2u);
  EXPECT_EQ(result.passive.pending_torn_down, 4u);
  // The feed's lane clock advanced through the Peer Down timestamp.
  EXPECT_EQ(feed.watermark, 2030u);
  ASSERT_EQ(result.per_ixp.size(), 2u);
  const std::set<bgp::AsLink> want_link = {bgp::AsLink(10, 20)};
  EXPECT_EQ(result.per_ixp[0].links, want_link);  // DE-CIX
  // The legacy RM carried the MSK-IX community: one observation (member
  // 20), not enough for a reciprocal link.
  EXPECT_TRUE(result.per_ixp[1].links.empty());
  EXPECT_EQ(result.per_ixp[1].stats.observed_members, 1u);
}

}  // namespace
}  // namespace mlp::stream
