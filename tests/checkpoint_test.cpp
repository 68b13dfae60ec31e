// Checkpoint/restore: the file image (CRC32C, torn-write rejection,
// generation fallback) and the session round trip (serialize mid-stream,
// restore into a fresh session, continue from the acknowledged offsets,
// finish byte-identical to the uninterrupted run -- the exactly-once
// resume contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/passive.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/live_session.hpp"
#include "scenario/scenario.hpp"
#include "stream/bmp_framer.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {
namespace {

// ------------------------------------------------------------- fixtures

scenario::Scenario make_scenario(std::uint64_t seed = 424242) {
  scenario::ScenarioParams params;
  params.topology.n_ases = 400;
  params.membership_scale = 0.15;
  params.seed = seed;
  return scenario::Scenario(params);
}

std::vector<std::uint8_t> random_payload(std::size_t size,
                                         std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> payload(size);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
  return payload;
}

/// Scratch directory for the file-layer tests, removed on destruction.
struct TempDir {
  TempDir() {
    path = (std::filesystem::temp_directory_path() /
            ("mlp_ckpt_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return path + "/" + name;
  }
  std::string path;
  static inline int counter = 0;
};

void write_raw(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::vector<std::uint8_t> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// ------------------------------------------------------ CRC + file image

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC32C check value (iSCSI test vector).
  const std::string nine = "123456789";
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(nine.data()),
                nine.size())),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0x00000000u);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);  // RFC 3720 B.4 vector
}

TEST(CheckpointImage, EncodeDecodeRoundTrip) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{63}, std::size_t{4096}}) {
    const auto payload = random_payload(size, 7 + size);
    const auto image = encode_checkpoint(payload);
    EXPECT_EQ(image.size(), payload.size() + 24);
    EXPECT_EQ(decode_checkpoint(image), payload);
  }
}

TEST(CheckpointImage, TruncationAtEvery64ByteBoundaryRejected) {
  // A torn write can stop at any point; no prefix may decode. Every
  // 64-byte boundary plus the off-by-one edges around the header.
  const auto payload = random_payload(4096 + 17, 99);
  const auto image = encode_checkpoint(payload);
  std::vector<std::size_t> cuts = {0, 1, 23, 24, 25, image.size() - 1};
  for (std::size_t cut = 64; cut < image.size(); cut += 64)
    cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    EXPECT_THROW(
        decode_checkpoint(std::span<const std::uint8_t>(image.data(), cut)),
        ParseError)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(CheckpointImage, EveryByteFlipRejected) {
  // Flip each byte of a small image in turn (all 8 bits): magic, version,
  // length, CRC and payload corruption must all surface as ParseError.
  const auto payload = random_payload(256, 3);
  const auto image = encode_checkpoint(payload);
  for (std::size_t at = 0; at < image.size(); ++at) {
    auto corrupt = image;
    corrupt[at] ^= 0xFF;
    EXPECT_THROW(decode_checkpoint(corrupt), ParseError)
        << "flip at byte " << at << " decoded";
  }
  // A single-bit flip in the payload must be caught too.
  auto one_bit = image;
  one_bit[24 + 100] ^= 0x01;
  EXPECT_THROW(decode_checkpoint(one_bit), ParseError);
}

TEST(CheckpointImage, VersionMismatchRejected) {
  const auto payload = random_payload(64, 5);
  auto image = encode_checkpoint(payload);
  image[11] = kCheckpointVersion + 1;  // version u32 lives at bytes 8..11
  EXPECT_THROW(decode_checkpoint(image), ParseError);
}

TEST(CheckpointImage, VersionTwoImageRejected) {
  // Version 2 payloads carry a merge-policy byte, per-feed idle bits and
  // a queue batch list with its drain cursor. The CRC covers only the
  // payload, so the header version is what must refuse such a file, both
  // when decoding and when loading it from disk.
  auto image = encode_checkpoint(random_payload(64, 6));
  image[11] = 2;
  EXPECT_THROW(decode_checkpoint(image), ParseError);
  TempDir dir;
  const std::string path = dir.file("v2.ckpt");
  write_raw(path, image);
  EXPECT_THROW((void)read_checkpoint_file(path), CheckpointError);
}

// -------------------------------------------------- generation rotation

TEST(CheckpointFile, RotationKeepsPreviousGeneration) {
  TempDir dir;
  const std::string path = dir.file("ckpt.bin");
  const auto gen1 = random_payload(512, 1);
  const auto gen2 = random_payload(700, 2);

  write_checkpoint_file(path, gen1);
  EXPECT_EQ(read_checkpoint_file(path).payload, gen1);
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));

  write_checkpoint_file(path, gen2);
  const auto loaded = read_checkpoint_file(path);
  EXPECT_EQ(loaded.payload, gen2);
  EXPECT_FALSE(loaded.from_previous_generation);
  // The previous generation survives, itself a complete valid image.
  EXPECT_EQ(decode_checkpoint(read_raw(path + ".1")), gen1);
}

TEST(CheckpointFile, FallsBackOneGenerationOnCorruption) {
  TempDir dir;
  const std::string path = dir.file("ckpt.bin");
  const auto gen1 = random_payload(512, 1);
  const auto gen2 = random_payload(700, 2);
  write_checkpoint_file(path, gen1);
  write_checkpoint_file(path, gen2);

  // Corrupt the newest generation at every 64-byte truncation point:
  // the loader must serve the previous generation every time.
  const auto image = read_raw(path);
  for (std::size_t cut = 0; cut < image.size(); cut += 64) {
    write_raw(path, std::span<const std::uint8_t>(image.data(), cut));
    const auto loaded = read_checkpoint_file(path);
    EXPECT_EQ(loaded.payload, gen1) << "truncated to " << cut;
    EXPECT_TRUE(loaded.from_previous_generation);
  }
  // Bit rot instead of truncation: same fallback.
  auto flipped = image;
  flipped[flipped.size() / 2] ^= 0x10;
  write_raw(path, flipped);
  EXPECT_EQ(read_checkpoint_file(path).payload, gen1);

  // Both generations bad: loud failure, never garbage.
  write_raw(path + ".1", std::span<const std::uint8_t>(flipped.data(), 8));
  EXPECT_THROW((void)read_checkpoint_file(path), CheckpointError);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  EXPECT_THROW((void)read_checkpoint_file(path), CheckpointError);
}

// ------------------------------------------------- session round trips

struct RunResult {
  std::vector<std::set<bgp::AsLink>> links;
  std::vector<bgp::AsLink> all_links;
  std::size_t paths_seen = 0;
  std::size_t observations = 0;
  std::uint64_t records = 0;
};

RunResult digest(const LiveResult& result) {
  RunResult digest;
  for (const auto& ixp : result.per_ixp) digest.links.push_back(ixp.links);
  digest.all_links = result.all_links;
  digest.paths_seen = result.passive.paths_seen;
  digest.observations = result.passive.observations;
  digest.records = result.records;
  return digest;
}

void expect_same(const RunResult& got, const RunResult& want,
                 const std::string& label) {
  ASSERT_EQ(got.links.size(), want.links.size()) << label;
  for (std::size_t i = 0; i < want.links.size(); ++i)
    EXPECT_EQ(got.links[i], want.links[i]) << label << " ixp " << i;
  EXPECT_EQ(got.all_links, want.all_links) << label;
  EXPECT_EQ(got.paths_seen, want.paths_seen) << label;
  EXPECT_EQ(got.observations, want.observations) << label;
  EXPECT_EQ(got.records, want.records) << label;
}

LiveConfig session_config(std::size_t threads) {
  LiveConfig config;
  config.threads = threads;
  config.batch_size = 64;
  return config;
}

std::vector<FeedHandle> add_feeds(LiveSession& session, std::size_t count,
                                  Transport transport) {
  std::vector<FeedHandle> handles;
  for (std::size_t i = 0; i < count; ++i) {
    FeedOptions options;
    options.name = "feed" + std::to_string(i);
    options.transport = transport;
    handles.push_back(session.add_feed(options));
  }
  return handles;
}

void feed_range(FeedHandle& handle, std::span<const std::uint8_t> data,
                std::size_t chunk, std::mt19937* jitter = nullptr) {
  std::size_t at = 0;
  while (at < data.size()) {
    std::size_t n = std::min(chunk, data.size() - at);
    if (jitter != nullptr)
      n = std::min<std::size_t>(data.size() - at,
                                1 + (*jitter)() % (2 * chunk));
    handle.feed(data.subspan(at, n));
    at += n;
  }
}

TEST(SessionCheckpoint, ResumeMatchesUninterruptedRunMatrix) {
  // The exactly-once contract, as a property over {threads} x {chunking}
  // x {split point}: serialize mid-stream, restore into a fresh session,
  // re-feed from the acknowledged offset with a DIFFERENT chunking, and
  // the finished result must be byte-identical to the uninterrupted run.
  auto s = make_scenario();
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);
  ASSERT_GT(data.size(), 2048u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LiveSession uninterrupted(session_config(threads), ixps);
    auto ref_handles = add_feeds(uninterrupted, 1, Transport::RawMrt);
    feed_range(ref_handles[0], data, 4096);
    const RunResult want = digest(uninterrupted.finish());
    ASSERT_FALSE(want.all_links.empty());

    std::mt19937 rng(1000 + threads);
    const std::vector<std::size_t> splits = {
        1, 13, data.size() / 3, data.size() / 2, data.size() - 1};
    for (const std::size_t split : splits) {
      for (const std::size_t chunk : {std::size_t{1 + rng() % 97},
                                      std::size_t{4096}}) {
        LiveSession first(session_config(threads), ixps);
        auto first_handles = add_feeds(first, 1, Transport::RawMrt);
        feed_range(first_handles[0],
                   std::span<const std::uint8_t>(data.data(), split), chunk,
                   &rng);
        const auto payload = first.serialize_state();
        const auto acked = first.acknowledged_offsets();
        ASSERT_EQ(acked.size(), 1u);
        // The acked offset never exceeds what was fed, and everything
        // before it is covered by the payload.
        ASSERT_LE(acked[0], split);

        LiveSession second(session_config(threads), ixps);
        auto second_handles = add_feeds(second, 1, Transport::RawMrt);
        second.restore_state(payload);
        // The resumed transport replays from the acknowledged offset.
        feed_range(second_handles[0],
                   std::span<const std::uint8_t>(data).subspan(acked[0]),
                   1 + rng() % 512, &rng);
        expect_same(digest(second.finish()), want,
                    "threads " + std::to_string(threads) + " split " +
                        std::to_string(split) + " chunk " +
                        std::to_string(chunk));
      }
    }
  }
}

TEST(SessionCheckpoint, MultiFeedWatermarkResumeMatches) {
  // Two concurrent feeds under the watermark merge, each interrupted at
  // its own offset. Engine/queue contents at the split depend on the
  // interleaving; the restored union must still finish identically.
  auto s = make_scenario(77);
  const auto ixps = s.ixp_contexts();
  ASSERT_GE(s.collectors().size(), 2u);
  const auto data0 = s.collectors()[0].update_dump(1367366400);
  const auto data1 = s.collectors()[1].update_dump(1367366400);

  LiveSession uninterrupted(session_config(2), ixps);
  auto ref_handles = add_feeds(uninterrupted, 2, Transport::RawMrt);
  feed_range(ref_handles[0], data0, 4096);
  feed_range(ref_handles[1], data1, 4096);
  const RunResult want = digest(uninterrupted.finish());

  std::mt19937 rng(5);
  for (int round = 0; round < 4; ++round) {
    const std::size_t split0 = 1 + rng() % (data0.size() - 1);
    const std::size_t split1 = 1 + rng() % (data1.size() - 1);
    LiveSession first(session_config(2), ixps);
    auto first_handles = add_feeds(first, 2, Transport::RawMrt);
    // Interleave the two feeds' prefixes in alternating slices.
    std::size_t at0 = 0, at1 = 0;
    while (at0 < split0 || at1 < split1) {
      if (at0 < split0) {
        const std::size_t n =
            std::min<std::size_t>(split0 - at0, 1 + rng() % 1024);
        first_handles[0].feed(
            std::span<const std::uint8_t>(data0.data() + at0, n));
        at0 += n;
      }
      if (at1 < split1) {
        const std::size_t n =
            std::min<std::size_t>(split1 - at1, 1 + rng() % 1024);
        first_handles[1].feed(
            std::span<const std::uint8_t>(data1.data() + at1, n));
        at1 += n;
      }
    }
    const auto payload = first.serialize_state();
    const auto acked = first.acknowledged_offsets();
    ASSERT_EQ(acked.size(), 2u);

    LiveSession second(session_config(2), ixps);
    auto second_handles = add_feeds(second, 2, Transport::RawMrt);
    second.restore_state(payload);
    feed_range(second_handles[0],
               std::span<const std::uint8_t>(data0).subspan(acked[0]), 777,
               &rng);
    feed_range(second_handles[1],
               std::span<const std::uint8_t>(data1).subspan(acked[1]), 777,
               &rng);
    expect_same(digest(second.finish()), want,
                "round " + std::to_string(round));
  }
}

TEST(SessionCheckpoint, BmpFeedResumeMatches) {
  // The BMP transport serializes both framing layers; the acknowledged
  // offset counts BMP transport bytes.
  auto s = make_scenario(99);
  const auto ixps = s.ixp_contexts();
  const auto data =
      stream::bmp_wrap_updates(s.collectors().front().update_dump(1367366400));

  LiveSession uninterrupted(session_config(1), ixps);
  auto ref_handles = add_feeds(uninterrupted, 1, Transport::Bmp);
  feed_range(ref_handles[0], data, 4096);
  const RunResult want = digest(uninterrupted.finish());

  std::mt19937 rng(6);
  for (const std::size_t split :
       {data.size() / 4, data.size() / 2, data.size() - 3}) {
    LiveSession first(session_config(1), ixps);
    auto first_handles = add_feeds(first, 1, Transport::Bmp);
    feed_range(first_handles[0],
               std::span<const std::uint8_t>(data.data(), split), 997, &rng);
    const auto payload = first.serialize_state();
    const auto acked = first.acknowledged_offsets();

    LiveSession second(session_config(1), ixps);
    auto second_handles = add_feeds(second, 1, Transport::Bmp);
    second.restore_state(payload);
    feed_range(second_handles[0],
               std::span<const std::uint8_t>(data).subspan(acked[0]), 313,
               &rng);
    expect_same(digest(second.finish()), want,
                "bmp split " + std::to_string(split));
  }
}

TEST(SessionCheckpoint, RestoreRejectsMismatchedWiringAndStaysUsable) {
  auto s = make_scenario(11);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);

  LiveSession source(session_config(1), ixps);
  auto source_handles = add_feeds(source, 2, Transport::RawMrt);
  feed_range(source_handles[0],
             std::span<const std::uint8_t>(data.data(), data.size() / 2),
             4096);
  const auto payload = source.serialize_state();

  // Wrong feed count.
  {
    LiveSession session(session_config(1), ixps);
    add_feeds(session, 1, Transport::RawMrt);
    EXPECT_THROW(session.restore_state(payload), InvalidArgument);
  }
  // Wrong transport.
  {
    LiveSession session(session_config(1), ixps);
    add_feeds(session, 2, Transport::Bmp);
    EXPECT_THROW(session.restore_state(payload), InvalidArgument);
  }
  // Wrong feed name.
  {
    LiveSession session(session_config(1), ixps);
    FeedOptions options;
    options.name = "other";
    session.add_feed(options);
    session.add_feed(FeedOptions{});
    EXPECT_THROW(session.restore_state(payload), InvalidArgument);
  }
  // A session that already ingested bytes cannot be restored over.
  {
    LiveSession session(session_config(1), ixps);
    auto handles = add_feeds(session, 2, Transport::RawMrt);
    handles[0].feed(std::span<const std::uint8_t>(data.data(), 8));
    EXPECT_THROW(session.restore_state(payload), InvalidArgument);
  }
  // After a rejected restore the session is untouched and fully usable:
  // a fresh-session run must equal the never-restored reference.
  {
    LiveSession reference(session_config(1), ixps);
    auto ref_handles = add_feeds(reference, 1, Transport::RawMrt);
    feed_range(ref_handles[0], data, 4096);
    const RunResult want = digest(reference.finish());

    LiveSession session(session_config(1), ixps);
    auto handles = add_feeds(session, 1, Transport::RawMrt);
    EXPECT_THROW(session.restore_state({}), ParseError);
    EXPECT_THROW(session.restore_state(payload), InvalidArgument);
    feed_range(handles[0], data, 4096);
    expect_same(digest(session.finish()), want, "post-rejection run");
  }
}

TEST(SessionCheckpoint, RestoreRejectsGarbageNeverPartiallyApplied) {
  auto s = make_scenario(13);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);

  LiveSession source(session_config(1), ixps);
  auto source_handles = add_feeds(source, 1, Transport::RawMrt);
  feed_range(source_handles[0],
             std::span<const std::uint8_t>(data.data(), data.size() / 2),
             4096);
  const auto payload = source.serialize_state();

  LiveSession reference(session_config(1), ixps);
  auto ref_handles = add_feeds(reference, 1, Transport::RawMrt);
  feed_range(ref_handles[0], data, 4096);
  const RunResult want = digest(reference.finish());

  LiveSession session(session_config(1), ixps);
  auto handles = add_feeds(session, 1, Transport::RawMrt);
  // Truncated payloads, trailing bytes, and random garbage: every
  // rejection must leave the session exactly as wired.
  std::mt19937 rng(21);
  for (std::size_t cut = 0; cut < payload.size();
       cut += 1 + payload.size() / 37) {
    EXPECT_THROW(session.restore_state(
                     std::span<const std::uint8_t>(payload.data(), cut)),
                 std::exception)
        << "truncated payload of " << cut << " bytes applied";
  }
  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(session.restore_state(trailing), ParseError);
  for (int round = 0; round < 16; ++round) {
    const auto garbage = random_payload(1 + rng() % 512, rng());
    EXPECT_THROW(session.restore_state(garbage), std::exception);
  }
  feed_range(handles[0], data, 4096);
  expect_same(digest(session.finish()), want, "post-garbage run");
}

TEST(SessionCheckpoint, SaveRestoreThroughFilesEndToEnd) {
  TempDir dir;
  const std::string path = dir.file("session.ckpt");
  auto s = make_scenario(31);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);

  LiveSession uninterrupted(session_config(2), ixps);
  auto ref_handles = add_feeds(uninterrupted, 1, Transport::RawMrt);
  feed_range(ref_handles[0], data, 4096);
  const RunResult want = digest(uninterrupted.finish());

  LiveSession first(session_config(2), ixps);
  auto first_handles = add_feeds(first, 1, Transport::RawMrt);
  feed_range(first_handles[0],
             std::span<const std::uint8_t>(data.data(), data.size() / 3),
             2048);
  save_checkpoint(first, path);
  // A later, further-along checkpoint rotates the first one out...
  feed_range(first_handles[0],
             std::span<const std::uint8_t>(data)
                 .subspan(data.size() / 3, data.size() / 3),
             2048);
  save_checkpoint(first, path);
  const auto acked = first.acknowledged_offsets();

  // ...and a torn newest generation falls back to the older snapshot,
  // whose restore still finishes identically (just replaying more).
  {
    LiveSession resumed(session_config(2), ixps);
    auto handles = add_feeds(resumed, 1, Transport::RawMrt);
    const auto loaded = restore_checkpoint(resumed, path);
    EXPECT_FALSE(loaded.from_previous_generation);
    feed_range(handles[0],
               std::span<const std::uint8_t>(data).subspan(acked[0]), 4096);
    expect_same(digest(resumed.finish()), want, "newest generation");
  }
  {
    const auto image = read_raw(path);
    write_raw(path, std::span<const std::uint8_t>(image.data(),
                                                  image.size() / 2));
    LiveSession resumed(session_config(2), ixps);
    auto handles = add_feeds(resumed, 1, Transport::RawMrt);
    const auto loaded = restore_checkpoint(resumed, path);
    EXPECT_TRUE(loaded.from_previous_generation);
    const auto old_acked = resumed.acknowledged_offsets();
    ASSERT_LE(old_acked[0], acked[0]);
    feed_range(handles[0],
               std::span<const std::uint8_t>(data).subspan(old_acked[0]),
               4096);
    expect_same(digest(resumed.finish()), want, "fallback generation");
  }
}

TEST(SessionCheckpoint, EpochCounterSurvivesRestore) {
  // The per-shard epoch counter is part of the v2 payload: a restored
  // session republishes PAST the serialized counter before any pump
  // runs, so a reader comparing epochs across a crash/resume never sees
  // the scale move backwards (or read pre-crash state as fresh).
  auto s = make_scenario(51);
  const auto ixps = s.ixp_contexts();
  const auto data = s.collectors().front().update_dump(1367366400);

  LiveSession first(session_config(1), ixps);
  auto first_handles = add_feeds(first, 1, Transport::RawMrt);
  feed_range(first_handles[0],
             std::span<const std::uint8_t>(data.data(), data.size() / 2),
             1024);
  (void)first.snapshot();  // settle + publish a fresh epoch per shard
  std::vector<std::uint64_t> epochs_before;
  for (std::size_t i = 0; i < ixps.size(); ++i)
    epochs_before.push_back(first.epoch_snapshot(i)->epoch());
  const auto payload = first.serialize_state();
  const auto acked = first.acknowledged_offsets();

  LiveSession second(session_config(1), ixps);
  auto second_handles = add_feeds(second, 1, Transport::RawMrt);
  // A fresh session has published exactly its construction epoch.
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_EQ(second.epoch_snapshot(i)->epoch(), 1u) << "ixp " << i;
  second.restore_state(payload);
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto snap = second.epoch_snapshot(i);
    EXPECT_GT(snap->epoch(), epochs_before[i]) << "ixp " << i;
    // The republished snapshot answers from the restored engine, not the
    // fresh one: same link count the source session had published.
    EXPECT_EQ(snap->link_count(), first.epoch_snapshot(i)->link_count())
        << "ixp " << i;
  }
  // Epochs stay monotone through the remaining ingest and the final
  // settle.
  std::vector<std::uint64_t> after_restore;
  for (std::size_t i = 0; i < ixps.size(); ++i)
    after_restore.push_back(second.epoch_snapshot(i)->epoch());
  feed_range(second_handles[0],
             std::span<const std::uint8_t>(data).subspan(acked[0]), 2048);
  (void)second.snapshot();
  for (std::size_t i = 0; i < ixps.size(); ++i)
    EXPECT_GE(second.epoch_snapshot(i)->epoch(), after_restore[i])
        << "ixp " << i;
  (void)second.finish();
}

TEST(SessionCheckpoint, QueueDepthSurfacesInStats) {
  // Under the watermark merge, one feed far behind the other leaves the
  // leading feed's observations queued; the snapshot must expose that
  // backlog, and finish() must drain it to zero.
  auto s = make_scenario(41);
  const auto ixps = s.ixp_contexts();
  const auto data0 = s.collectors()[0].update_dump(1367366400);

  auto config = session_config(1);
  // Bound the announce-window so stable announcements surface as
  // observations mid-stream (FIFO eviction) instead of only at close.
  config.passive.max_pending_announcements = 50;
  LiveSession session(config, ixps);
  auto handles = add_feeds(session, 2, Transport::RawMrt);
  handles[0].feed(data0);  // feed 1 never speaks: frontier stays at 0
  const auto snap = session.snapshot();
  EXPECT_GT(snap.queue_depth, 0u);
  ASSERT_EQ(snap.per_feed.size(), 2u);
  EXPECT_EQ(snap.per_feed[0].queue_depth, snap.queue_depth);
  EXPECT_EQ(snap.per_feed[1].queue_depth, 0u);
  const auto result = session.finish();
  EXPECT_EQ(result.queue_depth, 0u);
}

}  // namespace
}  // namespace mlp::pipeline
