// Fuzz target for the live-stream framing/decoding front end.
//
// Drives MrtFramer, BmpFramer and UpdateDecoder in tolerant mode over
// arbitrary bytes, delivered in adversarial chunkings derived from the
// input itself. The target asserts the properties a live session depends
// on:
//
//   - no crash/UB for any byte sequence (ASan/UBSan catch the rest)
//   - ParseError is the only escape hatch, and resync() always recovers
//   - the one-partial-record memory invariant: after a full drain the
//     framer buffers at most one capped record, whatever was fed
//   - the FeedSupervisor state machine holds its invariants (Dead is
//     absorbing, bounded transition log, rate in [0,1]) under arbitrary
//     event interleavings and edge-case budget configs
//   - the checkpoint loader rejects arbitrary bytes cleanly (ParseError/
//     InvalidArgument only) and NEVER leaves a session partially
//     applied: after a failed restore the session is pristine and fully
//     usable
//
// Built with -DMLP_FUZZ=ON. Under Clang the real libFuzzer entry point
// is linked (-fsanitize=fuzzer, MLP_FUZZ_LIBFUZZER); elsewhere a
// self-driving main() replays corpus files and a fixed budget of
// deterministic pseudo-random inputs -- the mode the ASan CI job runs --
// and is AFL-compatible (one input file per invocation also works).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "mrt/record_codec.hpp"
#include "pipeline/checkpoint.hpp"
#include "routeserver/scheme.hpp"
#include "pipeline/feed_supervisor.hpp"
#include "pipeline/live_session.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "util/errors.hpp"

namespace {

using namespace mlp;

// Small caps keep the worst-case buffered record (and the fuzzer's
// memory) bounded while still exercising the cap-violation paths.
constexpr std::uint32_t kRecordCap = 1u << 16;
constexpr std::uint32_t kBmpCap = 1u << 16;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_framer: invariant violated: %s\n", what);
  std::abort();
}

std::uint64_t next_rand(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// Chunk sizes are derived from the input so the fuzzer controls the
/// boundary placement too.
std::size_t next_chunk(std::uint64_t& state, std::size_t remaining) {
  const std::size_t chunk = 1 + next_rand(state) % 67;
  return chunk < remaining ? chunk : remaining;
}

void drive_mrt(const std::uint8_t* data, std::size_t size) {
  stream::MrtFramer::Config config;
  config.max_record_bytes = kRecordCap;
  stream::MrtFramer framer(config);
  stream::UpdateDecoder decoder;
  std::uint64_t state = size ^ (size != 0 ? data[0] * 2654435761ULL : 1);
  std::size_t at = 0;
  while (at < size) {
    const std::size_t chunk = next_chunk(state, size - at);
    framer.feed(std::span<const std::uint8_t>(data + at, chunk));
    at += chunk;
    for (;;) {
      std::optional<std::span<const std::uint8_t>> record;
      try {
        record = framer.next();
      } catch (const ParseError&) {  // absurd length field
        framer.resync();
        continue;
      }
      if (!record) break;
      try {
        decoder.decode(*record);
      } catch (const ParseError&) {  // malformed record body
        framer.resync();
      }
    }
    // The memory contract behind BM_LiveFraming's flat heap profile.
    check(framer.buffered() <=
              mrt::detail::kMrtHeaderBytes + kRecordCap,
          "MrtFramer buffers more than one partial record");
  }
  check(framer.bytes_fed() == size, "MrtFramer lost track of bytes_fed");
}

void drive_bmp(const std::uint8_t* data, std::size_t size) {
  stream::BmpFramer::Config bmp_config;
  bmp_config.max_message_bytes = kBmpCap;
  stream::BmpFramer bmp(bmp_config);
  stream::MrtFramer framer;
  stream::UpdateDecoder decoder;
  std::uint64_t state = size ^ (size != 0 ? data[size - 1] * 40503ULL : 7);
  std::size_t at = 0;
  while (at < size) {
    const std::size_t chunk = next_chunk(state, size - at);
    bmp.feed(std::span<const std::uint8_t>(data + at, chunk));
    at += chunk;
    for (;;) {
      std::optional<stream::BmpEvent> event;
      try {
        event = bmp.next();
      } catch (const ParseError&) {
        bmp.resync();
        continue;
      }
      if (!event) break;
      if (event->kind != stream::BmpEvent::Kind::Update) {
        // PeerUp/PeerDown: the parsed header is all a consumer reads;
        // the record span must stay empty.
        check(event->record.empty(),
              "BmpFramer attached a record to a session event");
        continue;
      }
      // A synthesized record must always frame and survive decoding
      // (decode may reject the PDU, never crash).
      framer.feed(event->record);
      const auto record = framer.next();
      check(record.has_value(), "BmpFramer synthesized a torn record");
      check(framer.buffered() == 0,
            "BmpFramer synthesized trailing garbage");
      try {
        decoder.decode(*record);
      } catch (const ParseError&) {
      }
    }
    check(bmp.buffered() <= 6 + kBmpCap,
          "BmpFramer buffers more than one partial message");
  }
  check(bmp.bytes_fed() == size, "BmpFramer lost track of bytes_fed");
}

/// Drive the FeedSupervisor state machine with a byte-derived event
/// stream: arbitrary interleavings of record outcomes, disconnects,
/// stall polls and fatal failures must keep its invariants:
///
///   - Dead is absorbing (no transition ever leaves it)
///   - the recorded transition list is capped, the rate stays in [0,1]
///   - the action returned is consistent with the health it lands on
void drive_supervisor(const std::uint8_t* data, std::size_t size) {
  using pipeline::FeedHealth;
  using pipeline::FeedSupervisor;
  pipeline::SupervisorConfig config;
  // Budgets derived from the input so the fuzzer explores edge configs
  // (zero windows, zero budgets, disabled supervision) too.
  std::uint64_t state = size ^ (size != 0 ? data[0] * 48271ULL : 3);
  config.enabled = next_rand(state) % 4 != 0;
  config.malformed_window = next_rand(state) % 16;
  config.min_window_records = next_rand(state) % 8;
  config.quarantine_malformed_rate = 0.5;
  config.degraded_malformed_rate = 0.05;
  config.dirty_disconnect_budget = next_rand(state) % 5;
  config.probation_records = next_rand(state) % 4;
  config.stall_timeout_ms = next_rand(state) % 50;
  // 1 makes the first quarantine lethal (no readmission).
  config.max_quarantines = next_rand(state) % 3;
  FeedSupervisor supervisor(config);

  std::uint64_t now_ms = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint8_t b = data[i];
    const FeedHealth before = supervisor.health();
    FeedSupervisor::Action action;
    switch (b % 16) {
      case 0:
        action = supervisor.note_disconnect((b & 0x10) != 0);
        break;
      case 1:
        now_ms += b;
        action = supervisor.check_stall(now_ms);
        break;
      case 2:
        supervisor.note_activity(now_ms);
        action = FeedSupervisor::Action::None;
        break;
      case 3:
        action = supervisor.note_fatal("fuzzed fatal");
        check(supervisor.health() == FeedHealth::Dead,
              "note_fatal left the feed alive");
        break;
      default:
        action = supervisor.note_record(b % 3 == 0);
        break;
    }
    const FeedHealth after = supervisor.health();
    check(before != FeedHealth::Dead || after == FeedHealth::Dead,
          "Dead is not absorbing");
    if (action == FeedSupervisor::Action::Quarantine)
      check(after == FeedHealth::Quarantined, "Quarantine action mismatch");
    if (action == FeedSupervisor::Action::Die)
      check(after == FeedHealth::Dead, "Die action mismatch");
    if (action == FeedSupervisor::Action::Readmit)
      check(after == FeedHealth::Healthy, "Readmit action mismatch");
    check(!supervisor.merging() || supervisor.ingesting(),
          "merging feed that is not ingesting");
    const double rate = supervisor.malformed_rate();
    check(rate >= 0.0 && rate <= 1.0, "malformed rate out of [0,1]");
    check(supervisor.transitions().size() <=
              FeedSupervisor::kMaxRecordedTransitions,
          "recorded transitions exceed the cap");
    check(supervisor.transitions().size() <= supervisor.transition_count(),
          "recorded more transitions than fired");
  }
}

/// Feed arbitrary bytes to the checkpoint loader, at both layers: the
/// file-image validator (decode_checkpoint) and the session restorer
/// (restore_state). The contract: ParseError/InvalidArgument are the
/// only escape hatches, and a failed restore leaves the session exactly
/// as wired -- zero records, zero acknowledged bytes, fully usable.
void drive_checkpoint_loader(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  // encode/decode must round-trip any payload bit-exactly.
  const auto image = pipeline::encode_checkpoint(input);
  const auto back = pipeline::decode_checkpoint(image);
  check(back.size() == size &&
            (size == 0 || std::memcmp(back.data(), data, size) == 0),
        "checkpoint image round trip lost bytes");

  // Arbitrary bytes through the validator: reject or return a payload,
  // never crash.
  std::vector<std::uint8_t> payload;
  bool decoded = false;
  try {
    payload = pipeline::decode_checkpoint(input);
    decoded = true;
  } catch (const ParseError&) {
  }

  core::IxpContext ixp;
  ixp.name = "FUZZ-IX";
  ixp.scheme = routeserver::IxpCommunityScheme::make(
      "FUZZ-IX", 6695, routeserver::SchemeStyle::RsAsnBased);
  ixp.rs_members = {10, 20, 30, 40};
  pipeline::LiveConfig config;
  config.threads = 1;
  config.passive.tolerate_malformed = true;
  pipeline::LiveSession session(config, {ixp});
  pipeline::FeedOptions options;
  options.name = "feed0";
  auto handle = session.add_feed(options);

  bool restored = false;
  try {
    session.restore_state(decoded ? std::span<const std::uint8_t>(payload)
                                  : input);
    restored = true;
  } catch (const ParseError&) {
  } catch (const InvalidArgument&) {
  }
  if (!restored) {
    // All-or-nothing: a rejected payload must not have advanced the
    // session at all.
    check(session.records() == 0, "failed restore advanced the session");
    for (const std::uint64_t off : session.acknowledged_offsets())
      check(off == 0, "failed restore left acknowledged bytes behind");
  }
  // Restored or rejected, the session must remain fully usable.
  handle.feed(input.subspan(0, size < 64 ? size : 64));
  session.snapshot();
  session.finish();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  drive_mrt(data, size);
  drive_bmp(data, size);
  drive_supervisor(data, size);
  drive_checkpoint_loader(data, size);
  return 0;
}

#ifndef MLP_FUZZ_LIBFUZZER

// Self-driving fallback for toolchains without libFuzzer (the ASan CI
// job): replay every corpus file given on the command line (files or
// directories), then run a fixed budget of deterministic pseudo-random
// inputs, including headers spliced from the corpus so framing paths are
// reached far more often than pure noise would.
#include <filesystem>
#include <fstream>
#include <string>

namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t runs = 0;
  std::vector<std::vector<std::uint8_t>> corpus;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--runs" && i + 1 < argc) {
      runs = std::strtoull(argv[++i], nullptr, 10);
      continue;
    }
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(arg))
        if (entry.is_regular_file()) corpus.push_back(read_file(entry));
    } else {
      corpus.push_back(read_file(arg));
    }
  }
  for (const auto& input : corpus)
    LLVMFuzzerTestOneInput(input.data(), input.size());
  std::printf("fuzz_framer: %zu corpus inputs replayed\n", corpus.size());

  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::vector<std::uint8_t> input;
  for (std::size_t run = 0; run < runs; ++run) {
    input.clear();
    if (!corpus.empty() && run % 2 == 0) {
      // Mutate a corpus seed: copy, then flip a handful of bytes.
      input = corpus[next_rand(state) % corpus.size()];
      const std::size_t flips = 1 + next_rand(state) % 8;
      for (std::size_t f = 0; f < flips && !input.empty(); ++f)
        input[next_rand(state) % input.size()] =
            static_cast<std::uint8_t>(next_rand(state));
    } else {
      const std::size_t size = next_rand(state) % 2048;
      input.reserve(size);
      for (std::size_t b = 0; b < size; ++b)
        input.push_back(static_cast<std::uint8_t>(next_rand(state)));
    }
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  std::printf("fuzz_framer: %zu random/mutated runs clean\n", runs);
  return 0;
}

#endif  // MLP_FUZZ_LIBFUZZER
