// mlp_infer: end-to-end multilateral-peering inference from MRT archives.
//
// Three subcommands:
//
//   mlp_infer gen --out DIR [--seed S] [--ases N] [--updates]
//     Build the synthetic ecosystem and write its collector RIB snapshots
//     (TABLE_DUMP_V2, one .mrt file per collector) plus the matching
//     IXP-scheme configuration (ixps.conf) into DIR -- the same artefact
//     set a real measurement study starts from. With --updates, each
//     collector table is additionally replayed as a BGP4MP update stream
//     (<collector>-updates.mrt), the live-feed artefact.
//
//   mlp_infer infer --config FILE [--threads N] [--batch N]
//                   [--min-duration S] [--assume-open] [--no-rels]
//                   [--updates] ARCHIVE.mrt...
//     Run the parallel inference pipeline over the archives: one
//     streaming extraction task per archive, one inference shard per
//     configured IXP. AS relationships (setter case 3) are inferred from
//     the input paths themselves unless --no-rels is given. With
//     --updates the archives are BGP4MP update streams ingested through
//     the transient-filtering announce-window (pair with --min-duration).
//
//   mlp_infer follow --config FILE [--threads N] [--batch N]
//                    [--min-duration S] [--assume-open] [--tolerant]
//                    [--snapshot-every N] [--bmp] [--retry N]
//                    [--feed SPEC]... [--listen PORT] [FILE]
//     Live mode: frame one or more update feeds incrementally and drive
//     the inference engines message-by-message, printing a cheap
//     link-count snapshot every N records and the full summary at end of
//     stream. --feed is repeatable; each SPEC is one concurrent feed:
//       -                   stdin
//       PATH                a file replayed as a byte stream
//       listen:PORT         accept one TCP connection on 127.0.0.1:PORT
//       connect:HOST:PORT   dial out to a collector (IPv4)
//     Multiple feeds merge deterministically: observations interleave by
//     timestamp across feeds, gated by the minimum per-feed watermark,
//     reproducing archive-mode `infer --updates` over the per-feed
//     archives (a silent feed holds the frontier until --stall-timeout
//     quarantines it). --bmp treats every feed as a BMP (RFC 7854)
//     session and unwraps Route Monitoring messages. --retry N survives
//     collector restarts on socket feeds: redial with bounded exponential
//     backoff, up to N consecutive failures, resuming at a record
//     boundary.
//     --tolerant skips malformed records (counted) instead of aborting.
//     --checkpoint PATH makes the session durable: a crash-safe snapshot
//     of the full session (engines, announce-windows, watermarks, queue
//     contents, per-feed byte offsets) is written atomically every
//     --checkpoint-every N records (0: only at shutdown) and once more at
//     end of stream or on SIGINT/SIGTERM. --resume loads the newest valid
//     generation of PATH, seeks every re-dialed feed to its acknowledged
//     offset and continues exactly-once: the final link sets match an
//     uninterrupted run byte for byte. SIGINT/SIGTERM end the run
//     gracefully (final checkpoint + the normal summary).
//     Every feed is health-supervised (Healthy/Degraded/Quarantined/
//     Dead): a feed past its malformed-rate, dirty-disconnect, reconnect
//     or stall budget stops gating the cross-feed merge and the healthy
//     feeds keep going; transitions print to stderr. --stall-timeout,
//     --malformed-window, --dirty-budget and --probation tune the
//     budgets; --no-supervision turns the judgements off. --chaos SEED
//     wraps every feed in a seeded fault injector (corrupt bytes,
//     garbage, drops, stalls -- same seed, same failure sequence) to
//     soak-test that machinery.
//     `infer --follow` is an alias.
//
//   mlp_infer query --config FILE --query-port P [follow options...]
//     Follow mode plus a line-protocol query server (see
//     pipeline/query_server.hpp): while the feeds ingest, clients on
//     127.0.0.1:P ask `stats <ixp>`, `link <ixp> <a> <b>`,
//     `links <ixp> <asn>`, ... and every answer comes from the latest
//     published epoch -- one atomic load, never an ingest lock, so
//     queries cost the feeds nothing. After end of stream the process
//     lingers (final epochs stay queryable) until SIGINT/SIGTERM, then
//     prints the usual summary. `--query-port 0` picks an ephemeral
//     port (printed to stderr). Plain `follow --query-port P` serves
//     queries during ingest but exits at end of stream as usual.
//
//   mlp_infer serve --port P [--bmp] [--chunk N] [--accepts K] FILE
//     Replay an update archive over TCP: listen on 127.0.0.1:P, accept K
//     connections in turn and stream the file to each (wrapped as a BMP
//     session with --bmp). The test/demo peer for `follow` socket feeds.
//     --chaos SEED[:PLAN] serves each connection through a seeded fault
//     injector; a drop fault really severs the TCP connection and
//     re-accepts, so a `follow --retry` client rehearses real collector
//     flaps end to end.
//
// Typical round trips:
//   mlp_infer gen --out /tmp/mlp
//   mlp_infer infer --config /tmp/mlp/ixps.conf --threads 4 /tmp/mlp/*.mrt
//
//   mlp_infer gen --out /tmp/mlp --updates
//   mlp_infer infer --config /tmp/mlp/ixps.conf --updates
//       --min-duration 600 /tmp/mlp/*-updates.mrt   (one line)
//
//   cat /tmp/mlp/*-updates.mrt | mlp_infer follow
//       --config /tmp/mlp/ixps.conf --min-duration 600   (one line)
//
//   mlp_infer serve --port 11019 /tmp/mlp/rrc00-updates.mrt &
//   mlp_infer serve --port 11020 /tmp/mlp/rrc01-updates.mrt &
//   mlp_infer follow --config /tmp/mlp/ixps.conf --retry 20
//       --feed connect:127.0.0.1:11019
//       --feed connect:127.0.0.1:11020   (one line)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <pthread.h>
#include <signal.h>
#endif

#include "mrt/cursor.hpp"
#include "mrt/table_dump.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/ixp_config.hpp"
#include "pipeline/live_session.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/query_server.hpp"
#include "scenario/scenario.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/fault.hpp"
#include "stream/reconnect.hpp"
#include "stream/source.hpp"
#include "topology/relationship_inference.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace {

using namespace mlp;

/// Graceful-shutdown flag, set by SIGINT/SIGTERM. The handlers are
/// installed WITHOUT SA_RESTART so blocked reads and accepts wake with
/// EINTR; the stream layer (stream::set_interrupt_flag) then turns the
/// EINTR into a normal end of stream, every reader unwinds, and follow
/// writes its final checkpoint and summary instead of dying mid-write.
std::atomic<bool> g_stop{false};

#ifndef _WIN32
void handle_stop_signal(int) { g_stop.store(true); }

void install_stop_handlers() {
  stream::set_interrupt_flag(&g_stop);
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked syscalls must EINTR
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void ignore_sigpipe() {
  struct sigaction action{};
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGPIPE, &action, nullptr);
}
#else
void install_stop_handlers() {}
void ignore_sigpipe() {}
#endif

/// Resume support: discard the first `skip` bytes of a re-dialed
/// transport (the checkpoint already acknowledges them), then pass
/// through. Wraps the reconnect layer, so serve-style peers that replay
/// from byte zero on every accept line up with the checkpoint offset.
class SkipSource final : public stream::StreamSource {
 public:
  SkipSource(std::unique_ptr<stream::StreamSource> inner, std::uint64_t skip)
      : inner_(std::move(inner)), remaining_(skip) {}

  std::size_t read(std::span<std::uint8_t> out) override {
    std::vector<std::uint8_t> scratch;
    while (remaining_ > 0) {
      scratch.resize(static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining_, 65536)));
      const std::size_t n = inner_->read(scratch);
      if (n == 0) return 0;  // stream ended inside the skipped prefix
      remaining_ -= n;
    }
    return inner_->read(out);
  }

 private:
  std::unique_ptr<stream::StreamSource> inner_;
  std::uint64_t remaining_;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: mlp_infer gen --out DIR [--seed S] [--ases N] [--updates]\n"
      "       mlp_infer infer --config FILE [--threads N] [--batch N]\n"
      "                       [--min-duration S] [--assume-open] [--no-rels]\n"
      "                       [--updates] ARCHIVE.mrt...\n"
      "       mlp_infer follow --config FILE [--threads N] [--batch N]\n"
      "                        [--min-duration S] [--assume-open]\n"
      "                        [--tolerant] [--window N] [--bmp]\n"
      "                        [--retry N] [--snapshot-every N]\n"
      "                        [--chaos SEED[:PLAN]] [--no-supervision]\n"
      "                        [--stall-timeout MS] [--malformed-window N]\n"
      "                        [--dirty-budget N] [--probation N]\n"
      "                        [--checkpoint PATH [--checkpoint-every N]\n"
      "                         [--resume]]\n"
      "                        [--feed SPEC]... [--listen PORT]\n"
      "                        [--query-port P]\n"
      "                        [FILE]   (default: one stdin feed)\n"
      "         SPEC: '-' | PATH | listen:PORT | connect:HOST:PORT\n"
      "         PLAN: corrupt@OFF[xMASK] | garbage@OFF[xN] | drop@OFF[xN]\n"
      "               | stall@OFF[xMS] | trunc@OFF | shatter (','-joined)\n"
      "       mlp_infer query --config FILE --query-port P\n"
      "                       [follow options...]   (lingers after EOF)\n"
      "       mlp_infer serve --port P [--bmp] [--chunk N] [--accepts K]\n"
      "                       [--chaos SEED[:PLAN]] UPDATES.mrt\n");
  return 2;
}

/// Shared tail of `infer` and `follow`: the merged passive stats, the
/// per-IXP table and the global link count, in one format so the two
/// modes can be diffed against each other.
void print_summary(const core::PassiveStats& stats,
                   const std::vector<pipeline::IxpResult>& per_ixp,
                   std::size_t all_links) {
  std::printf("\npaths seen %zu | dirty %zu | no RS values %zu | ambiguous "
              "%zu | no setter %zu | observations %zu\n\n",
              stats.paths_seen, stats.paths_dirty, stats.paths_no_rs_values,
              stats.paths_ambiguous_ixp, stats.paths_no_setter,
              stats.observations);
  std::printf("%-10s %8s %8s %8s\n", "IXP", "members", "covered", "links");
  for (const auto& ixp : per_ixp)
    std::printf("%-10s %8zu %8zu %8zu\n", ixp.name.c_str(),
                ixp.stats.rs_members, ixp.stats.observed_members,
                ixp.links.size());
  std::printf("\nunique multilateral links: %zu\n", all_links);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InvalidArgument("cannot open " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const void* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw InvalidArgument("cannot write " + path);
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

int run_gen(int argc, char** argv) {
  std::string out_dir;
  bool write_updates = false;
  scenario::ScenarioParams params;
  params.topology.n_ases = 1200;
  params.membership_scale = 0.2;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      params.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ases" && i + 1 < argc) {
      params.topology.n_ases = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--updates") {
      write_updates = true;
    } else {
      return usage();
    }
  }
  if (out_dir.empty()) return usage();
  std::filesystem::create_directories(out_dir);

  std::printf("building synthetic ecosystem (seed %llu, %zu ASes)...\n",
              static_cast<unsigned long long>(params.seed),
              params.topology.n_ases);
  scenario::Scenario s(params);

  const auto config_text = pipeline::serialize_ixp_configs(s.ixp_contexts());
  write_file(out_dir + "/ixps.conf", config_text.data(), config_text.size());
  std::printf("wrote %s/ixps.conf (%zu IXPs)\n", out_dir.c_str(),
              s.ixps().size());

  for (auto& collector : s.collectors()) {
    const auto archive = collector.table_dump(1367366400);
    const std::string path = out_dir + "/" + collector.name() + ".mrt";
    write_file(path, archive.data(), archive.size());
    std::printf("wrote %s (%zu prefixes, %zu bytes)\n", path.c_str(),
                collector.rib().prefix_count(), archive.size());
    if (write_updates) {
      const auto updates = collector.update_dump(1367366400);
      const std::string update_path =
          out_dir + "/" + collector.name() + "-updates.mrt";
      write_file(update_path, updates.data(), updates.size());
      std::printf("wrote %s (%zu bytes, BGP4MP)\n", update_path.c_str(),
                  updates.size());
    }
  }
  return 0;
}

int run_follow(int argc, char** argv, bool query_mode = false);

int run_infer(int argc, char** argv) {
  // `infer --follow` is an alias for the follow subcommand (the flag
  // itself is tolerated and ignored by run_follow's parser).
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], "--follow") == 0) return run_follow(argc, argv);
  std::string config_path;
  std::vector<std::string> archives;
  pipeline::PipelineConfig config;
  // The CLI reports stats and links only; the engines would be dead
  // weight in the result.
  config.keep_engines = false;
  bool infer_rels = true;
  bool updates_mode = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      config.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--batch" && i + 1 < argc) {
      config.batch_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--min-duration" && i + 1 < argc) {
      config.passive.min_duration_s =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--assume-open") {
      config.assume_open_for_unobserved = true;
    } else if (arg == "--no-rels") {
      infer_rels = false;
    } else if (arg == "--updates") {
      updates_mode = true;
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();
    } else {
      archives.push_back(arg);
    }
  }
  if (config_path.empty() || archives.empty()) return usage();

  const auto config_bytes = read_file(config_path);
  const auto contexts = pipeline::parse_ixp_configs(
      std::string(config_bytes.begin(), config_bytes.end()));
  std::printf("%zu IXPs configured from %s\n", contexts.size(),
              config_path.c_str());

  pipeline::InferencePipeline pipe(config);
  for (const auto& context : contexts) pipe.add_ixp(context);

  std::vector<std::vector<std::uint8_t>> raw;
  raw.reserve(archives.size());
  for (const auto& path : archives) raw.push_back(read_file(path));

  // Relationship baseline for setter case 3, inferred from the very same
  // public paths (the paper uses CAIDA's inferred relationships). Decoding
  // for the baseline already yields every path, so the decoded routes are
  // fed to the pipeline directly instead of paying a second MRT decode;
  // with --no-rels the raw archives go in and decode inside the parallel
  // extraction tasks.
  //
  // `rels` must outlive pipe.run(): rel_fn() captures a pointer to it.
  topology::InferredRelationships rels;
  if (updates_mode) {
    // BGP4MP streams feed the pipeline as raw bytes so the parallel
    // extraction tasks apply the transient-filtering announce-window.
    // For the relationship baseline, a streaming cursor walk collects
    // just the AS paths -- no whole-archive materialization.
    std::vector<bgp::AsPath> paths;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      std::printf("update archive %s: %zu bytes\n", archives[i].c_str(),
                  raw[i].size());
      if (infer_rels) {
        mrt::MrtCursor cursor(raw[i], mrt::MrtCursor::Skip::TableDumpV2);
        for (;;) {
          const auto event = cursor.next();
          if (event == mrt::MrtCursor::Event::End) break;
          if (event != mrt::MrtCursor::Event::Update) continue;
          if (!cursor.update().update->nlri.empty())
            paths.push_back(cursor.update().update->attrs.as_path);
        }
      }
      pipe.add_update_stream(std::move(raw[i]));
    }
    if (infer_rels) {
      rels = topology::infer_relationships(paths);
      std::printf("relationship baseline: %zu links\n", rels.link_count());
      pipe.set_relationships(rels.rel_fn());
    }
  } else if (infer_rels) {
    std::vector<bgp::AsPath> paths;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      std::printf("archive %s: %zu bytes\n", archives[i].c_str(),
                  raw[i].size());
      const auto rib = mrt::parse_rib(raw[i]);
      // The raw bytes are not consumed again in this branch: release them
      // so only the decoded form stays resident.
      std::vector<std::uint8_t>().swap(raw[i]);
      std::vector<pipeline::RawPath> decoded;
      for (const auto& prefix : rib.prefixes()) {
        for (const auto& entry : rib.paths(prefix)) {
          paths.push_back(entry.route.attrs.as_path);
          decoded.push_back(pipeline::RawPath{
              entry.route.attrs.as_path, prefix,
              entry.route.attrs.communities, core::Source::Passive});
        }
      }
      pipe.add_paths(std::move(decoded));
    }
    rels = topology::infer_relationships(paths);
    std::printf("relationship baseline: %zu links\n", rels.link_count());
    pipe.set_relationships(rels.rel_fn());
  } else {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      std::printf("archive %s: %zu bytes\n", archives[i].c_str(),
                  raw[i].size());
      pipe.add_table_dump(std::move(raw[i]));
    }
  }

  const auto result = pipe.run();
  print_summary(result.passive, result.per_ixp, result.all_links.size());
  return 0;
}

/// One `--feed SPEC` (or legacy FILE / --listen) operand.
struct FeedSpec {
  enum class Kind { Stdin, File, Listen, Connect };
  Kind kind = Kind::Stdin;
  std::string raw;   // verbatim spec, used as the feed label
  std::string path;  // File
  std::string host;  // Connect
  std::uint16_t port = 0;  // Listen / Connect
};

bool parse_feed_spec(const std::string& raw, FeedSpec& out) {
  out.raw = raw;
  if (raw.empty() || raw == "-") {
    out.kind = FeedSpec::Kind::Stdin;
    return true;
  }
  if (raw.rfind("listen:", 0) == 0) {
    const auto port = parse_u32(raw.substr(7));
    if (!port || *port == 0 || *port > 65535) return false;
    out.kind = FeedSpec::Kind::Listen;
    out.port = static_cast<std::uint16_t>(*port);
    return true;
  }
  const bool connect = raw.rfind("connect:", 0) == 0;
  if (connect || raw.rfind("tcp:", 0) == 0) {
    const std::string rest = raw.substr(connect ? 8 : 4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos) return false;
    const auto port = parse_u32(rest.substr(colon + 1));
    if (!port || *port == 0 || *port > 65535) return false;
    out.kind = FeedSpec::Kind::Connect;
    out.host = rest.substr(0, colon);
    out.port = static_cast<std::uint16_t>(*port);
    return !out.host.empty();
  }
  out.kind = FeedSpec::Kind::File;
  out.path = raw;
  return true;
}

/// Build the transport for one feed. With `retry` > 0, socket feeds are
/// wrapped in a ReconnectingSource (bounded exponential backoff) whose
/// on_reconnect resets the feed's framing state through `handle`.
std::unique_ptr<stream::StreamSource> open_feed_source(
    const FeedSpec& spec, std::size_t retry, pipeline::FeedHandle handle) {
  switch (spec.kind) {
    case FeedSpec::Kind::Stdin:
      return std::make_unique<stream::FdSource>(0, /*owned=*/false);
    case FeedSpec::Kind::File:
      return std::make_unique<stream::MemorySource>(read_file(spec.path));
    case FeedSpec::Kind::Listen:
    case FeedSpec::Kind::Connect: {
      auto dial = [spec]() -> std::unique_ptr<stream::StreamSource> {
        if (spec.kind == FeedSpec::Kind::Listen) {
          std::fprintf(stderr, "%s: listening on 127.0.0.1:%u...\n",
                       spec.raw.c_str(), spec.port);
          return std::make_unique<stream::FdSource>(
              stream::tcp_listen_accept(spec.port));
        }
        return std::make_unique<stream::FdSource>(
            stream::tcp_connect(spec.host, spec.port));
      };
      if (retry == 0) return dial();
      stream::ReconnectPolicy policy;
      policy.max_attempts = retry;
      auto source = std::make_unique<stream::ReconnectingSource>(
          std::move(dial), policy);
      source->set_on_reconnect([handle]() mutable {
        pipeline::FeedHandle h = handle;
        h.note_disconnect();
      });
      return source;
    }
  }
  return nullptr;  // unreachable
}

/// An exhausted dial budget ends the stream quietly at the source level;
/// surface it so "collector gone" is distinguishable from "feed done".
/// Returns true when the budget was in fact exhausted (the caller then
/// fails the feed so it stops gating the merge frontier).
bool warn_if_exhausted(const std::string& name,
                       const stream::ReconnectingSource* reconnecting) {
  if (reconnecting == nullptr || !reconnecting->exhausted()) return false;
  std::fprintf(stderr, "%s: dial budget exhausted after %llu attempts%s%s\n",
               name.c_str(),
               static_cast<unsigned long long>(reconnecting->dial_attempts()),
               reconnecting->last_error().empty() ? "" : ": ",
               reconnecting->last_error().c_str());
  return true;
}

/// --chaos in follow mode: size hint for materializing a bare-seed
/// random plan (fault offsets land inside the stream when its length is
/// knowable, and inside the first MiB of an open-ended socket feed).
std::uint64_t chaos_stream_hint(const FeedSpec& spec) {
  if (spec.kind == FeedSpec::Kind::File) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(spec.path, ec);
    if (!ec) return size;
  }
  return 1u << 20;
}

/// Wrap one follow-mode feed in its fault injector. A bare-seed plan is
/// materialized per feed (seed + index: each feed fails differently but
/// reproducibly); an explicit plan applies to every feed verbatim. A
/// drop fault notifies the feed's framing layer exactly like a real
/// transport reconnect.
std::unique_ptr<stream::StreamSource> wrap_chaos(
    std::unique_ptr<stream::StreamSource> source,
    const stream::FaultPlan& plan, std::size_t feed_index,
    std::uint64_t stream_hint, pipeline::FeedHandle handle) {
  stream::FaultPlan feed_plan = plan;
  if (plan.empty())
    feed_plan = stream::FaultPlan::random(plan.seed + feed_index, stream_hint);
  std::fprintf(stderr, "feed %zu: chaos plan %s\n", feed_index,
               feed_plan.to_string().c_str());
  auto injected = std::make_unique<stream::FaultInjectingSource>(
      std::move(source), std::move(feed_plan));
  injected->set_on_fault([handle](const stream::Fault& fault) mutable {
    if (fault.kind != stream::Fault::Kind::Disconnect) return;
    pipeline::FeedHandle h = handle;
    h.note_disconnect();
  });
  return injected;
}

void print_live_snapshot(const pipeline::LiveSnapshot& snap,
                         const std::vector<std::string>& names) {
  std::size_t links = 0;
  for (const std::size_t count : snap.links_per_ixp) links += count;
  std::printf("snapshot: %llu bytes, %llu records (%zu malformed, "
              "%zu skipped), %zu observations (%zu queued), watermark %lu, "
              "links/IXP",
              static_cast<unsigned long long>(snap.bytes_fed),
              static_cast<unsigned long long>(snap.records),
              snap.passive.records_malformed, snap.records_skipped,
              snap.passive.observations, snap.queue_depth,
              static_cast<unsigned long>(snap.min_watermark));
  for (std::size_t i = 0; i < snap.links_per_ixp.size(); ++i)
    std::printf(" %s=%zu", names[i].c_str(), snap.links_per_ixp[i]);
  std::printf(" (sum %zu)\n", links);
  std::fflush(stdout);
}

int run_follow(int argc, char** argv, bool query_mode) {
  std::string config_path;
  std::vector<FeedSpec> specs;
  pipeline::LiveConfig config;
  std::uint64_t snapshot_every = 0;
  std::size_t retry = 0;
  bool bmp = false;
  bool saw_positional = false;
  std::optional<std::uint16_t> query_port;
  std::optional<stream::FaultPlan> chaos;
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;  // 0: only at end of stream/signal
  bool resume = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      config.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--batch" && i + 1 < argc) {
      config.batch_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--min-duration" && i + 1 < argc) {
      config.passive.min_duration_s =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--assume-open") {
      config.assume_open_for_unobserved = true;
    } else if (arg == "--tolerant") {
      config.passive.tolerate_malformed = true;
    } else if (arg == "--window" && i + 1 < argc) {
      // Cap the announce-window: stable announcements then surface
      // continuously through FIFO eviction instead of only at end of
      // stream, so mid-stream snapshots track the live link set.
      config.passive.max_pending_announcements =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--snapshot-every" && i + 1 < argc) {
      snapshot_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--feed" && i + 1 < argc) {
      FeedSpec spec;
      if (!parse_feed_spec(argv[++i], spec)) return usage();
      specs.push_back(std::move(spec));
    } else if (arg == "--listen" && i + 1 < argc) {
      // Legacy sugar for --feed listen:PORT.
      FeedSpec spec;
      if (!parse_feed_spec("listen:" + std::string(argv[++i]), spec))
        return usage();
      specs.push_back(std::move(spec));
    } else if (arg == "--bmp") {
      bmp = true;
    } else if (arg == "--retry" && i + 1 < argc) {
      retry = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos = stream::FaultPlan::parse(argv[++i]);
    } else if (arg == "--no-supervision") {
      config.supervision.enabled = false;
    } else if (arg == "--stall-timeout" && i + 1 < argc) {
      config.supervision.stall_timeout_ms =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--malformed-window" && i + 1 < argc) {
      config.supervision.malformed_window =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dirty-budget" && i + 1 < argc) {
      config.supervision.dirty_disconnect_budget =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--probation" && i + 1 < argc) {
      config.supervision.probation_records =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--query-port" && i + 1 < argc) {
      const auto parsed = parse_u32(argv[++i]);
      if (!parsed || *parsed > 65535) return usage();  // 0 = ephemeral
      query_port = static_cast<std::uint16_t>(*parsed);
    } else if (arg == "--follow") {
      // tolerated so `infer --follow ...` forwards verbatim
    } else if (!arg.empty() && arg.front() == '-' && arg != "-") {
      return usage();
    } else if (!saw_positional) {
      // Legacy FILE operand (or "-"): one feed.
      saw_positional = true;
      FeedSpec spec;
      if (!parse_feed_spec(arg, spec)) return usage();
      specs.push_back(std::move(spec));
    } else {
      return usage();
    }
  }
  if (config_path.empty()) return usage();
  if (resume && checkpoint_path.empty()) return usage();
  if (query_mode && !query_port) return usage();
  if (specs.empty()) specs.push_back(FeedSpec{});  // stdin
  std::size_t stdin_feeds = 0;
  for (const auto& spec : specs)
    if (spec.kind == FeedSpec::Kind::Stdin) ++stdin_feeds;
  if (stdin_feeds > 1) return usage();  // one stdin, obviously

  const auto config_bytes = read_file(config_path);
  auto contexts = pipeline::parse_ixp_configs(
      std::string(config_bytes.begin(), config_bytes.end()));
  std::fprintf(stderr, "%zu IXPs configured from %s\n", contexts.size(),
               config_path.c_str());

  // In live mode no relationship baseline can be prescanned from the
  // input (setter case 3 then fails as "no setter", matching
  // `infer --updates --no-rels`).
  std::vector<std::string> names;
  names.reserve(contexts.size());
  for (const auto& context : contexts) names.push_back(context.name);
  // Health transitions go to stderr as they fire (the summary repeats the
  // final state per feed). Runs under the transitioning lane's mutex:
  // print and return, nothing else.
  config.on_health_change = [](const pipeline::HealthChange& change) {
    std::fprintf(stderr, "feed %s: %s -> %s%s%s%s\n", change.name.c_str(),
                 pipeline::to_string(change.from),
                 pipeline::to_string(change.to),
                 change.reason.empty() ? "" : " (", change.reason.c_str(),
                 change.reason.empty() ? "" : ")");
  };
  pipeline::LiveSession session(config, std::move(contexts));

  // The query server answers from published epochs only (one atomic load
  // per query), so starting it before any feed exists is safe: clients
  // just see epoch 1, the empty engines.
  std::optional<pipeline::QueryServer> query_server;
  if (query_port) {
    query_server.emplace(session,
                         pipeline::QueryServer::Options{*query_port});
    std::fprintf(stderr, "query server listening on 127.0.0.1:%u\n",
                 query_server->port());
  }

  std::vector<pipeline::FeedHandle> handles;
  handles.reserve(specs.size());
  for (const auto& spec : specs) {
    pipeline::FeedOptions options;
    options.name = spec.raw.empty() ? "stdin" : spec.raw;
    options.transport =
        bmp ? pipeline::Transport::Bmp : pipeline::Transport::RawMrt;
    handles.push_back(session.add_feed(options));
  }

  install_stop_handlers();

  // --resume: load the newest valid checkpoint generation into the
  // freshly wired session, then seek every feed's transport to its
  // acknowledged offset (the peer replays from byte zero; SkipSource
  // discards the prefix the checkpoint already covers).
  std::vector<std::uint64_t> resume_offsets(specs.size(), 0);
  if (resume) {
    const auto loaded =
        pipeline::restore_checkpoint(session, checkpoint_path);
    resume_offsets = session.acknowledged_offsets();
    std::uint64_t acked = 0;
    for (const std::uint64_t off : resume_offsets) acked += off;
    std::fprintf(stderr,
                 "resumed from %s%s: %llu records, %llu acknowledged "
                 "bytes across %zu feed(s)\n",
                 checkpoint_path.c_str(),
                 loaded.from_previous_generation ? " (previous generation)"
                                                 : "",
                 static_cast<unsigned long long>(session.records()),
                 static_cast<unsigned long long>(acked), specs.size());
  }
  std::uint64_t last_checkpoint_records = session.records();
  const auto checkpoint_due = [&]() {
    return !checkpoint_path.empty() && checkpoint_every > 0 &&
           session.records() - last_checkpoint_records >= checkpoint_every;
  };
  const auto take_checkpoint = [&]() {
    pipeline::save_checkpoint(session, checkpoint_path);
    last_checkpoint_records = session.records();
  };

  bool feed_failed = false;
  if (specs.size() == 1) {
    // Single feed: drain on this thread so --snapshot-every fires at
    // deterministic chunk boundaries (the scriptable shape).
    auto source = open_feed_source(specs[0], retry, handles[0]);
    // Grab the reconnect layer before chaos wraps it: exhaustion must
    // stay observable through the fault injector.
    const auto* reconnecting =
        dynamic_cast<const stream::ReconnectingSource*>(source.get());
    if (resume_offsets[0] > 0)
      source = std::make_unique<SkipSource>(std::move(source),
                                            resume_offsets[0]);
    if (chaos)
      source = wrap_chaos(std::move(source), *chaos, 0,
                          chaos_stream_hint(specs[0]), handles[0]);
    std::vector<std::uint8_t> buffer(config.read_chunk);
    std::uint64_t last_snapshot_records = 0;
    for (;;) {
      if (g_stop.load()) break;
      const std::size_t n = source->read(buffer);
      if (n == 0) break;
      handles[0].feed(std::span<const std::uint8_t>(buffer.data(), n));
      if (checkpoint_due()) take_checkpoint();
      if (snapshot_every == 0) continue;
      // The framed-record count is free to read; only take the (batch
      // flush + pool settle) snapshot once the cadence is due.
      if (session.records() - last_snapshot_records < snapshot_every)
        continue;
      const auto snap = session.snapshot();
      last_snapshot_records = snap.records;
      print_live_snapshot(snap, names);
    }
    // An interrupted run exhausts its dial budget by design; only an
    // organic exhaustion is a feed failure.
    if (!g_stop.load() && warn_if_exhausted(specs[0].raw, reconnecting))
      handles[0].fail("reconnect budget exhausted");
  } else {
    // Multi-feed: one reader thread per feed (lanes are independent; the
    // cross-feed merge is deterministic regardless of arrival order).
    // Snapshots come from this thread on the record-count cadence.
    std::vector<std::thread> readers;
    std::atomic<std::size_t> live{specs.size()};
    std::atomic<bool> any_failed{false};
    readers.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      readers.emplace_back([&, i] {
        try {
          auto source = open_feed_source(specs[i], retry, handles[i]);
          const auto* reconnecting =
              dynamic_cast<const stream::ReconnectingSource*>(source.get());
          if (resume_offsets[i] > 0)
            source = std::make_unique<SkipSource>(std::move(source),
                                                  resume_offsets[i]);
          if (chaos)
            source = wrap_chaos(std::move(source), *chaos, i,
                                chaos_stream_hint(specs[i]), handles[i]);
          handles[i].drain(*source);
          if (!g_stop.load() &&
              warn_if_exhausted(specs[i].raw, reconnecting))
            handles[i].fail("reconnect budget exhausted");
        } catch (const std::exception& e) {
          // A shutdown signal unwinds blocked dials/accepts with an
          // "interrupted" error; that is the graceful path, not a
          // failure.
          if (!g_stop.load()) {
            std::fprintf(stderr, "%s: %s\n", specs[i].raw.c_str(),
                         e.what());
            any_failed.store(true);
          }
        }
        handles[i].close();
        live.fetch_sub(1);
      });
    }
    std::uint64_t last_snapshot_records = 0;
    while (live.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
#ifndef _WIN32
      // A stop signal lands on ONE thread; readers parked in read() or
      // accept() need their own EINTR to notice the flag. Re-poke them
      // each tick until they unwind (idempotent: the handler only sets
      // the already-set flag).
      if (g_stop.load())
        for (auto& reader : readers)
          ::pthread_kill(reader.native_handle(), SIGTERM);
#endif
      if (checkpoint_due()) take_checkpoint();
      if (snapshot_every == 0) continue;
      if (session.records() - last_snapshot_records < snapshot_every)
        continue;
      const auto snap = session.snapshot();
      last_snapshot_records = snap.records;
      print_live_snapshot(snap, names);
    }
    for (auto& reader : readers) reader.join();
    feed_failed = any_failed.load();
  }

  // `query` mode: keep the final epochs queryable after end of stream.
  // snapshot() settles the world and publishes, so from here every
  // client reads exactly the final state until a signal ends the linger.
  if (query_mode && !g_stop.load()) {
    // Close every feed first (idempotent; finish() would do it anyway):
    // a closed source stops constraining the merge frontier, so the
    // settle below drains everything and the lingering epochs answer
    // with exactly the final link sets.
    for (auto& handle : handles) handle.close();
    const auto snap = session.snapshot();
    print_live_snapshot(snap, names);
    std::fprintf(stderr,
                 "end of stream: serving queries on 127.0.0.1:%u until "
                 "SIGINT/SIGTERM (%llu served so far)\n",
                 query_server->port(),
                 static_cast<unsigned long long>(
                     query_server->queries_served()));
    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (query_server) {
    query_server->stop();
    std::fprintf(stderr, "query server: %llu queries served\n",
                 static_cast<unsigned long long>(
                     query_server->queries_served()));
  }

  // The final checkpoint covers everything ingested, interrupted or not;
  // it must land before finish() tears the session down.
  if (!checkpoint_path.empty()) {
    pipeline::save_checkpoint(session, checkpoint_path);
    std::fprintf(stderr, "%scheckpoint written to %s\n",
                 g_stop.load() ? "interrupted: final " : "",
                 checkpoint_path.c_str());
  }

  const auto result = session.finish();
  std::printf("end of stream: %llu records (%zu malformed, %zu skipped)\n",
              static_cast<unsigned long long>(result.records),
              result.passive.records_malformed, result.records_skipped);
  for (const auto& feed : result.per_feed)
    std::printf("feed %s: %llu bytes, %llu records, %zu malformed, "
                "%llu clean / %llu dirty disconnects, %llu partials "
                "dropped, watermark %lu, %zu queued, %llu peer ups / "
                "%llu downs, health %s, %llu transitions, "
                "%llu quarantines, %llu observations discarded\n",
                feed.name.c_str(),
                static_cast<unsigned long long>(feed.bytes_fed),
                static_cast<unsigned long long>(feed.records),
                feed.passive.records_malformed,
                static_cast<unsigned long long>(feed.clean_disconnects),
                static_cast<unsigned long long>(feed.dirty_disconnects),
                static_cast<unsigned long long>(
                    feed.partial_records_dropped),
                static_cast<unsigned long>(feed.watermark),
                feed.queue_depth,
                static_cast<unsigned long long>(feed.bmp_peer_ups),
                static_cast<unsigned long long>(feed.bmp_peer_downs),
                pipeline::to_string(feed.health),
                static_cast<unsigned long long>(feed.health_transitions),
                static_cast<unsigned long long>(feed.times_quarantined),
                static_cast<unsigned long long>(
                    feed.observations_discarded));
  print_summary(result.passive, result.per_ixp, result.all_links.size());
  if (feed_failed) {
    std::fprintf(stderr,
                 "mlp_infer: one or more feeds failed; the summary above "
                 "covers only what arrived\n");
    return 1;
  }
  return 0;
}

int run_serve(int argc, char** argv) {
  std::string path;
  long port = -1;
  std::size_t chunk = 65536;
  std::size_t accepts = 1;
  bool bmp = false;
  std::optional<stream::FaultPlan> chaos;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      const auto parsed = parse_u32(argv[++i]);
      if (!parsed || *parsed == 0 || *parsed > 65535) return usage();
      port = static_cast<long>(*parsed);
    } else if (arg == "--chunk" && i + 1 < argc) {
      chunk = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--accepts" && i + 1 < argc) {
      accepts = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--bmp") {
      bmp = true;
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos = stream::FaultPlan::parse(argv[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (port < 0 || path.empty() || chunk == 0 || accepts == 0)
    return usage();

  std::vector<std::uint8_t> data = read_file(path);
  if (bmp) data = stream::bmp_wrap_updates(data);
  if (chaos && chaos->empty())
    chaos = stream::FaultPlan::random(chaos->seed, data.size());
  if (chaos)
    std::fprintf(stderr, "chaos plan: %s\n", chaos->to_string().c_str());
  // A client may vanish mid-stream (crashed, SIGKILLed in a kill/resume
  // rehearsal): with SIGPIPE ignored the write fails with EPIPE instead
  // of killing the server, and the accept loop moves on to the next
  // client. SIGINT/SIGTERM end the accept loop gracefully.
  install_stop_handlers();
  ignore_sigpipe();
  const auto listener =
      stream::open_tcp_listener(static_cast<std::uint16_t>(port));
  std::fprintf(stderr, "serving %s (%zu bytes%s) on 127.0.0.1:%u, %zu "
               "accept(s)\n",
               path.c_str(), data.size(), bmp ? ", BMP" : "",
               listener.port, accepts);
  for (std::size_t k = 0; k < accepts && !g_stop.load(); ++k) {
    int fd = stream::tcp_accept(listener.fd);
    if (fd < 0) break;  // interrupted while waiting for a client
    try {
      if (!chaos) {
        for (std::size_t at = 0; at < data.size(); at += chunk)
          stream::write_all(fd, std::span<const std::uint8_t>(
                                    data.data() + at,
                                    std::min(chunk, data.size() - at)));
      } else {
        // Chaos replay: serve the archive through the fault injector.
        // The same plan replays per accept turn, so every client sees
        // the same failure sequence. A drop fault really severs the TCP
        // connection and re-accepts (not counted against --accepts: it
        // is one turn's mid-stream flap), resuming past the dropped
        // bytes -- a real collector restart as seen from
        // `follow --retry`.
        stream::FaultInjectingSource injected(
            std::make_unique<stream::MemorySource>(data, chunk), *chaos);
        bool drop_pending = false;
        injected.set_on_fault([&](const stream::Fault& fault) {
          if (fault.kind == stream::Fault::Kind::Disconnect)
            drop_pending = true;
        });
        std::vector<std::uint8_t> buffer(chunk);
        for (;;) {
          if (drop_pending) {
            drop_pending = false;
            stream::close_fd(fd);
            fd = stream::tcp_accept(listener.fd);
            if (fd < 0) break;
          }
          const std::size_t n = injected.read(buffer);
          if (n == 0) break;
          stream::write_all(
              fd, std::span<const std::uint8_t>(buffer.data(), n));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: client connection lost: %s\n",
                   e.what());
    }
    if (fd >= 0) stream::close_fd(fd);
  }
  stream::close_fd(listener.fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "gen") == 0)
      return run_gen(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "infer") == 0)
      return run_infer(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "follow") == 0)
      return run_follow(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "query") == 0)
      return run_follow(argc - 2, argv + 2, /*query_mode=*/true);
    if (std::strcmp(argv[1], "serve") == 0)
      return run_serve(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlp_infer: %s\n", e.what());
    return 1;
  }
  return usage();
}
