// The live workloads: an open-loop phase (one generator thread feeding
// every feed on a fixed schedule, one epoch poller, one closed-loop query
// client), checkpoint save/restore, and a closed-loop saturation phase.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "client.hpp"
#include "ladder.hpp"
#include "core/engine.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/query_server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mlp;

namespace {

/// What distinguishes the two live workloads besides their inputs.
struct LiveParams {
  double rate = 0;  // offered units per second in the open-loop phase,
                    // at most kMaxLoad of the saturation rate
  std::size_t checkpoint_every = 0;  // units between checkpoint saves
  std::size_t snapshot_every = 0;    // units between snapshot() calls, 0: none
};

/// Highest share of the measured saturation rate an open-loop rate may
/// offer; a run above it is invalid.
constexpr double kMaxLoad = 0.25;

/// Latest-due record a result waits for, per observation: the record
/// whose consumption emitted it, or the record on any feed that moved
/// the merge frontier past its timestamp, whichever is due later.
struct Visibility {
  struct Sample {
    std::size_t last_send = 0;  // index into the schedule
    double visible_ms = -1;     // since the open-loop start; -1 = never
  };
  std::vector<Sample> samples;
  /// Per IXP: sample index of the observation at each engine generation
  /// (1-based), -1 for observations that only close() releases.
  std::vector<std::vector<std::int64_t>> sample_of_rank;
  std::vector<std::uint64_t> final_generation;
};

/// Replay the open-loop schedule through the session's own merge and
/// engine types: per IXP a Watermark ObservationQueue feeding an
/// MlpInferenceEngine. Each send pushes the observations its record
/// emitted in the one-thread reference lane and raises its feed's
/// watermark to that lane's clock; whatever drains then waited for this
/// send at the latest. Each generation the engine gains is one rank the
/// poller reads back from the epoch snapshots.
Visibility plan_visibility(const LiveInputs& in) {
  std::vector<FeedReference> refs;
  for (std::size_t f = 0; f < in.feeds.size(); ++f)
    refs.push_back(reference_feed(in, f));
  struct Shard {
    Shard(const core::IxpContext& context, std::size_t sources)
        : queue(sources, pipeline::MergePolicy::Watermark), engine(context) {}
    pipeline::ObservationQueue queue;
    core::MlpInferenceEngine engine;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  for (const auto& context : in.ixps)
    shards.push_back(std::make_unique<Shard>(context, refs.size()));

  Visibility plan;
  plan.sample_of_rank.assign(in.ixps.size(), {-1});
  std::vector<std::size_t> pushed(refs.size(), 0);
  auto push_through = [&](std::size_t f, std::uint32_t unit) {
    const auto& emitted = refs[f].emitted;
    for (; pushed[f] < emitted.size() && emitted[pushed[f]].unit <= unit;
         ++pushed[f])
      shards[emitted[pushed[f]].ixp]->queue.push(
          f, {emitted[pushed[f]].observation});
  };
  auto drain = [&](std::int64_t last_send) {
    std::vector<core::Observation> batch;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      auto& ranks = plan.sample_of_rank[i];
      while (shards[i]->queue.try_pop(batch)) {
        for (const auto& observation : batch) {
          shards[i]->engine.add(observation);
          while (ranks.size() <= shards[i]->engine.generation()) {
            std::int64_t sample = -1;
            if (last_send >= 0) {
              sample = static_cast<std::int64_t>(plan.samples.size());
              plan.samples.push_back(Visibility::Sample{
                  static_cast<std::size_t>(last_send), -1});
            }
            ranks.push_back(sample);
          }
        }
      }
    }
  };
  for (std::size_t j = 0; j < in.schedule.size(); ++j) {
    const Send& send = in.schedule[j];
    push_through(send.feed, send.unit);
    for (auto& shard : shards)
      shard->queue.set_watermark(send.feed, refs[send.feed].clock[send.unit]);
    drain(static_cast<std::int64_t>(j));
  }
  for (std::size_t f = 0; f < refs.size(); ++f) {
    push_through(f, UINT32_MAX);
    for (auto& shard : shards) shard->queue.close(f);
  }
  drain(-1);
  for (const auto& shard : shards)
    plan.final_generation.push_back(shard->engine.generation());
  return plan;
}

/// The saturation phase's send list: each feed's bytes in 64 KiB chunks
/// (what LiveSession::drain reads from a socket), interleaved in stream
/// order.
std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> chunks_of(
    const LiveInputs& in) {
  constexpr std::size_t kChunk = 65536;
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> out;
  std::vector<std::size_t> begin(in.feeds.size(), 0), end(in.feeds.size(), 0);
  auto emit = [&](std::size_t f) {
    if (end[f] == begin[f]) return;
    out.emplace_back(f, std::span<const std::uint8_t>(in.feeds[f].bytes)
                            .subspan(begin[f], end[f] - begin[f]));
    begin[f] = end[f];
  };
  for (const Send& send : in.schedule) {
    const Unit& unit = in.feeds[send.feed].units[send.unit];
    end[send.feed] = unit.offset + unit.length;
    if (end[send.feed] - begin[send.feed] >= kChunk) emit(send.feed);
  }
  for (std::size_t f = 0; f < in.feeds.size(); ++f) emit(f);
  return out;
}

/// Closed loop: every feed's bytes as fast as one thread can feed them,
/// then finish(). Returns the wall seconds; checks the links.
double saturate(const LiveInputs& in,
                const std::vector<std::set<bgp::AsLink>>& reference,
                SpanLog& log) {
  const std::uint32_t feed_name = log.intern("pipeline.session.feed");
  const auto chunks = chunks_of(in);
  pipeline::LiveSession session(session_config(in), in.ixps, in.rel_fn());
  auto handles = wire(session, in);
  const auto start = Clock::now();
  for (std::size_t j = 0; j < chunks.size(); ++j) {
    ScopedSpan span(log, feed_name, j);
    handles[chunks[j].first].feed(chunks[j].second);
  }
  auto result = session.finish();
  const double wall = seconds_since(start);
  check_links(reference, links_of(std::move(result)), "saturation run");
  return wall;
}

/// Least-squares slope of (t, backlog) samples, per second.
double slope(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) return 0;
  double mt = 0, mb = 0;
  for (const auto& [t, b] : points) {
    mt += t;
    mb += b;
  }
  mt /= static_cast<double>(points.size());
  mb /= static_cast<double>(points.size());
  double num = 0, den = 0;
  for (const auto& [t, b] : points) {
    num += (t - mt) * (b - mb);
    den += (t - mt) * (t - mt);
  }
  return den > 0 ? num / den : 0;
}

}  // namespace

pipeline::LiveConfig session_config(const LiveInputs& in) {
  pipeline::LiveConfig config;
  config.threads = kThreads;
  config.passive = in.passive;
  return config;
}

std::vector<pipeline::FeedHandle> wire(pipeline::LiveSession& session,
                                       const LiveInputs& in) {
  std::vector<pipeline::FeedHandle> handles;
  for (const auto& feed : in.feeds) {
    pipeline::FeedOptions options;
    options.name = feed.name;
    options.transport = feed.transport;
    handles.push_back(session.add_feed(options));
  }
  return handles;
}

std::span<const std::uint8_t> unit_bytes(const LiveInputs& in,
                                         const Send& send) {
  const FeedInput& feed = in.feeds[send.feed];
  const Unit& unit = feed.units[send.unit];
  return {feed.bytes.data() + unit.offset, unit.length};
}

std::vector<std::set<bgp::AsLink>> links_of(pipeline::LiveResult result) {
  std::vector<std::set<bgp::AsLink>> out;
  for (auto& ixp : result.per_ixp) out.push_back(std::move(ixp.links));
  return out;
}

void check_links(const std::vector<std::set<bgp::AsLink>>& expected,
                 const std::vector<std::set<bgp::AsLink>>& actual,
                 const std::string& what) {
  if (expected.size() != actual.size())
    throw OracleFailure(what + ": IXP count differs from the reference");
  for (std::size_t i = 0; i < expected.size(); ++i)
    if (expected[i] != actual[i])
      throw OracleFailure(what + ": IXP " + std::to_string(i) + " has " +
                          std::to_string(actual[i].size()) +
                          " links, the reference " +
                          std::to_string(expected[i].size()));
}

std::vector<std::set<bgp::AsLink>> archive_reference(const LiveInputs& in,
                                                     double& seconds) {
  const auto start = Clock::now();
  pipeline::PipelineConfig config;
  config.threads = kThreads;
  config.passive = in.passive;
  config.keep_engines = false;
  pipeline::InferencePipeline pipe(config);
  for (const auto& context : in.ixps) pipe.add_ixp(context);
  pipe.set_relationships(in.rel_fn());
  for (const auto& feed : in.feeds) pipe.add_update_stream(feed.mrt);
  auto result = pipe.run();
  seconds = seconds_since(start);
  std::vector<std::set<bgp::AsLink>> out;
  for (auto& ixp : result.per_ixp) out.push_back(std::move(ixp.links));
  return out;
}

Report run_live(const Options& options) {
  const bool bigrs = options.workload == "live-bigrs";
  LiveParams params;
  const double open_s = 0.4 * options.seconds;
  if (bigrs) {
    params.rate = 2000;
    params.checkpoint_every = 500;
    params.snapshot_every = 400;
  } else {
    params.rate = 8000;
    params.checkpoint_every = 2000;
  }
  const auto units = static_cast<std::size_t>(params.rate * open_s);

  Report report;
  SpanLog calls_log(options.trace), poll_log(options.trace),
      query_log(options.trace);
  const std::uint32_t feed_name = calls_log.intern("pipeline.session.feed");
  const std::uint32_t save_name = calls_log.intern("pipeline.checkpoint.save");
  const std::uint32_t restore_name =
      calls_log.intern("pipeline.checkpoint.restore");
  const std::uint32_t snapshot_name =
      calls_log.intern("pipeline.session.snapshot");
  const std::uint32_t finish_name =
      calls_log.intern("pipeline.session.finish");
  const std::uint32_t run_name = calls_log.intern("pipeline.run");
  const std::uint32_t read_name = poll_log.intern("pipeline.epoch.read");

  // ---- inputs (excluded from setup_s)
  auto gen_start = Clock::now();
  const LiveInputs in =
      bigrs ? make_bigrs_inputs(options.seed, units)
            : make_feeds_inputs(options.seed, units / 2);
  const double generate_s = seconds_since(gen_start);
  const InterferenceMonitor monitor;

  // ---- oracle: the archive path over the same bytes
  std::vector<std::set<bgp::AsLink>> reference;
  {
    double seconds = 0;
    reference = archive_reference(in, seconds);
  }
  if (options.perturb_oracle) {
    auto it = std::max_element(
        reference.begin(), reference.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    if (it != reference.end() && !it->empty()) it->erase(it->begin());
  }
  Visibility plan = plan_visibility(in);

  // ---- setup: one untimed warm-up pass through a throwaway session,
  // then the measured session, its feeds, the QueryServer bind and one
  // warm-up request; five times, the last session is kept
  SpanLog off(false);
  std::vector<Timed> setups;
  std::unique_ptr<pipeline::LiveSession> session;
  std::unique_ptr<pipeline::QueryServer> server;
  std::unique_ptr<QueryClient> client;
  std::vector<pipeline::FeedHandle> handles;
  for (int k = 0; k < 5; ++k) {
    client.reset();
    server.reset();
    session.reset();
    const auto start = Clock::now();
    (void)saturate(in, reference, off);
    session = std::make_unique<pipeline::LiveSession>(session_config(in),
                                                      in.ixps, in.rel_fn());
    handles = wire(*session, in);
    server = std::make_unique<pipeline::QueryServer>(
        *session, pipeline::QueryServer::Options{});
    client = std::make_unique<QueryClient>(server->port());
    if (client->ask("ixps").rfind("ok ", 0) != 0)
      throw OracleFailure("warm-up query failed");
    setups.push_back(timed_since(start));
  }
  reset_peak_rss();

  // ---- open loop
  const std::string ckpt = options.work_dir + "/" + options.workload + ".ckpt";
  std::vector<Timed> save_ms;
  std::vector<double> late_ms;
  std::atomic<bool> stop_poll{false}, stop_query{false};
  QueryLoad load;
  std::vector<std::pair<double, double>> backlog;
  std::vector<double> ages_ms, reads_ns;
  std::size_t epochs_seen = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);

  std::thread poller([&] {
    std::vector<std::uint64_t> seen_gen(in.ixps.size(), 0);
    std::vector<std::uint64_t> seen_epoch(in.ixps.size(), 0);
    std::vector<Clock::time_point> first_seen(in.ixps.size(), Clock::now());
    auto next_backlog = Clock::now();
    auto next_age = Clock::now();
    while (!stop_poll.load(std::memory_order_acquire)) {
      const auto now = Clock::now();
      const bool age_tick = now >= next_age;
      if (age_tick) next_age = now + std::chrono::milliseconds(1);
      for (std::size_t i = 0; i < in.ixps.size(); ++i) {
        const auto read_start = Clock::now();
        const auto snap = session->epoch_snapshot(i);
        const auto read_end = Clock::now();
        // One read per IXP per millisecond is kept as a span.
        if (age_tick) {
          poll_log.add(read_name, read_start, read_end);
          reads_ns.push_back(ms_between(read_start, read_end) * 1e6);
        }
        if (snap->epoch() != seen_epoch[i]) {
          seen_epoch[i] = snap->epoch();
          first_seen[i] = read_end;
          ++epochs_seen;
        } else if (age_tick) {
          ages_ms.push_back(ms_between(first_seen[i], read_end));
        }
        const std::uint64_t gen = snap->generation();
        const auto& ranks = plan.sample_of_rank[i];
        for (std::uint64_t r = seen_gen[i] + 1;
             r <= gen && r < ranks.size(); ++r)
          if (ranks[r] >= 0)
            plan.samples[static_cast<std::size_t>(ranks[r])].visible_ms =
                ms_between(t0, read_end);
        seen_gen[i] = std::max(seen_gen[i], gen);
      }
      if (now >= next_backlog) {
        next_backlog = now + std::chrono::milliseconds(20);
        double depth = 0;
        for (std::size_t i = 0; i < in.ixps.size(); ++i)
          depth += static_cast<double>(session->merge_backlog(i));
        backlog.emplace_back(ms_between(t0, now) / 1e3, depth);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread querier([&] {
    run_query_mix(*client, in.ixps, options.seed, stop_query, load,
                  query_log);
  });
  // Joins both threads on every exit path, exceptions included.
  struct Joiner {
    std::atomic<bool>& a;
    std::atomic<bool>& b;
    std::thread& x;
    std::thread& y;
    ~Joiner() {
      a = true;
      b = true;
      if (x.joinable()) x.join();
      if (y.joinable()) y.join();
    }
  } joiner{stop_poll, stop_query, poller, querier};

  std::uint64_t attempted = 0, failed = 0;
  const double period_s = 1.0 / params.rate;
  auto due = [&](std::size_t j) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s *
                                                  static_cast<double>(j)));
  };
  auto save = [&] {
    ++attempted;
    try {
      const auto start = Clock::now();
      pipeline::save_checkpoint(*session, ckpt);
      const auto end = Clock::now();
      calls_log.add(save_name, start, end);
      save_ms.push_back(Timed{start, end, ms_between(start, end)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint save failed: %s\n", e.what());
      ++failed;
    }
  };
  // The generator wakes on a 1 ms tick and sends every record due by
  // then; each record is still timed from its own due time.
  const auto tick = std::chrono::milliseconds(1);
  for (std::size_t j = 0; j < in.schedule.size(); ++j) {
    const auto when = due(j);
    if (Clock::now() < when)
      std::this_thread::sleep_until(t0 + ((when - t0) / tick + 1) * tick);
    const auto start = Clock::now();
    late_ms.push_back(ms_between(when, start));
    ++attempted;
    handles[in.schedule[j].feed].feed(unit_bytes(in, in.schedule[j]));
    calls_log.add(feed_name, start, Clock::now(), j);
    if (params.checkpoint_every != 0 && (j + 1) % params.checkpoint_every == 0)
      save();
    if (params.snapshot_every != 0 && (j + 1) % params.snapshot_every == 0) {
      const auto snap_start = Clock::now();
      (void)session->snapshot();
      calls_log.add(snapshot_name, snap_start, Clock::now());
    }
  }
  const double open_wall = ms_between(t0, Clock::now()) / 1e3;
  stop_query = true;
  querier.join();
  for (auto& handle : handles) handle.close();
  // Every accepted observation must reach a published epoch before
  // finish(); give the pumps a bounded grace.
  const auto grace = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool settled = true;
    for (std::size_t i = 0; i < in.ixps.size(); ++i)
      if (session->epoch_snapshot(i)->generation() < plan.final_generation[i])
        settled = false;
    if (settled || Clock::now() > grace) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stop_poll = true;
  poller.join();
  const auto finish_start = Clock::now();
  auto result = session->finish();
  calls_log.add(finish_name, finish_start, Clock::now());
  check_answers(*client, in.ixps, result, options.seed);
  check_links(reference, links_of(std::move(result)), "open-loop session");
  client.reset();
  server.reset();
  session.reset();

  // ---- closed-loop rounds: an archive-path run, a saturation run and a
  // restore of the last checkpoint into a freshly wired session per
  // round, for 45% of the run (at least five rounds). Interleaving
  // spreads each metric's samples over the whole phase, so a slow
  // stretch of the host moves all three a little instead of one a lot.
  std::vector<Timed> archive_runs, walls, restore_ms;
  auto restore = [&](bool resume) {
    pipeline::LiveSession fresh(session_config(in), in.ixps, in.rel_fn());
    auto fresh_handles = wire(fresh, in);
    ++attempted;
    try {
      const auto start = Clock::now();
      (void)pipeline::restore_checkpoint(fresh, ckpt);
      const auto end = Clock::now();
      calls_log.add(restore_name, start, end);
      restore_ms.push_back(Timed{start, end, ms_between(start, end)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint restore failed: %s\n", e.what());
      ++failed;
      return;
    }
    if (!resume) return;
    // The resumed session, fed the rest of every stream from its
    // acknowledged offset, must reach the uninterrupted result.
    const auto acked = fresh.acknowledged_offsets();
    for (std::size_t f = 0; f < in.feeds.size(); ++f) {
      const auto& bytes = in.feeds[f].bytes;
      fresh_handles[f].feed(std::span<const std::uint8_t>(bytes).subspan(
          static_cast<std::size_t>(acked[f])));
    }
    check_links(reference, links_of(fresh.finish()), "resumed session");
  };
  const auto rounds_start = Clock::now();
  while (walls.size() < 5 ||
         seconds_since(rounds_start) < 0.45 * options.seconds) {
    double seconds = 0;
    const auto start = Clock::now();
    check_links(reference, archive_reference(in, seconds),
                "archive-path rerun");
    calls_log.add(run_name, start, Clock::now());
    archive_runs.push_back(Timed{start, Clock::now(), seconds});
    const auto saturate_start = Clock::now();
    const double saturate_s = saturate(in, reference, off);
    walls.push_back(Timed{saturate_start, Clock::now(), saturate_s});
    // Few rounds fit in a run and a restore is short: three per round give
    // resume_ms enough samples for a steady median.
    for (int k = 0; k < 3; ++k) restore(false);
  }
  restore(true);
  std::uintmax_t payload = 0;
  std::error_code ec;
  payload = std::filesystem::file_size(ckpt, ec);
  std::filesystem::remove(ckpt, ec);
  std::filesystem::remove(ckpt + ".1", ec);
  // Every figure is taken over the samples that saw the least
  // interference from other tenants (see quiet()).
  const double wall = median(quiet(walls, monitor));
  const double peak = peak_rss_mb();

  // ---- accounting
  std::vector<Timed> visible;
  std::uint64_t never = 0;
  for (const auto& sample : plan.samples) {
    if (sample.visible_ms < 0) {
      ++never;
      continue;
    }
    const auto due_at = due(sample.last_send);
    const auto seen_at = std::max(
        due_at, t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             sample.visible_ms)));
    visible.push_back(Timed{due_at, seen_at, ms_between(due_at, seen_at)});
  }
  attempted += plan.samples.size() + load.requests;
  failed += never + load.errors;
  report.attempted = attempted;
  report.failed = failed;
  const double late_p99 = quantile(late_ms, 0.99);
  // Backlog growth: the last third of the open-loop samples against the
  // first third.
  double head = 0, tail = 0;
  const std::size_t third = backlog.size() / 3;
  for (std::size_t k = 0; k < third; ++k) {
    head += backlog[k].second;
    tail += backlog[backlog.size() - 1 - k].second;
  }
  if (third > 0 && tail > 4 * head + 4096.0 * static_cast<double>(third)) {
    report.valid = false;
    report.invalid_reason = "merge backlog kept growing";
  }
  if (late_p99 > 100) {
    report.valid = false;
    report.invalid_reason = "generator more than 100 ms late on over 1% of records";
  }
  const double ingest_rps = static_cast<double>(in.records) / wall;
  if (params.rate > kMaxLoad * ingest_rps) {
    report.valid = false;
    report.invalid_reason = "offered rate above a quarter of saturation";
  }

  const auto quiet_visible = quiet(visible, monitor);
  const double save_p50 = median(quiet(save_ms, monitor));
  const double restore_p50 = median(quiet(restore_ms, monitor));
  report.e2e("setup_s", median(quiet(setups, monitor)));
  report.e2e("peak_rss_mb", peak);
  report.e2e("archive_s", median(quiet(archive_runs, monitor)));
  report.e2e("ingest_rps", ingest_rps);
  report.e2e("visible_p50_ms", quantile(quiet_visible, 0.5));
  report.e2e("visible_p90_ms", quantile(quiet_visible, 0.9));
  report.e2e("checkpoint_ms", save_p50);
  report.e2e("resume_ms", restore_p50);
  const auto rtts = quiet(load.all_us, monitor);
  report.e2e("query_p50_us", quantile(rtts, 0.5));
  std::printf(
      "%s: %zu records at %.0f/s offered over %.2f s; %zu visibility "
      "samples, %zu query samples, %zu saves, %zu restores\n",
      options.workload.c_str(), in.records, params.rate, open_wall,
      visible.size(), rtts.size(), save_ms.size(), restore_ms.size());

  report.layer("driver.late_ms_p99", late_p99);
  report.layer("driver.offered_rps", params.rate);
  report.layer("driver.backlog_slope", slope(backlog));
  report.layer("driver.visible_samples", static_cast<double>(visible.size()));
  report.layer("driver.query_samples", static_cast<double>(rtts.size()));
  report.layer("scenario.generate_s", generate_s);
  report.layer("driver.interference_cpus", monitor.mean());
  if (!options.trace) return report;

  // ---- traced run: benchmark-side spans are in; now the ladder
  const double traced_wall = [&] {
    SpanLog traced(true);
    const double w = saturate(in, reference, traced);
    traced.write_jsonl(options.work_dir + "/spans-" + options.workload +
                           ".jsonl",
                       "saturation");
    return w;
  }();
  // The ladder untraced (median of three) and traced: the difference is
  // what the two clock reads around every call cost.
  auto ladder_pass = [&](SpanLog& log) {
    return live_ladder(in, session_config(in).batch_size,
                       session_config(in).publish_every_batches,
                       params.snapshot_every != 0 ? params.snapshot_every
                                                  : params.checkpoint_every,
                       log);
  };
  std::vector<double> plain_s;
  for (int k = 0; k < 3; ++k) {
    const auto start = Clock::now();
    const auto plain = ladder_pass(off);
    plain_s.push_back(seconds_since(start));
    check_links(reference, plain.links, "untraced ladder");
  }
  SpanLog ladder_log(true);
  const auto ladder_start = Clock::now();
  const auto ladder = ladder_pass(ladder_log);
  const double ladder_s = seconds_since(ladder_start);
  check_links(reference, ladder.links, "ladder");
  const auto self = ladder_log.self_ms();
  double lane_ms = 0, layers_ms = 0;
  for (const auto& [name, ms] : self) {
    report.layer(name + ".busy_ms", ms);
    layers_ms += ms;
    if (name.rfind("stream.", 0) == 0 || name == "core.passive") lane_ms += ms;
  }
  for (const auto& [name, value] : ladder.counts) report.layer(name, value);
  report.layer("pipeline.run.busy_ms",
               median(calls_log.durations_us("pipeline.run")) / 1e3);
  report.layer("pipeline.run.unaccounted_ms", wall * 1e3 - layers_ms);
  const auto feeds_us = calls_log.durations_us("pipeline.session.feed");
  report.layer("pipeline.session.feed_us_p50", quantile(feeds_us, 0.5));
  report.layer("pipeline.session.feed_us_p99", quantile(feeds_us, 0.99));
  report.layer("pipeline.session.blocked_ms",
               std::accumulate(feeds_us.begin(), feeds_us.end(), 0.0) / 1e3 -
                   lane_ms);
  report.layer("pipeline.session.finish_ms",
               median(calls_log.durations_us("pipeline.session.finish")) / 1e3);
  report.layer("pipeline.epoch.read_ns",
               reads_ns.empty() ? 0
                                : std::accumulate(reads_ns.begin(),
                                                  reads_ns.end(), 0.0) /
                                      static_cast<double>(reads_ns.size()));
  report.layer("pipeline.epoch.epochs_seen", static_cast<double>(epochs_seen));
  report.layer("pipeline.epoch.age_ms_p99", quantile(ages_ms, 0.99));
  report.layer("pipeline.query.link_us", quantile(load.link_us, 0.5));
  report.layer("pipeline.query.links_us", quantile(load.links_us, 0.5));
  report.layer("pipeline.query.stats_us", quantile(load.stats_us, 0.5));
  report.layer("pipeline.query.requests", static_cast<double>(load.requests));
  report.layer("pipeline.query.errors", static_cast<double>(load.errors));
  report.layer("pipeline.checkpoint.save_ms", save_p50);
  report.layer("pipeline.checkpoint.restore_ms", restore_p50);
  report.layer("pipeline.checkpoint.payload_B", static_cast<double>(payload));
  report.layer("trace.overhead_pct", (traced_wall / wall - 1) * 100);
  report.layer("trace.ladder_overhead_pct",
               (ladder_s / median(plain_s) - 1) * 100);

  std::printf("ladder (one thread, chain order) against %.1f ms of "
              "untraced saturation wall:\n", wall * 1e3);
  for (const auto& [name, ms] : self)
    std::printf("  %-16s %10.2f ms  %6.1f%%\n", name.c_str(), ms,
                100 * ms / (wall * 1e3));
  std::printf("  %-16s %10.2f ms\n", "unaccounted", wall * 1e3 - layers_ms);
  std::printf("ladder wall %.1f ms traced, %.1f ms untraced\n", ladder_s * 1e3,
              median(plain_s) * 1e3);
  const std::string spans = options.work_dir + "/spans-" + options.workload +
                            ".jsonl";
  calls_log.write_jsonl(spans, "calls");
  poll_log.write_jsonl(spans, "poller");
  query_log.write_jsonl(spans, "query");
  ladder_log.write_jsonl(spans, "ladder");
  return report;
}

}  // namespace perfbench
