// The archive workload: what `mlp_infer infer` does over the paper-roster
// scenario's two collector dumps, pass after pass, plus a short serve
// phase (the first collector's RIB replayed into a LiveSession behind a
// QueryServer) that prices queries and checkpoints on the same routes.
#include <cstdio>
#include <filesystem>
#include <thread>

#include "client.hpp"
#include "ladder.hpp"
#include "mrt/cursor.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/query_server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mlp;

namespace {

/// One full pass: the relationship baseline from the dumps' paths, then
/// InferencePipeline::run until the result exists.
std::vector<std::set<bgp::AsLink>> archive_pass(const ArchiveInputs& in,
                                                SpanLog& log,
                                                std::uint64_t request) {
  ScopedSpan pass(log, log.intern("archive.pass"), request);
  std::vector<bgp::AsPath> paths;
  for (const auto& dump : in.dumps) {
    ScopedSpan span(log, log.intern("mrt.cursor.walk"), request,
                    pass.index());
    mrt::MrtCursor cursor(*dump);
    for (;;) {
      const auto event = cursor.next();
      if (event == mrt::MrtCursor::Event::End) break;
      if (event == mrt::MrtCursor::Event::RibEntry)
        paths.push_back(cursor.rib_entry().attrs->as_path);
    }
  }
  topology::InferredRelationships rels;
  {
    ScopedSpan span(log, log.intern("topology.infer_relationships"), request,
                    pass.index());
    rels = topology::infer_relationships(paths);
  }
  pipeline::PipelineConfig config;
  config.threads = kThreads;
  config.keep_engines = false;
  pipeline::InferencePipeline pipe(config);
  {
    ScopedSpan span(log, log.intern("pipeline.register"), request,
                    pass.index());
    for (const auto& context : in.ixps) pipe.add_ixp(context);
    for (const auto& dump : in.dumps) pipe.add_table_dump(dump);
    pipe.set_relationships(rels.rel_fn());
  }
  pipeline::PipelineResult result;
  {
    ScopedSpan span(log, log.intern("pipeline.run"), request, pass.index());
    result = pipe.run();
  }
  std::vector<std::set<bgp::AsLink>> out;
  for (auto& ixp : result.per_ixp) out.push_back(std::move(ixp.links));
  return out;
}

/// Share of inferred links that are not ground-truth RS links; the
/// table2_inference bound is 0.5%.
double false_positive_rate(const ArchiveInputs& in,
                           const std::vector<std::set<bgp::AsLink>>& links) {
  std::size_t total = 0, false_positives = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    total += links[i].size();
    for (const auto& link : links[i])
      if (!in.truth[i].count(link)) ++false_positives;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(false_positives) /
                          static_cast<double>(total);
}

struct ServeFigures {
  QueryLoad load;
  std::vector<Timed> save_ms, restore_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::uintmax_t payload = 0;
};

/// Replay one collector's RIB as updates into a session, settle it, then
/// query it closed-loop for `query_s`, checkpoint it and restore it
/// thirty times each.
ServeFigures serve(const LiveInputs& serve_in,
                   const std::vector<std::set<bgp::AsLink>>& reference,
                   const Options& options, double query_s, SpanLog& log) {
  constexpr int kRepeats = 30;
  ServeFigures out;
  const std::string ckpt = options.work_dir + "/archive-serve.ckpt";
  {
    pipeline::LiveSession session(session_config(serve_in), serve_in.ixps,
                                  serve_in.rel_fn());
    auto handles = wire(session, serve_in);
    pipeline::QueryServer server(session, pipeline::QueryServer::Options{});
    QueryClient client(server.port());
    for (const Send& send : serve_in.schedule)
      handles[send.feed].feed(unit_bytes(serve_in, send));
    out.attempted += serve_in.schedule.size();
    for (auto& handle : handles) handle.close();
    (void)session.snapshot();
    std::atomic<bool> stop{false};
    std::thread querier([&] {
      run_query_mix(client, serve_in.ixps, options.seed, stop, out.load, log);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(query_s));
    stop = true;
    querier.join();
    const std::uint32_t save_name = log.intern("pipeline.checkpoint.save");
    for (int k = 0; k < kRepeats; ++k) {
      ++out.attempted;
      try {
        const auto start = Clock::now();
        pipeline::save_checkpoint(session, ckpt);
        const auto end = Clock::now();
        log.add(save_name, start, end);
        out.save_ms.push_back(Timed{start, end, ms_between(start, end)});
        // Spread over three seconds: one burst of machine noise must not
        // set the median.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "checkpoint save failed: %s\n", e.what());
        ++out.failed;
      }
    }
    auto result = session.finish();
    check_answers(client, serve_in.ixps, result, options.seed);
    check_links(reference, links_of(std::move(result)), "serve session");
  }
  const std::uint32_t restore_name = log.intern("pipeline.checkpoint.restore");
  for (int k = 0; k < kRepeats; ++k) {
    pipeline::LiveSession fresh(session_config(serve_in), serve_in.ixps,
                                serve_in.rel_fn());
    (void)wire(fresh, serve_in);
    ++out.attempted;
    try {
      const auto start = Clock::now();
      (void)pipeline::restore_checkpoint(fresh, ckpt);
      const auto end = Clock::now();
      log.add(restore_name, start, end);
      out.restore_ms.push_back(Timed{start, end, ms_between(start, end)});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint restore failed: %s\n", e.what());
      ++out.failed;
      continue;
    }
    if (k == kRepeats - 1)
      check_links(reference, links_of(fresh.finish()), "restored session");
  }
  std::error_code ec;
  out.payload = std::filesystem::file_size(ckpt, ec);
  std::filesystem::remove(ckpt, ec);
  std::filesystem::remove(ckpt + ".1", ec);
  out.attempted += out.load.requests;
  out.failed += out.load.errors;
  return out;
}

}  // namespace

Report run_archive(const Options& options) {
  Report report;
  const auto gen_start = Clock::now();
  const ArchiveInputs in = make_archive_inputs(options.seed);
  LiveInputs serve_in;
  serve_in.ixps = in.ixps;
  serve_in.feeds.push_back(in.replay);
  serve_in.schedule = interleave(serve_in.feeds);
  serve_in.records = in.replay.records;
  const double generate_s = seconds_since(gen_start);
  const InterferenceMonitor monitor;

  // Setup: construction, registration and one untimed warm-up pass,
  // five times. The first result is the reference every later pass must
  // reproduce, and it must meet the paper's precision bound.
  SpanLog off(false);
  std::vector<Timed> setups;
  std::vector<std::set<bgp::AsLink>> reference;
  for (int k = 0; k < 5; ++k) {
    const auto start = Clock::now();
    auto links = archive_pass(in, off, 0);
    setups.push_back(timed_since(start));
    if (k == 0)
      reference = std::move(links);
    else
      check_links(reference, links, "archive warm-up pass");
  }
  const double fp = false_positive_rate(in, reference);
  if (fp >= 0.005)
    throw OracleFailure("false-positive share " + std::to_string(fp) +
                        " is not below table2_inference's 0.5% bound");
  if (options.perturb_oracle && !reference.empty() && !reference[0].empty())
    reference[0].erase(reference[0].begin());
  double serve_reference_s = 0;
  const auto serve_reference = archive_reference(serve_in, serve_reference_s);
  reset_peak_rss();

  // Timed passes for 60% of the run; the serve phase takes most of the
  // rest.
  std::vector<Timed> passes;
  const auto phase_start = Clock::now();
  std::uint64_t attempted = 0;
  while (passes.size() < 3 ||
         seconds_since(phase_start) < 0.6 * options.seconds) {
    const auto start = Clock::now();
    const auto links = archive_pass(in, off, passes.size() + 1);
    passes.push_back(timed_since(start));
    attempted += in.entries;
    check_links(reference, links, "archive pass");
  }
  SpanLog serve_log(options.trace);
  const ServeFigures figures = serve(serve_in, serve_reference, options,
                                     0.1 * options.seconds, serve_log);
  const double peak = peak_rss_mb();
  report.attempted = attempted + figures.attempted;
  report.failed = figures.failed;

  // Every figure is taken over the samples that saw the least
  // interference from other tenants (see quiet()).
  const auto quiet_passes = quiet(passes, monitor);
  const double pass_s = median(quiet_passes);
  std::vector<double> pass_ms;
  for (const double p : quiet_passes) pass_ms.push_back(p * 1e3);
  const auto rtts = quiet(figures.load.all_us, monitor);
  const double save_ms = median(quiet(figures.save_ms, monitor));
  const double restore_ms = median(quiet(figures.restore_ms, monitor));
  report.e2e("setup_s", median(quiet(setups, monitor)));
  report.e2e("peak_rss_mb", peak);
  report.e2e("archive_s", pass_s);
  report.e2e("ingest_rps", static_cast<double>(in.entries) / pass_s);
  // In batch mode a record is visible once the pass's result exists.
  report.e2e("visible_p50_ms", quantile(pass_ms, 0.5));
  report.e2e("visible_p90_ms", quantile(pass_ms, 0.9));
  report.e2e("checkpoint_ms", save_ms);
  report.e2e("resume_ms", restore_ms);
  report.e2e("query_p50_us", quantile(rtts, 0.5));
  std::printf("archive: %zu RIB entries over %zu IXPs; %zu passes, "
              "false positives %.3f%%; serve phase %zu query samples\n",
              in.entries, in.ixps.size(), passes.size(), 100 * fp,
              rtts.size());

  report.layer("driver.visible_samples", static_cast<double>(passes.size()));
  report.layer("driver.query_samples", static_cast<double>(rtts.size()));
  report.layer("scenario.generate_s", generate_s);
  report.layer("driver.interference_cpus", monitor.mean());
  if (!options.trace) return report;

  // ---- traced run: one pass with benchmark-side spans, then the ladder
  SpanLog traced(true);
  const auto traced_start = Clock::now();
  check_links(reference, archive_pass(in, traced, 1), "traced pass");
  const double traced_s = seconds_since(traced_start);
  // The ladder untraced (median of three) and traced: the difference is
  // what the two clock reads around every call cost.
  std::vector<double> plain_s;
  for (int k = 0; k < 3; ++k) {
    const auto start = Clock::now();
    const auto plain = archive_ladder(in, 256, off);
    plain_s.push_back(seconds_since(start));
    check_links(reference, plain.links, "untraced ladder");
  }
  SpanLog ladder_log(true);
  const auto ladder_start = Clock::now();
  const auto ladder = archive_ladder(in, 256, ladder_log);
  const double ladder_s = seconds_since(ladder_start);
  check_links(reference, ladder.links, "ladder");
  const auto self = ladder_log.self_ms();
  double layers_ms = 0;
  for (const auto& [name, ms] : self) layers_ms += ms;
  for (const auto& [name, ms] : self) report.layer(name + ".busy_ms", ms);
  for (const auto& [name, value] : ladder.counts)
    report.layer(name, value);
  report.layer("pipeline.run.busy_ms",
               median(traced.durations_us("pipeline.run")) / 1e3);
  report.layer("pipeline.run.unaccounted_ms", pass_s * 1e3 - layers_ms);
  report.layer("pipeline.query.link_us", quantile(figures.load.link_us, 0.5));
  report.layer("pipeline.query.links_us", quantile(figures.load.links_us, 0.5));
  report.layer("pipeline.query.stats_us", quantile(figures.load.stats_us, 0.5));
  report.layer("pipeline.query.requests",
               static_cast<double>(figures.load.requests));
  report.layer("pipeline.query.errors",
               static_cast<double>(figures.load.errors));
  report.layer("pipeline.checkpoint.save_ms", save_ms);
  report.layer("pipeline.checkpoint.restore_ms", restore_ms);
  report.layer("pipeline.checkpoint.payload_B",
               static_cast<double>(figures.payload));
  report.layer("trace.overhead_pct", (traced_s / pass_s - 1) * 100);
  report.layer("trace.ladder_overhead_pct",
               (ladder_s / median(plain_s) - 1) * 100);

  std::printf("ladder (one thread, chain order) against %.1f ms of "
              "untraced pass wall:\n", pass_s * 1e3);
  for (const auto& [name, ms] : self)
    std::printf("  %-16s %10.2f ms  %6.1f%%\n", name.c_str(), ms,
                100 * ms / (pass_s * 1e3));
  std::printf("  %-16s %10.2f ms\n", "unaccounted", pass_s * 1e3 - layers_ms);
  std::printf("ladder wall %.1f ms traced, %.1f ms untraced\n", ladder_s * 1e3,
              median(plain_s) * 1e3);
  const std::string spans = options.work_dir + "/spans-archive.jsonl";
  traced.write_jsonl(spans, "calls");
  serve_log.write_jsonl(spans, "serve");
  ladder_log.write_jsonl(spans, "ladder");
  return report;
}

}  // namespace perfbench
