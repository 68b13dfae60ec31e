// End-to-end benchmark for archive and live inference.
//
//   perfbench --workload archive|live-feeds|live-bigrs --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--perturb-oracle]
//   perfbench --self-test
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). A wrong answer or a failed operation exits 1; an
// invalid open-loop run (the generator fell behind, the merge backlog kept
// growing, or the offered rate came near saturation) exits 3.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "workloads.hpp"

namespace {

using Table = std::vector<std::pair<const char*, const char*>>;

/// Every end-to-end metric, on every workload (name, unit).
const Table kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"archive_s", "s"},         {"ingest_rps", "records/s"},
    {"visible_p50_ms", "ms"},   {"visible_p90_ms", "ms"},
    {"checkpoint_ms", "ms"},    {"resume_ms", "ms"},
    {"query_p50_us", "us"},
};

/// Every per-layer metric (name, unit); a layer a workload does not run
/// reports 0.
const Table kPerLayer = {
    {"topology.rel.busy_ms", "ms"},
    {"mrt.cursor.busy_ms", "ms"},
    {"mrt.cursor.entries", "count"},
    {"core.passive.busy_ms", "ms"},
    {"core.passive.observations", "count"},
    {"core.passive.yield", "ratio"},
    {"core.links.busy_ms", "ms"},
    {"core.links.count", "count"},
    {"pipeline.run.busy_ms", "ms"},
    {"pipeline.run.unaccounted_ms", "ms"},
    {"stream.bmp.busy_ms", "ms"},
    {"stream.bmp.messages", "count"},
    {"stream.framer.busy_ms", "ms"},
    {"stream.framer.bytes", "B"},
    {"stream.decoder.busy_ms", "ms"},
    {"stream.decoder.updates", "count"},
    {"pipeline.queue.busy_ms", "ms"},
    {"pipeline.queue.batches", "count"},
    {"pipeline.queue.backlog_peak", "count"},
    {"core.engine.busy_ms", "ms"},
    {"core.engine.adds", "count"},
    {"core.engine.accept_ratio", "ratio"},
    {"core.snapshot.busy_ms", "ms"},
    {"core.snapshot.freezes", "count"},
    {"core.snapshot.copied_B", "B"},
    {"core.snapshot.fresh_ratio", "ratio"},
    {"pipeline.session.feed_us_p50", "us"},
    {"pipeline.session.feed_us_p99", "us"},
    {"pipeline.session.blocked_ms", "ms"},
    {"pipeline.session.finish_ms", "ms"},
    {"pipeline.epoch.read_ns", "ns"},
    {"pipeline.epoch.epochs_seen", "count"},
    {"pipeline.epoch.age_ms_p99", "ms"},
    {"pipeline.query.link_us", "us"},
    {"pipeline.query.links_us", "us"},
    {"pipeline.query.stats_us", "us"},
    {"pipeline.query.requests", "count"},
    {"pipeline.query.errors", "count"},
    {"pipeline.checkpoint.save_ms", "ms"},
    {"pipeline.checkpoint.restore_ms", "ms"},
    {"pipeline.checkpoint.payload_B", "B"},
    {"driver.late_ms_p99", "ms"},
    {"driver.offered_rps", "records/s"},
    {"driver.backlog_slope", "obs/s"},
    {"driver.visible_samples", "count"},
    {"driver.query_samples", "count"},
    {"driver.interference_cpus", "cpus"},
    {"scenario.generate_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.ladder_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload archive|live-feeds|live-bigrs "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--perturb-oracle]\n       perfbench --self-test\n");
  return 2;
}

void print_result(bool correct, const perfbench::Report& report,
                  const Table& table,
                  const std::map<std::string, double>& values) {
  std::string metrics;
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    if (it == values.end() && &table == &kEndToEnd) continue;
    const double value = it == values.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name,
                  std::isfinite(value) ? value : 0.0, unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--perturb-oracle") {
      options.perturb_oracle = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) return perfbench::self_test() == 0 ? 0 : 1;
  if (options.work_dir.empty() || options.seconds <= 0) return usage();
  std::filesystem::create_directories(options.work_dir);
  std::error_code ec;
  std::filesystem::remove(
      options.work_dir + "/spans-" + options.workload + ".jsonl", ec);

  perfbench::Report report;
  try {
    if (options.workload == "archive")
      report = perfbench::run_archive(options);
    else if (options.workload == "live-feeds" ||
             options.workload == "live-bigrs")
      report = perfbench::run_live(options);
    else
      return usage();
  } catch (const perfbench::OracleFailure& e) {
    std::fprintf(stderr, "oracle mismatch: %s\n", e.what());
    print_result(false, report, kEndToEnd, {});
    return 1;
  }
  if (report.failed != 0) {
    std::fprintf(stderr, "%llu of %llu operations failed\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
    print_result(false, report, kEndToEnd, {});
    return 1;
  }
  if (!report.valid) {
    std::fprintf(stderr, "invalid run, no latency figures: %s\n",
                 report.invalid_reason.c_str());
    print_result(false, report, kEndToEnd, {});
    return 3;
  }
  if (options.trace)
    print_result(true, report, kPerLayer, report.per_layer);
  else
    print_result(true, report, kEndToEnd, report.end_to_end);
  return 0;
}
