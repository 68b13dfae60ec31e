// The three workloads. Each returns every end-to-end metric (untraced) or
// every per-layer metric (traced), and throws OracleFailure when the
// program's answers are wrong.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "pipeline/live_session.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, span logs).
  std::string work_dir;
  /// Drop one link from the reference: the oracle must then fail.
  bool perturb_oracle = false;
};

/// Every threaded component of the system under test runs with this
/// many workers.
constexpr std::size_t kThreads = 2;

Report run_archive(const Options& options);
Report run_live(const Options& options);

/// Archive-path reference over the feeds' plain MRT bytes:
/// InferencePipeline with the live session's passive config. Returns the
/// per-IXP link sets and stores the wall time in `seconds`.
std::vector<std::set<mlp::bgp::AsLink>> archive_reference(
    const LiveInputs& in, double& seconds);

/// Compare per-IXP link sets; throws OracleFailure naming the first
/// mismatch.
void check_links(const std::vector<std::set<mlp::bgp::AsLink>>& expected,
                 const std::vector<std::set<mlp::bgp::AsLink>>& actual,
                 const std::string& what);

/// The live session configuration every run uses.
mlp::pipeline::LiveConfig session_config(const LiveInputs& in);

/// Register the inputs' feeds, in order, on a fresh session.
std::vector<mlp::pipeline::FeedHandle> wire(mlp::pipeline::LiveSession& session,
                                            const LiveInputs& in);

std::span<const std::uint8_t> unit_bytes(const LiveInputs& in,
                                         const Send& send);

/// Per-IXP link sets of a finished live session (moved out of it).
std::vector<std::set<mlp::bgp::AsLink>> links_of(
    mlp::pipeline::LiveResult result);

}  // namespace perfbench
