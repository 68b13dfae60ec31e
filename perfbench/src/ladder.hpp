// The per-layer ladder: the workload's inputs pushed through each layer's
// public functions in chain order on one thread, one span per call. The
// same lane chain, untraced, is the reference that tells the live workloads
// which record emitted each observation.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// One observation as the lane's extractor attributed it.
struct Emitted {
  std::uint32_t ixp = 0;
  /// Index of the unit whose consumption emitted it; the feed's unit
  /// count for observations flushed when the feed closed.
  std::uint32_t unit = 0;
  mlp::core::Observation observation;
};

struct FeedReference {
  std::vector<Emitted> emitted;      // in emission order
  std::vector<std::uint32_t> clock;  // extractor clock after each unit
};

/// Run one feed through framing, decode and attribution (batch size 1).
FeedReference reference_feed(const LiveInputs& in, std::size_t feed);

struct LadderResult {
  std::vector<std::set<mlp::bgp::AsLink>> links;  // per IXP
  /// Per-layer counts, by metric name.
  std::map<std::string, double> counts;
};

/// Live chain: BmpFramer -> MrtFramer -> UpdateDecoder ->
/// PassiveExtractor -> ObservationQueue -> MlpInferenceEngine::add ->
/// freeze, in send order. `flush_every` units flush the partial batches,
/// as the session's checkpoints or snapshots do (0: never).
LadderResult live_ladder(const LiveInputs& in, std::size_t batch_size,
                         std::size_t publish_every_batches,
                         std::size_t flush_every, SpanLog& log);

/// Archive chain: MrtCursor path walk -> infer_relationships -> MrtCursor
/// -> PassiveExtractor -> MlpInferenceEngine::add -> infer_links ->
/// merge_links.
LadderResult archive_ladder(const ArchiveInputs& in, std::size_t batch_size,
                            SpanLog& log);

}  // namespace perfbench
