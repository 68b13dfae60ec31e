// Parallel multi-IXP inference pipeline.
//
// The paper's method runs the same passive-extraction -> per-RS
// policy-intersection -> reciprocity chain independently per IXP, an
// embarrassingly parallel shape this orchestrator exploits:
//
//   MRT archives / raw paths / pre-attributed observations   (sources)
//        |  one streaming PassiveExtractor task per source, in parallel;
//        |  batches are pushed mid-decode (mrt::MrtCursor + sink mode),
//        |  so no task ever materializes a whole archive and update
//        |  streams are inferred while they decode
//        v
//   per-IXP ObservationQueue (timestamp-watermark merge, ties by source
//        |  index: deterministic)
//        |  one consumer task per IXP, in parallel
//        v
//   MlpInferenceEngine::add -> active LG survey for uncovered members
//        -> infer_links
//        |
//        v
//   join: global link set, merged PassiveStats/EngineStats, optional
//   IRR reciprocity validation pass
//
// The link sets are byte-identical for any thread count: each IXP's engine
// consumes the stable merge of the per-source observation sequences by
// timestamp, ties in submission order -- the same merge LiveSession runs
// over the same bytes fed as concurrent feeds. Table dumps and raw paths
// carry timestamp 0 (the extractor clock moves only on update records),
// so they merge in submission order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/active.hpp"
#include "core/engine.hpp"
#include "core/passive.hpp"
#include "core/reciprocity.hpp"
#include "core/types.hpp"
#include "lg/lg_server.hpp"

namespace mlp::pipeline {

using bgp::AsLink;
using core::Asn;

struct PipelineConfig {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  /// Observations per queue batch.
  std::size_t batch_size = 256;
  core::PassiveConfig passive;
  core::ActiveConfig active;
  /// Forwarded to MlpInferenceEngine::infer_links.
  bool assume_open_for_unobserved = false;
  /// Keep the per-IXP engines in PipelineResult::engines for downstream
  /// policy queries. Stats-and-links-only callers (the CLI, benchmarks)
  /// can turn this off: each engine then lives and dies inside its
  /// consumer task and the result carries no engine state.
  bool keep_engines = true;
};

/// One decoded path observation (the third-party-LG feed).
struct RawPath {
  bgp::AsPath path;
  bgp::IpPrefix prefix;
  std::vector<bgp::Community> communities;
  core::Source source = core::Source::ThirdPartyLg;
};

/// Per-IXP outcome, aligned with add_ixp order.
struct IxpResult {
  std::string name;
  core::EngineStats stats;
  std::set<AsLink> links;
  /// Members with at least one accepted observation (the engine's sorted
  /// member index), available whether or not engines are kept.
  core::FlatAsnSet observed_members;
  std::size_t active_queries = 0;
  std::size_t rejected_observations = 0;
};

/// Fill `slot` from a fully-fed engine: links, stats, observed members,
/// rejects. Shared by the archive pipeline's consumer tasks and
/// LiveSession::finish so the two products cannot drift.
void fill_ixp_result(IxpResult& slot,
                     const core::MlpInferenceEngine& engine,
                     bool assume_open_for_unobserved);

/// Union of the per-IXP link sets, ascending with no duplicates. Every
/// set is already ascending, so the union merges them as sorted runs
/// (adjacent runs pairwise, O(links * log IXPs)) and drops the repeats:
/// no comparison sort and no node set.
std::vector<AsLink> merge_links(const std::vector<IxpResult>& per_ixp);

struct PipelineResult {
  std::vector<IxpResult> per_ixp;
  /// The engines themselves (policy_of etc. for downstream reports),
  /// aligned with per_ixp. Empty when PipelineConfig::keep_engines is
  /// false.
  std::vector<core::MlpInferenceEngine> engines;
  /// Union of links over every IXP (merge_links): ascending, no
  /// duplicates.
  std::vector<AsLink> all_links;
  /// Passive stats merged over all extraction sources.
  core::PassiveStats passive;
  /// Engine stats summed over all IXPs.
  core::EngineStats totals;
  std::size_t total_active_queries = 0;
  /// Section 4.4 validation, present when an IRR database was attached.
  std::optional<core::ReciprocityReport> reciprocity;
};

/// Orchestrates passive + active inference over many IXPs on a thread
/// pool. Register IXPs and input sources, then call run() exactly once.
class InferencePipeline {
 public:
  explicit InferencePipeline(PipelineConfig config = PipelineConfig{});

  /// Register one IXP. `lg` (optional, non-owning, must outlive run())
  /// enables the active survey for members without passive coverage.
  /// Returns the IXP's index.
  std::size_t add_ixp(core::IxpContext context,
                      lg::LookingGlassServer* lg = nullptr);

  /// Queue a TABLE_DUMP_V2 archive for passive extraction.
  void add_table_dump(std::vector<std::uint8_t> archive);

  /// Zero-copy overload: the pipeline borrows the shared buffer (e.g. one
  /// archive fed to several pipelines, or an mmapped file wrapper).
  void add_table_dump(std::shared_ptr<const std::vector<std::uint8_t>> archive);

  /// Queue a BGP4MP update archive (transient filtering applies).
  void add_update_stream(std::vector<std::uint8_t> archive);

  /// Zero-copy overload of add_update_stream.
  void add_update_stream(
      std::shared_ptr<const std::vector<std::uint8_t>> archive);

  /// Queue already-decoded paths (e.g. gathered from member LGs); they run
  /// through the same attribution machinery as the archives.
  void add_paths(std::vector<RawPath> paths);

  /// Queue pre-attributed observations for one registered IXP, bypassing
  /// extraction (e.g. a route-server RIB read directly).
  void add_observations(const std::string& ixp_name,
                        std::vector<core::Observation> observations);

  /// Relationship oracle for setter case 3 (may stay unset).
  void set_relationships(bgp::RelFn relationships);

  /// Attach an IRR database: run() then ends with a reciprocity
  /// validation pass over every observed member (non-owning).
  void set_irr(const irr::IrrDatabase* database);

  const PipelineConfig& config() const { return config_; }
  std::size_t ixp_count() const { return ixps_.size(); }

  /// Execute the pipeline. Consumes the queued inputs; callable once.
  /// Throws mlp::ParseError if any source fails to decode (the other
  /// sources still drain, so the pipeline never hangs).
  PipelineResult run();

 private:
  struct IxpSlot {
    core::IxpContext context;
    lg::LookingGlassServer* lg = nullptr;
  };

  enum class FeedKind : std::uint8_t {
    TableDump,
    UpdateStream,
    Paths,
    Preattributed,
  };

  struct Feed {
    FeedKind kind = FeedKind::TableDump;
    /// TableDump / UpdateStream bytes, shared so registration is zero-copy.
    std::shared_ptr<const std::vector<std::uint8_t>> archive;
    std::vector<RawPath> paths;              // Paths
    std::size_t target_ixp = 0;              // Preattributed
    std::vector<core::Observation> observations;  // Preattributed
  };

  PipelineConfig config_;
  std::vector<IxpSlot> ixps_;
  std::map<std::string, std::size_t> ixp_index_;
  std::vector<Feed> feeds_;
  bgp::RelFn relationships_;
  const irr::IrrDatabase* irr_ = nullptr;
  bool ran_ = false;
};

}  // namespace mlp::pipeline
