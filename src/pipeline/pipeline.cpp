#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "pipeline/observation_queue.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/annotations.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

InferencePipeline::InferencePipeline(PipelineConfig config)
    : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
}

std::size_t InferencePipeline::add_ixp(core::IxpContext context,
                                       lg::LookingGlassServer* lg) {
  if (ixp_index_.count(context.name))
    throw InvalidArgument("pipeline: duplicate IXP " + context.name);
  const std::size_t index = ixps_.size();
  ixp_index_.emplace(context.name, index);
  ixps_.push_back(IxpSlot{std::move(context), lg});
  return index;
}

void InferencePipeline::add_table_dump(std::vector<std::uint8_t> archive) {
  add_table_dump(std::make_shared<const std::vector<std::uint8_t>>(
      std::move(archive)));
}

void InferencePipeline::add_table_dump(
    std::shared_ptr<const std::vector<std::uint8_t>> archive) {
  Feed feed;
  feed.kind = FeedKind::TableDump;
  feed.archive = std::move(archive);
  feeds_.push_back(std::move(feed));
}

void InferencePipeline::add_update_stream(std::vector<std::uint8_t> archive) {
  add_update_stream(std::make_shared<const std::vector<std::uint8_t>>(
      std::move(archive)));
}

void InferencePipeline::add_update_stream(
    std::shared_ptr<const std::vector<std::uint8_t>> archive) {
  Feed feed;
  feed.kind = FeedKind::UpdateStream;
  feed.archive = std::move(archive);
  feeds_.push_back(std::move(feed));
}

void InferencePipeline::add_paths(std::vector<RawPath> paths) {
  Feed feed;
  feed.kind = FeedKind::Paths;
  feed.paths = std::move(paths);
  feeds_.push_back(std::move(feed));
}

void InferencePipeline::add_observations(
    const std::string& ixp_name,
    std::vector<core::Observation> observations) {
  auto it = ixp_index_.find(ixp_name);
  if (it == ixp_index_.end())
    throw InvalidArgument("pipeline: unknown IXP " + ixp_name);
  Feed feed;
  feed.kind = FeedKind::Preattributed;
  feed.target_ixp = it->second;
  feed.observations = std::move(observations);
  feeds_.push_back(std::move(feed));
}

void InferencePipeline::set_relationships(bgp::RelFn relationships) {
  relationships_ = std::move(relationships);
}

void InferencePipeline::set_irr(const irr::IrrDatabase* database) {
  irr_ = database;
}

void fill_ixp_result(IxpResult& slot,
                     const core::MlpInferenceEngine& engine,
                     bool assume_open_for_unobserved) {
  slot.links = engine.infer_links(assume_open_for_unobserved);
  slot.stats = engine.stats(slot.links.size());
  slot.observed_members = core::FlatAsnSet(engine.observed_members());
  slot.rejected_observations = engine.rejected_observations();
}

std::vector<AsLink> merge_links(const std::vector<IxpResult>& per_ixp) {
  std::size_t total = 0;
  for (const IxpResult& slot : per_ixp) total += slot.links.size();
  std::vector<AsLink> merged;
  merged.reserve(total);
  // Run r of the concatenation is [bounds[r], bounds[r + 1]).
  std::vector<std::size_t> bounds{0};
  for (const IxpResult& slot : per_ixp) {
    if (slot.links.empty()) continue;
    merged.insert(merged.end(), slot.links.begin(), slot.links.end());
    bounds.push_back(merged.size());
  }
  const auto at = [&merged](std::size_t offset) {
    return merged.begin() + static_cast<std::ptrdiff_t>(offset);
  };
  // Merge adjacent runs pairwise until one is left; an odd last run
  // carries over to the next round as is.
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
      if (r + 2 < bounds.size()) {
        std::inplace_merge(at(bounds[r]), at(bounds[r + 1]),
                           at(bounds[r + 2]));
        next.push_back(bounds[r + 2]);
      } else {
        next.push_back(bounds[r + 1]);
      }
    }
    bounds = std::move(next);
  }
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

namespace {

/// Split `observations` into batches of `batch_size` pushed under `source`.
void push_batched(ObservationQueue& queue, std::size_t source,
                  std::vector<core::Observation> observations,
                  std::size_t batch_size) {
  if (observations.empty()) return;
  if (observations.size() <= batch_size) {
    queue.push(source, std::move(observations));
    return;
  }
  std::vector<core::Observation> batch;
  batch.reserve(batch_size);
  for (auto& observation : observations) {
    batch.push_back(std::move(observation));
    if (batch.size() == batch_size) {
      queue.push(source, std::move(batch));
      batch.clear();
      batch.reserve(batch_size);
    }
  }
  // An exact multiple of batch_size leaves nothing behind; don't push a
  // trailing empty batch.
  if (!batch.empty()) queue.push(source, std::move(batch));
}

/// First-error-wins collector shared by every task.
struct ErrorSlot {
  util::Mutex mutex;
  std::string message MLP_GUARDED_BY(mutex);

  void record(const std::string& message_in) MLP_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    if (message.empty()) message = message_in;
  }

  /// The first recorded message (empty when none). Callable after
  /// wait_idle(), but locks anyway: cheap, and keeps the guard honest.
  std::string take() MLP_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    return message;
  }
};

}  // namespace

PipelineResult InferencePipeline::run() {
  if (ran_) throw InvalidArgument("pipeline: run() already executed");
  ran_ = true;

  const std::size_t n_ixps = ixps_.size();
  const std::size_t n_sources = feeds_.size();

  PipelineResult result;
  result.per_ixp.resize(n_ixps);
  if (config_.keep_engines) {
    result.engines.reserve(n_ixps);
    for (const IxpSlot& slot : ixps_)
      result.engines.emplace_back(slot.context);
  }

  std::vector<std::unique_ptr<ObservationQueue>> queues;
  queues.reserve(n_ixps);
  for (std::size_t i = 0; i < n_ixps; ++i)
    queues.push_back(std::make_unique<ObservationQueue>(n_sources));

  std::vector<core::PassiveStats> source_stats(n_sources);
  ErrorSlot error;

  // One immutable context set, and one attribution index over it, shared
  // by every extraction task.
  auto contexts = [this] {
    std::vector<core::IxpContext> out;
    out.reserve(ixps_.size());
    for (const IxpSlot& slot : ixps_) out.push_back(slot.context);
    return std::make_shared<const std::vector<core::IxpContext>>(
        std::move(out));
  }();
  const auto attribution =
      std::make_shared<const core::AttributionIndex>(contexts);

  ThreadPool pool(ThreadPool::resolve(config_.threads));

  // Producers first (FIFO pool => they are never starved by a waiting
  // consumer). Each owns source index `s` in every IXP queue and closes it
  // unconditionally, even on a decode error, so consumers always finish.
  // Extraction runs in streaming mode: the sink pushes each full batch
  // into its IXP's queue mid-decode (the extractor's dense IXP index is
  // the add_ixp registration order, i.e. the queue index), so no task
  // materializes a whole archive. It also raises the source's watermark
  // in that queue, so update streams are inferred while they decode;
  // table dumps and paths stay at timestamp 0 and drain once every
  // source closed.
  for (std::size_t s = 0; s < n_sources; ++s) {
    pool.submit([this, s, attribution, &queues, &source_stats, &error] {
      Feed& feed = feeds_[s];
      try {
        if (feed.kind == FeedKind::Preattributed) {
          push_batched(*queues[feed.target_ixp], s,
                       std::move(feed.observations), config_.batch_size);
        } else {
          core::PassiveExtractor extractor(attribution, relationships_,
                                           config_.passive);
          extractor.set_sink(
              [&queues, s](std::size_t ixp,
                           std::vector<core::Observation>&& batch) {
                // The extractor clock is monotone, so this IXP's later
                // observations from source s carry timestamps at or above
                // the batch's last one: that is s's watermark there.
                const std::uint32_t watermark = batch.back().timestamp;
                queues[ixp]->push(s, std::move(batch));
                queues[ixp]->set_watermark(s, watermark);
              },
              config_.batch_size);
          switch (feed.kind) {
            case FeedKind::TableDump:
              extractor.consume_table_dump(*feed.archive);
              break;
            case FeedKind::UpdateStream:
              extractor.consume_update_stream(*feed.archive);
              break;
            case FeedKind::Paths:
              for (const RawPath& raw : feed.paths)
                extractor.consume_path(raw.path, raw.prefix, raw.communities,
                                       raw.source);
              break;
            case FeedKind::Preattributed:
              break;  // handled above
          }
          extractor.finish();
          source_stats[s] = extractor.stats();
        }
      } catch (const std::exception& e) {
        error.record("source " + std::to_string(s) + ": " + e.what());
      }
      for (auto& queue : queues) queue->close(s);
    });
  }

  // Consumers: one per IXP. Drain the merged queue into the engine,
  // then survey the LG for members passive data did not cover
  // (equation 2), then infer links.
  for (std::size_t i = 0; i < n_ixps; ++i) {
    pool.submit([this, i, &queues, &result, &error] {
      try {
        // Without keep_engines the engine is task-local: it is built,
        // consumed and destroyed here, keeping its (large) teardown off
        // the caller's thread and out of the result.
        std::optional<core::MlpInferenceEngine> local;
        core::MlpInferenceEngine& engine =
            config_.keep_engines ? result.engines[i]
                                 : local.emplace(ixps_[i].context);
        std::set<Asn> covered;
        std::vector<core::Observation> batch;
        while (queues[i]->pop(batch)) {
          for (const core::Observation& observation : batch) {
            covered.insert(observation.setter);
            engine.add(observation);
          }
        }
        IxpResult& slot = result.per_ixp[i];
        slot.name = ixps_[i].context.name;
        if (ixps_[i].lg != nullptr) {
          const auto survey =
              core::run_active_survey(*ixps_[i].lg, config_.active, covered);
          slot.active_queries = survey.queries;
          for (const core::Observation& observation : survey.observations)
            engine.add(observation);
        }
        fill_ixp_result(slot, engine, config_.assume_open_for_unobserved);
      } catch (const std::exception& e) {
        error.record("ixp " + std::to_string(i) + ": " + e.what());
      }
    });
  }

  pool.wait_idle();
  if (const std::string first_error = error.take(); !first_error.empty())
    throw ParseError("pipeline: " + first_error);

  for (const core::PassiveStats& stats : source_stats)
    result.passive += stats;
  for (const IxpResult& slot : result.per_ixp) {
    result.totals += slot.stats;
    result.total_active_queries += slot.active_queries;
  }
  result.all_links = merge_links(result.per_ixp);

  if (irr_ != nullptr) {
    // Concatenate every IXP's contribution once and let the FlatAsnSet
    // constructor sort+unique, instead of re-merging the accumulated set
    // per IXP.
    std::vector<Asn> member_pool;
    std::vector<Asn> peer_pool;
    for (std::size_t i = 0; i < n_ixps; ++i) {
      const auto& observed = result.per_ixp[i].observed_members;
      member_pool.insert(member_pool.end(), observed.begin(),
                         observed.end());
      const auto& rs_members = ixps_[i].context.rs_members;
      peer_pool.insert(peer_pool.end(), rs_members.begin(),
                       rs_members.end());
    }
    result.reciprocity =
        core::check_reciprocity(*irr_, core::FlatAsnSet(std::move(member_pool)),
                                core::FlatAsnSet(std::move(peer_pool)));
  }
  return result;
}

}  // namespace mlp::pipeline
