#include "ladder.hpp"

#include <memory>
#include <optional>

#include "core/engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/passive.hpp"
#include "mrt/cursor.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/pipeline.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"

namespace perfbench {

using namespace mlp;

namespace {

using Batches = std::vector<std::pair<std::size_t, std::vector<core::Observation>>>;

/// Span name ids of the ladder's layers.
struct Names {
  explicit Names(SpanLog& log)
      : bmp(log.intern("stream.bmp")),
        framer(log.intern("stream.framer")),
        decoder(log.intern("stream.decoder")),
        passive(log.intern("core.passive")),
        queue(log.intern("pipeline.queue")),
        engine(log.intern("core.engine")),
        snapshot(log.intern("core.snapshot")),
        links(log.intern("core.links")),
        cursor(log.intern("mrt.cursor")),
        rel(log.intern("topology.rel")) {}
  std::uint32_t bmp, framer, decoder, passive, queue, engine, snapshot, links,
      cursor, rel;
};

/// One feed's lane: the chain LiveSession::lane_feed runs, call by call.
class LaneChain {
 public:
  LaneChain(const FeedInput& feed,
            std::shared_ptr<const std::vector<core::IxpContext>> ixps,
            bgp::RelFn rels, const core::PassiveConfig& passive,
            std::size_t batch_size, SpanLog& log, const Names& names)
      : feed_(feed),
        extractor_(std::move(ixps), std::move(rels), passive),
        log_(log),
        names_(names) {
    if (feed.transport == pipeline::Transport::Bmp) bmp_.emplace();
    extractor_.set_sink(
        [this](std::size_t ixp, std::vector<core::Observation>&& batch) {
          out_->emplace_back(ixp, std::move(batch));
        },
        batch_size);
  }

  void feed_unit(std::size_t unit, Batches& out) {
    out_ = &out;
    const Unit& u = feed_.units[unit];
    const std::span<const std::uint8_t> chunk(feed_.bytes.data() + u.offset,
                                              u.length);
    if (!bmp_) {
      frame(chunk);
      return;
    }
    {
      ScopedSpan span(log_, names_.bmp);
      bmp_->feed(chunk);
    }
    for (;;) {
      std::optional<stream::BmpEvent> event;
      {
        ScopedSpan span(log_, names_.bmp);
        event = bmp_->next();
      }
      if (!event) break;
      if (event->kind == stream::BmpEvent::Kind::Update) {
        frame(event->record);
      } else {
        ScopedSpan span(log_, names_.passive);
        extractor_.peer_session_reset(event->peer.asn, event->peer.timestamp);
      }
    }
  }

  void flush(Batches& out) {
    out_ = &out;
    ScopedSpan span(log_, names_.passive);
    extractor_.flush_batches();
  }
  void finish(Batches& out) {
    out_ = &out;
    ScopedSpan span(log_, names_.passive);
    extractor_.finish();
  }

  std::uint32_t clock() const { return extractor_.stream_time(); }
  const core::PassiveStats& stats() const { return extractor_.stats(); }
  std::uint64_t bmp_messages() const { return bmp_ ? bmp_->messages() : 0; }
  std::uint64_t framed_bytes() const { return framer_.bytes_fed(); }
  std::uint64_t updates() const { return updates_; }

 private:
  void frame(std::span<const std::uint8_t> bytes) {
    {
      ScopedSpan span(log_, names_.framer);
      framer_.feed(bytes);
    }
    for (;;) {
      std::optional<std::span<const std::uint8_t>> record;
      {
        ScopedSpan span(log_, names_.framer);
        record = framer_.next();
      }
      if (!record) break;
      const stream::UpdateRecordView* view = nullptr;
      {
        ScopedSpan span(log_, names_.decoder);
        view = decoder_.decode(*record);
      }
      if (view == nullptr) continue;
      ++updates_;
      ScopedSpan span(log_, names_.passive);
      extractor_.consume_update(view->timestamp, view->peer_asn,
                                *view->update);
    }
  }

  const FeedInput& feed_;
  std::optional<stream::BmpFramer> bmp_;
  stream::MrtFramer framer_;
  stream::UpdateDecoder decoder_;
  core::PassiveExtractor extractor_;
  SpanLog& log_;
  const Names& names_;
  Batches* out_ = nullptr;
  std::uint64_t updates_ = 0;
};

std::shared_ptr<const std::vector<core::IxpContext>> share(
    const std::vector<core::IxpContext>& ixps) {
  return std::make_shared<const std::vector<core::IxpContext>>(ixps);
}

/// Per-IXP queue + engine + publish bookkeeping of the ladder, mirroring
/// LiveSession's pump: drain everything ready, publish every
/// `publish_every` batches and once the drain run settles, skipping a
/// publish whose generation did not move.
struct Shard {
  Shard(const core::IxpContext& context, std::size_t sources)
      : queue(sources, pipeline::MergePolicy::Watermark), engine(context) {}
  pipeline::ObservationQueue queue;
  core::MlpInferenceEngine engine;
  std::uint64_t published_generation = 0;
  std::uint64_t epoch = 0;
  std::size_t since_publish = 0;
};

struct ShardCounters {
  std::uint64_t batches = 0, adds = 0, accepted = 0, freezes = 0,
                publishes = 0, copied = 0, backlog_peak = 0;
};

}  // namespace

FeedReference reference_feed(const LiveInputs& in, std::size_t feed) {
  SpanLog off(false);
  const Names names(off);
  const FeedInput& input = in.feeds[feed];
  LaneChain lane(input, share(in.ixps), in.rel_fn(), in.passive, 1, off,
                 names);
  FeedReference ref;
  Batches out;
  auto collect = [&](std::uint32_t unit) {
    for (auto& [ixp, batch] : out)
      for (auto& o : batch)
        ref.emitted.push_back(
            Emitted{static_cast<std::uint32_t>(ixp), unit, std::move(o)});
    out.clear();
  };
  for (std::uint32_t u = 0; u < input.units.size(); ++u) {
    lane.feed_unit(u, out);
    collect(u);
    ref.clock.push_back(lane.clock());
  }
  lane.finish(out);
  collect(static_cast<std::uint32_t>(input.units.size()));
  return ref;
}

LadderResult live_ladder(const LiveInputs& in, std::size_t batch_size,
                         std::size_t publish_every_batches,
                         std::size_t flush_every, SpanLog& log) {
  const Names names(log);
  const auto contexts = share(in.ixps);
  std::vector<std::unique_ptr<LaneChain>> lanes;
  for (const auto& feed : in.feeds)
    lanes.push_back(std::make_unique<LaneChain>(
        feed, contexts, in.rel_fn(), in.passive, batch_size, log, names));
  std::vector<std::unique_ptr<Shard>> shards;
  for (const auto& context : in.ixps)
    shards.push_back(std::make_unique<Shard>(context, in.feeds.size()));
  ShardCounters n;

  auto publish = [&](Shard& shard) {
    ++n.publishes;
    shard.since_publish = 0;
    if (shard.epoch != 0 &&
        shard.engine.generation() == shard.published_generation)
      return;
    ScopedSpan span(log, names.snapshot);
    const auto snap = shard.engine.freeze(false, ++shard.epoch);
    shard.published_generation = shard.engine.generation();
    ++n.freezes;
    const std::size_t members = snap->participants().size();
    n.copied += 8 * members * ((members + 63) / 64);
  };
  for (auto& shard : shards) publish(*shard);
  // One pump run: drain everything ready, publishing on the cadence and
  // once the run settles.
  auto pump = [&](Shard& shard) {
    std::vector<core::Observation> batch;
    for (;;) {
      {
        ScopedSpan span(log, names.queue);
        if (!shard.queue.try_pop(batch)) break;
      }
      const std::uint64_t before = shard.engine.generation();
      for (const auto& observation : batch) {
        ScopedSpan span(log, names.engine);
        shard.engine.add(observation);
      }
      n.adds += batch.size();
      n.accepted += shard.engine.generation() - before;
      if (publish_every_batches != 0 &&
          ++shard.since_publish >= publish_every_batches)
        publish(shard);
    }
    publish(shard);
  };
  std::vector<bool> touched(shards.size(), false);
  auto push = [&](std::size_t feed, Batches& out) {
    for (auto& [ixp, batch] : out) {
      ScopedSpan span(log, names.queue);
      shards[ixp]->queue.push(feed, std::move(batch));
      ++n.batches;
      touched[ixp] = true;
    }
    out.clear();
    std::uint64_t depth = 0;
    for (auto& shard : shards) depth += shard->queue.depth();
    n.backlog_peak = std::max(n.backlog_peak, depth);
  };
  // A lane publishes its clock as its watermark when it moved; every
  // shard then gets a pump, as do shards that received a batch.
  std::vector<std::uint32_t> published(lanes.size(), 0);
  auto settle = [&](std::size_t feed) {
    if (lanes[feed]->clock() > published[feed]) {
      published[feed] = lanes[feed]->clock();
      for (std::size_t i = 0; i < shards.size(); ++i) {
        ScopedSpan span(log, names.queue);
        shards[i]->queue.set_watermark(feed, published[feed]);
        touched[i] = true;
      }
    }
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (!touched[i]) continue;
      touched[i] = false;
      pump(*shards[i]);
    }
  };

  Batches out;
  for (std::size_t j = 0; j < in.schedule.size(); ++j) {
    const Send& send = in.schedule[j];
    lanes[send.feed]->feed_unit(send.unit, out);
    push(send.feed, out);
    settle(send.feed);
    if (flush_every != 0 && (j + 1) % flush_every == 0) {
      for (std::size_t f = 0; f < lanes.size(); ++f) {
        lanes[f]->flush(out);
        push(f, out);
      }
      for (auto& shard : shards) pump(*shard);
      std::fill(touched.begin(), touched.end(), false);
    }
  }
  for (std::size_t f = 0; f < lanes.size(); ++f) {
    lanes[f]->finish(out);
    push(f, out);
    for (auto& shard : shards) {
      ScopedSpan span(log, names.queue);
      shard->queue.close(f);
    }
  }
  LadderResult result;
  for (auto& shard : shards) {
    pump(*shard);
    ScopedSpan span(log, names.links);
    result.links.push_back(shard->engine.infer_links());
  }

  double records = 0, observations = 0, bmp = 0, bytes = 0, updates = 0;
  for (const auto& lane : lanes) {
    observations += static_cast<double>(lane->stats().observations);
    bmp += static_cast<double>(lane->bmp_messages());
    bytes += static_cast<double>(lane->framed_bytes());
    updates += static_cast<double>(lane->updates());
  }
  records = static_cast<double>(in.records);
  auto& c = result.counts;
  c["stream.bmp.messages"] = bmp;
  c["stream.framer.bytes"] = bytes;
  c["stream.decoder.updates"] = updates;
  c["core.passive.observations"] = observations;
  c["core.passive.yield"] = records > 0 ? observations / records : 0;
  c["pipeline.queue.batches"] = static_cast<double>(n.batches);
  c["pipeline.queue.backlog_peak"] = static_cast<double>(n.backlog_peak);
  c["core.engine.adds"] = static_cast<double>(n.adds);
  c["core.engine.accept_ratio"] =
      n.adds > 0 ? static_cast<double>(n.accepted) / static_cast<double>(n.adds)
                 : 0;
  c["core.snapshot.freezes"] = static_cast<double>(n.freezes);
  c["core.snapshot.copied_B"] = static_cast<double>(n.copied);
  c["core.snapshot.fresh_ratio"] =
      n.publishes > 0 ? static_cast<double>(n.freezes) /
                            static_cast<double>(n.publishes)
                      : 0;
  std::size_t link_count = 0;
  for (const auto& links : result.links) link_count += links.size();
  c["core.links.count"] = static_cast<double>(link_count);
  return result;
}

LadderResult archive_ladder(const ArchiveInputs& in, std::size_t batch_size,
                            SpanLog& log) {
  const Names names(log);
  double entries = 0;
  std::vector<bgp::AsPath> paths;
  for (const auto& dump : in.dumps) {
    mrt::MrtCursor cursor(*dump);
    for (;;) {
      mrt::MrtCursor::Event event;
      {
        ScopedSpan span(log, names.cursor);
        event = cursor.next();
      }
      if (event == mrt::MrtCursor::Event::End) break;
      if (event != mrt::MrtCursor::Event::RibEntry) continue;
      paths.push_back(cursor.rib_entry().attrs->as_path);
    }
  }
  topology::InferredRelationships rels;
  {
    ScopedSpan span(log, names.rel);
    rels = topology::infer_relationships(paths);
  }
  const auto contexts = share(in.ixps);
  std::vector<core::MlpInferenceEngine> engines;
  for (const auto& context : in.ixps) engines.emplace_back(context);
  std::uint64_t adds = 0, accepted = 0, observations = 0;
  for (const auto& dump : in.dumps) {
    core::PassiveExtractor extractor(contexts, rels.rel_fn());
    extractor.set_sink(
        [&](std::size_t ixp, std::vector<core::Observation>&& batch) {
          auto& engine = engines[ixp];
          const std::uint64_t before = engine.generation();
          for (const auto& observation : batch) {
            ScopedSpan span(log, names.engine);
            engine.add(observation);
          }
          adds += batch.size();
          accepted += engine.generation() - before;
        },
        batch_size);
    mrt::MrtCursor cursor(*dump);
    for (;;) {
      mrt::MrtCursor::Event event;
      {
        ScopedSpan span(log, names.cursor);
        event = cursor.next();
      }
      if (event == mrt::MrtCursor::Event::End) break;
      if (event != mrt::MrtCursor::Event::RibEntry) continue;
      ++entries;
      const mrt::RibEntryView& entry = cursor.rib_entry();
      ScopedSpan span(log, names.passive);
      extractor.consume_path(entry.attrs->as_path, *entry.prefix,
                             entry.attrs->communities, core::Source::Passive);
    }
    {
      ScopedSpan span(log, names.passive);
      extractor.finish();
    }
    observations += extractor.stats().observations;
  }
  LadderResult result;
  std::vector<pipeline::IxpResult> per_ixp(engines.size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    ScopedSpan span(log, names.links);
    per_ixp[i].links = engines[i].infer_links();
    result.links.push_back(per_ixp[i].links);
  }
  std::size_t unique = 0;
  {
    ScopedSpan span(log, names.links);
    unique = pipeline::merge_links(per_ixp).size();
  }
  auto& c = result.counts;
  c["mrt.cursor.entries"] = entries;
  c["core.passive.observations"] = static_cast<double>(observations);
  c["core.passive.yield"] =
      entries > 0 ? static_cast<double>(observations) / entries : 0;
  c["core.engine.adds"] = static_cast<double>(adds);
  c["core.engine.accept_ratio"] =
      adds > 0 ? static_cast<double>(accepted) / static_cast<double>(adds) : 0;
  c["core.links.count"] = static_cast<double>(unique);
  return result;
}

}  // namespace perfbench
