#include "pipeline/live_session.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/state_codec.hpp"
#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

namespace {

std::shared_ptr<const std::vector<core::IxpContext>> share(
    std::vector<core::IxpContext> ixps) {
  return std::make_shared<const std::vector<core::IxpContext>>(
      std::move(ixps));
}

}  // namespace

// ------------------------------------------------------------ FeedHandle

void FeedHandle::feed(std::span<const std::uint8_t> chunk) {
  if (!session_) throw InvalidArgument("feed handle: not attached");
  LiveSession::Lane& target = session_->lane(index_);
  target.last_activity_ms.store(session_->clock_->now_ms(),
                                std::memory_order_relaxed);
  session_->supervise_stalls();
  util::MutexLock lock(target.mutex);
  if (target.closed)
    throw InvalidArgument("live session: feed() on closed feed " +
                          target.name);
  // A Dead lane's transport may keep delivering (the reader loop has not
  // noticed yet): drop the bytes at the door instead of throwing, so
  // graceful degradation does not turn into reader-thread crashes.
  if (!target.supervisor.ingesting()) {
    target.bytes_discarded += chunk.size();
    return;
  }
  try {
    session_->lane_feed(target, chunk);
  } catch (...) {
    // An exception escaping mid-ingest (strict-mode ParseError, queue
    // failure) leaves the lane's framing state untrustworthy AND is about
    // to unwind the reader: make sure the close sentinels publish so the
    // other feeds' merge frontier never waits on this lane.
    session_->fail_locked(target, "ingest error (" + target.name + ")");
    throw;
  }
}

std::uint64_t FeedHandle::drain(stream::StreamSource& source) {
  if (!session_) throw InvalidArgument("feed handle: not attached");
  std::vector<std::uint8_t> buffer(
      std::max<std::size_t>(1, session_->config_.read_chunk));
  std::uint64_t total = 0;
  for (;;) {
    const std::size_t n = source.read(buffer);
    if (n == 0) break;
    total += n;
    feed(std::span<const std::uint8_t>(buffer.data(), n));
  }
  return total;
}

void FeedHandle::note_disconnect() {
  if (!session_) throw InvalidArgument("feed handle: not attached");
  LiveSession::Lane& target = session_->lane(index_);
  util::MutexLock lock(target.mutex);
  std::size_t dropped = target.framer.reset();
  if (target.bmp) dropped += target.bmp->reset();
  const bool dirty = dropped > 0;
  if (dirty) {
    ++target.dirty_disconnects;
    ++target.partial_records_dropped;
  } else {
    ++target.clean_disconnects;
  }
  const FeedHealth before = target.supervisor.health();
  session_->apply_supervision(target, target.supervisor.note_disconnect(dirty),
                              before);
}

void FeedHandle::fail(const std::string& reason) {
  if (!session_) throw InvalidArgument("feed handle: not attached");
  LiveSession::Lane& target = session_->lane(index_);
  util::MutexLock lock(target.mutex);
  session_->fail_locked(target, reason);
}

void FeedHandle::close() {
  if (!session_) throw InvalidArgument("feed handle: not attached");
  LiveSession::Lane& target = session_->lane(index_);
  util::MutexLock lock(target.mutex);
  session_->close_locked(target, index_);
}

// ----------------------------------------------------------- LiveSession

LiveSession::LiveSession(LiveConfig config,
                         std::vector<core::IxpContext> ixps,
                         bgp::RelFn relationships)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : stream::system_clock()),
      contexts_(share(std::move(ixps))),
      attribution_(std::make_shared<const core::AttributionIndex>(contexts_)),
      relationships_(std::move(relationships)),
      pool_(ThreadPool::resolve(config_.threads)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  shards_.reserve(contexts_->size());
  for (const core::IxpContext& context : *contexts_)
    shards_.push_back(std::make_unique<Shard>(context));
  // Publish epoch 1 (the empty state) per shard before any feed can
  // exist: epoch readers never observe a null snapshot.
  for (std::size_t i = 0; i < shards_.size(); ++i) publish_epoch(i);
}

FeedHandle LiveSession::add_feed(FeedOptions options) {
  util::MutexLock lock(feeds_mutex_);
  if (finished_.load(std::memory_order_acquire))
    throw InvalidArgument("live session: add_feed() after finish()");
  const std::size_t index = feeds_.size();
  // Queue source slots stay in lockstep with feed indices: every shard
  // grows exactly one source per add_feed, under the same lock.
  for (auto& shard : shards_) shard->queue.add_source();
  auto lane = std::make_unique<Lane>(this, attribution_, relationships_,
                                     config_.passive);
  // The sink runs under the lane mutex (extractor calls happen there) but
  // NOT under feeds_mutex_, and feeds_ may reallocate concurrently: hold
  // the lane by its stable address, never through feeds_[index].
  Lane* raw = lane.get();
  {
    // The lane is still private to this thread, but its guarded members
    // are initialized here; holding the (uncontended) lane mutex keeps
    // the analysis exact. feeds_mutex_ -> lane mutex is the documented
    // order.
    util::MutexLock init_lock(raw->mutex);
    raw->name = options.name.empty() ? "feed" + std::to_string(index)
                                     : options.name;
    raw->index = index;
    raw->framer = stream::MrtFramer(config_.framing);
    if (options.transport == Transport::Bmp)
      raw->bmp.emplace(options.bmp_framing);
    const std::uint64_t now = clock_->now_ms();
    raw->last_activity_ms.store(now, std::memory_order_relaxed);
    raw->supervisor = FeedSupervisor(config_.supervision);
    raw->supervisor.note_activity(now);
    raw->extractor.set_sink(
        [this, index, raw](std::size_t ixp,
                           std::vector<core::Observation>&& batch) {
          // The extractor only emits from calls made under the lane
          // mutex (lane_feed/close_locked/stop-the-world flushes); the
          // analysis cannot see through the std::function boundary, so
          // re-assert that contract here.
          raw->mutex.assert_held();
          // A lane that is not merging (Quarantined/Dead) keeps
          // extracting -- its announce-window must track the stream for
          // a potential readmission -- but its output is discarded, not
          // queued.
          if (!raw->supervisor.merging()) {
            raw->observations_discarded += batch.size();
            return;
          }
          shards_[ixp]->queue.push(index, std::move(batch));
          schedule_pump(ixp);
        },
        config_.batch_size);
  }
  feeds_.push_back(std::move(lane));
  return FeedHandle(this, index);
}

LiveSession::Lane& LiveSession::lane(std::size_t index) {
  util::MutexLock lock(feeds_mutex_);
  if (index >= feeds_.size())
    throw InvalidArgument("live session: bad feed index");
  return *feeds_[index];
}

// A lock set whose size is only known at run time cannot be modelled by
// the thread-safety analysis (hence NO_THREAD_SAFETY_ANALYSIS on the
// declarations); correctness rests on the fixed acquisition order (feed
// order, stable while feeds_mutex_ is held) plus the per-lane
// assert_held() calls at every use site.
LiveSession::LaneLockSet::LaneLockSet(
    const std::vector<std::unique_ptr<Lane>>& lanes) {
  locked_.reserve(lanes.size());
  for (const auto& lane : lanes) {
    lane->mutex.lock();
    locked_.push_back(lane.get());
  }
}

LiveSession::LaneLockSet::~LaneLockSet() {
  for (auto it = locked_.rbegin(); it != locked_.rend(); ++it)
    (*it)->mutex.unlock();
}

void LiveSession::pump(std::size_t index) {
  Shard& shard = *shards_[index];
  std::vector<core::Observation> batch;
  for (;;) {
    while (shard.queue.try_pop(batch)) {
      for (const core::Observation& observation : batch)
        shard.engine.add(observation);
      // Mid-run publish cadence: bound reader staleness even while a
      // deep backlog drains.
      if (config_.publish_every_batches != 0 &&
          ++shard.batches_since_publish >= config_.publish_every_batches)
        publish_epoch(index);
    }
    // The drain run settled (the merge frontier is exhausted): publish
    // INSIDE the ownership window -- after the store(false) below a
    // successor pump may own the engine.
    publish_epoch(index);
    shard.pump_scheduled.store(false, std::memory_order_release);
    if (!shard.queue.has_ready()) return;
    // A push raced in after the drain: reclaim sole ownership unless the
    // producer already scheduled a successor pump.
    if (shard.pump_scheduled.exchange(true, std::memory_order_acq_rel))
      return;
  }
}

void LiveSession::schedule_pump(std::size_t index) {
  Shard& shard = *shards_[index];
  if (!shard.pump_scheduled.exchange(true, std::memory_order_acq_rel))
    pool_.submit([this, index] { pump(index); });
}

void LiveSession::publish_epoch(std::size_t index) {
  Shard& shard = *shards_[index];
  shard.batches_since_publish = 0;
  const std::uint64_t generation = shard.engine.generation();
  // Re-publishing an unchanged generation would be a copy for nothing:
  // the current epoch already describes this exact state.
  if (shard.epochs_published.load(std::memory_order_relaxed) != 0 &&
      generation == shard.last_published_generation)
    return;
  const std::uint64_t epoch =
      shard.epochs_published.load(std::memory_order_relaxed) + 1;
  shard.published.store(
      shard.engine.freeze(config_.assume_open_for_unobserved, epoch),
      std::memory_order_release);
  shard.epochs_published.store(epoch, std::memory_order_release);
  shard.last_published_generation = generation;
}

std::shared_ptr<const core::EngineSnapshot> LiveSession::epoch_snapshot(
    std::size_t index) const {
  if (index >= shards_.size())
    throw InvalidArgument("live session: bad IXP index");
  return shards_[index]->published.load(std::memory_order_acquire);
}

std::shared_ptr<const core::EngineSnapshot> LiveSession::epoch_snapshot(
    const std::string& ixp) const {
  return epoch_snapshot(ixp_index(ixp));
}

std::size_t LiveSession::ixp_index(const std::string& ixp) const {
  // contexts_ is immutable after construction, so the name scan needs no
  // lock.
  for (std::size_t i = 0; i < contexts_->size(); ++i)
    if ((*contexts_)[i].name == ixp) return i;
  throw InvalidArgument("live session: unknown IXP \"" + ixp + "\"");
}

std::uint32_t LiveSession::merge_frontier(std::size_t index) const {
  if (index >= shards_.size())
    throw InvalidArgument("live session: bad IXP index");
  return shards_[index]->queue.min_watermark();
}

std::size_t LiveSession::merge_backlog(std::size_t index) const {
  if (index >= shards_.size())
    throw InvalidArgument("live session: bad IXP index");
  return shards_[index]->queue.depth();
}

std::vector<std::shared_ptr<const core::EngineSnapshot>>
LiveSession::epoch_snapshots() const {
  std::vector<std::shared_ptr<const core::EngineSnapshot>> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    out.push_back(epoch_snapshot(i));
  return out;
}

void LiveSession::publish_watermark(Lane& target) {
  const std::uint32_t clock = target.extractor.stream_time();
  if (clock <= target.watermark_published) return;
  // The extractor's partial batches hold observations stamped below
  // `clock`; push them before promising the merge that nothing below
  // `clock` follows, or a pump could drain another feed's later
  // observations ahead of them.
  target.extractor.flush_batches();
  target.watermark_published = clock;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_[shard]->queue.set_watermark(target.index, clock);
    // Raising this lane's watermark can lift the merge frontier past
    // other lanes' queued observations; make sure a pump notices.
    schedule_pump(shard);
  }
}

void LiveSession::supervise_stalls() {
  if (!config_.supervision.enabled || config_.supervision.stall_timeout_ms == 0)
    return;
  util::MutexLock lock(feeds_mutex_);
  supervise_stalls_locked();
}

void LiveSession::supervise_stalls_locked() {
  if (!config_.supervision.enabled || config_.supervision.stall_timeout_ms == 0)
    return;
  const std::uint64_t now = clock_->now_ms();
  for (auto& lane : feeds_) {
    // Lock-free pre-check: only a lane whose activity stamp is actually
    // stale pays for its mutex, so the common all-healthy sweep is a few
    // relaxed loads per feed.
    const std::uint64_t last =
        lane->last_activity_ms.load(std::memory_order_relaxed);
    if (now <= last || now - last < config_.supervision.stall_timeout_ms)
      continue;
    Lane& target = *lane;
    util::MutexLock lane_lock(target.mutex);
    if (target.closed) continue;
    target.supervisor.note_activity(last);
    const FeedHealth before = target.supervisor.health();
    apply_supervision(target, target.supervisor.check_stall(now), before);
  }
}

void LiveSession::record_outcome(Lane& target, bool malformed) {
  const FeedHealth before = target.supervisor.health();
  apply_supervision(target, target.supervisor.note_record(malformed), before);
}

void LiveSession::fail_locked(Lane& target, const std::string& reason) {
  const FeedHealth before = target.supervisor.health();
  // Everything extracted while the lane merged was judged trustworthy at
  // the time: flush its announce-window and watermark BEFORE the Dead
  // transition, so a feed that dies at end of stream (the common
  // reconnect-exhaustion shape) keeps its contribution. A lane already
  // quarantined gets no such flush -- its window is suspect.
  if (target.supervisor.merging() && !target.closed) {
    target.extractor.finish();
    publish_watermark(target);
  }
  apply_supervision(target, target.supervisor.note_fatal(reason), before);
}

void LiveSession::apply_supervision(Lane& target,
                                    FeedSupervisor::Action action,
                                    FeedHealth before) {
  switch (action) {
    case FeedSupervisor::Action::None:
      break;
    case FeedSupervisor::Action::Quarantine:
    case FeedSupervisor::Action::Die:
      if (!target.queues_closed) {
        target.queues_closed = true;
        for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
          // The close sentinel: the lane stops constraining the frontier,
          // and its already-queued observations become drainable.
          shards_[shard]->queue.close(target.index);
          schedule_pump(shard);
        }
      }
      break;
    case FeedSupervisor::Action::Readmit:
      // Never resurrect a user-closed feed; readmission is only for
      // supervision's own sentinels.
      if (target.queues_closed && !target.closed) {
        target.queues_closed = false;
        for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
          shards_[shard]->queue.reopen(target.index);
          schedule_pump(shard);
        }
      }
      break;
  }
  const FeedHealth after = target.supervisor.health();
  if (after == before || !config_.on_health_change) return;
  HealthChange change;
  change.feed = target.index;
  change.name = target.name;
  change.from = before;
  change.to = after;
  const auto& transitions = target.supervisor.transitions();
  if (target.supervisor.transition_count() == transitions.size() &&
      !transitions.empty())
    change.reason = transitions.back().reason;
  config_.on_health_change(change);
}

void LiveSession::drain_framer(Lane& target) {
  for (;;) {
    std::span<const std::uint8_t> record;
    try {
      const auto framed = target.framer.next();
      if (!framed) break;  // mid-record: wait for more bytes
      record = *framed;
    } catch (const ParseError&) {  // absurd length field
      if (!config_.passive.tolerate_malformed) throw;
      target.extractor.note_malformed_record();
      record_outcome(target, /*malformed=*/true);
      if (target.bmp) {
        // The buffer holds exactly the one synthesized record that blew
        // the cap (BMP lanes feed record-by-record): drop it whole. A
        // resync scan could anchor inside the dropped record's bytes.
        target.framer.reset();
        break;
      }
      target.framer.resync();
      continue;
    }
    try {
      const stream::UpdateRecordView* view = target.decoder.decode(record);
      if (view != nullptr)
        target.extractor.consume_update(view->timestamp, view->peer_asn,
                                        *view->update);
      // A stepped-over non-update record framed and decoded fine: it
      // counts as a clean outcome for the health window.
      record_outcome(target, /*malformed=*/false);
    } catch (const ParseError& e) {
      if (!config_.passive.tolerate_malformed)
        throw ParseError(std::string(e.what()) + " (" + target.name +
                         ", record at stream offset " +
                         std::to_string(target.framer.last_record_offset()) +
                         ")");
      target.extractor.note_malformed_record();
      record_outcome(target, /*malformed=*/true);
      // A raw MRT stream needs a scan for the next plausible header; a
      // BMP lane's record boundaries come from BMP framing and stay
      // trusted, so the bad record is simply dropped.
      if (!target.bmp) target.framer.resync();
    }
  }
}

void LiveSession::lane_feed(Lane& target, std::span<const std::uint8_t> chunk) {
  if (finished_.load(std::memory_order_acquire))
    throw InvalidArgument("live session: feed() after finish()");
  if (!target.bmp) {
    target.framer.feed(chunk);
    drain_framer(target);
    target.records_framed.store(target.framer.records(),
                                std::memory_order_relaxed);
    publish_watermark(target);
    return;
  }
  // BMP transport: unwrap Route Monitoring messages into synthesized
  // BGP4MP records in front of the framer, and apply PeerUp/PeerDown
  // session boundaries to the lane's extractor. Feeding record-by-record
  // and draining immediately keeps the MRT layer's buffer at one record.
  target.bmp->feed(chunk);
  for (;;) {
    std::optional<stream::BmpEvent> event;
    try {
      event = target.bmp->next();
    } catch (const ParseError& e) {
      if (!config_.passive.tolerate_malformed)
        throw ParseError(std::string(e.what()) + " (" + target.name + ")");
      target.extractor.note_malformed_record();
      record_outcome(target, /*malformed=*/true);
      target.bmp->resync();
      continue;
    }
    if (!event) break;
    switch (event->kind) {
      case stream::BmpEvent::Kind::Update:
        target.framer.feed(event->record);
        drain_framer(target);
        break;
      case stream::BmpEvent::Kind::PeerUp:
      case stream::BmpEvent::Kind::PeerDown:
        // Both are session boundaries for the peer: a PeerDown ends the
        // session outright, a PeerUp implies any previous session died
        // without one (state from it must not linger).
        target.extractor.peer_session_reset(event->peer.asn,
                                            event->peer.timestamp);
        break;
    }
  }
  target.records_framed.store(target.framer.records(),
                              std::memory_order_relaxed);
  publish_watermark(target);
}

void LiveSession::close_locked(Lane& target, std::size_t index) {
  if (target.closed) return;
  target.extractor.finish();  // flush announce-window + partial batches
  publish_watermark(target);
  target.closed = true;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_[shard]->queue.close(index);
    // Closing a source can unblock buffered observations (it stops
    // constraining the watermark); make sure a pump notices.
    schedule_pump(shard);
  }
}

void LiveSession::feed(std::span<const std::uint8_t> chunk) {
  if (finished_.load(std::memory_order_acquire))
    throw InvalidArgument("live session: feed() after finish()");
  if (feed_count() == 0) add_feed();
  FeedHandle(this, 0).feed(chunk);
}

std::uint64_t LiveSession::drain(stream::StreamSource& source) {
  if (feed_count() == 0) add_feed();
  return FeedHandle(this, 0).drain(source);
}

std::size_t LiveSession::feed_count() {
  util::MutexLock lock(feeds_mutex_);
  return feeds_.size();
}

std::uint64_t LiveSession::records() {
  // Published counters, no lane mutexes: a feeder mid-chunk never blocks
  // the pacing thread (and vice versa).
  util::MutexLock lock(feeds_mutex_);
  std::uint64_t total = 0;
  for (auto& lane : feeds_)
    total += lane->records_framed.load(std::memory_order_relaxed);
  return total;
}

FeedStats LiveSession::lane_stats(Lane& target) const {
  FeedStats stats;
  stats.name = target.name;
  stats.bytes_fed =
      target.bmp ? target.bmp->bytes_fed() : target.framer.bytes_fed();
  stats.records = target.framer.records();
  stats.records_skipped = target.decoder.skipped();
  if (target.bmp) {
    stats.bmp_messages = target.bmp->messages();
    stats.bmp_skipped = target.bmp->skipped();
    stats.bmp_peer_ups = target.bmp->peer_ups();
    stats.bmp_peer_downs = target.bmp->peer_downs();
  }
  stats.clean_disconnects = target.clean_disconnects;
  stats.dirty_disconnects = target.dirty_disconnects;
  stats.partial_records_dropped = target.partial_records_dropped;
  stats.watermark = target.extractor.stream_time();
  // Lane mutex -> queue mutex is the sink push path's order, so reading
  // the depth here composes with concurrent feeders.
  for (const auto& shard : shards_)
    stats.queue_depth += shard->queue.depth(target.index);
  stats.closed = target.closed;
  stats.passive = target.extractor.stats();
  stats.health = target.supervisor.health();
  stats.health_transitions = target.supervisor.transition_count();
  stats.times_quarantined = target.supervisor.times_quarantined();
  stats.bytes_discarded = target.bytes_discarded;
  stats.observations_discarded = target.observations_discarded;
  stats.malformed_rate = target.supervisor.malformed_rate();
  stats.consecutive_dirty_disconnects =
      target.supervisor.consecutive_dirty_disconnects();
  stats.probation_clean_records = target.supervisor.probation_clean_records();
  stats.transitions = target.supervisor.transitions();
  return stats;
}

SessionTotals LiveSession::collect_totals_locked() {
  SessionTotals totals;
  totals.per_feed.reserve(feeds_.size());
  std::uint32_t frontier = std::numeric_limits<std::uint32_t>::max();
  bool constrained = false;
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    // Stop-the-world callers hold every lane mutex via LaneLockSet.
    target.mutex.assert_held();
    FeedStats stats = lane_stats(target);
    totals.bytes_fed += stats.bytes_fed;
    totals.records += stats.records;
    totals.records_skipped += stats.records_skipped;
    totals.queue_depth += stats.queue_depth;
    totals.passive += stats.passive;
    totals.health_transitions += stats.health_transitions;
    totals.observations_discarded += stats.observations_discarded;
    switch (stats.health) {
      case FeedHealth::Healthy:
        break;
      case FeedHealth::Degraded:
        ++totals.feeds_degraded;
        break;
      case FeedHealth::Quarantined:
        ++totals.feeds_quarantined;
        break;
      case FeedHealth::Dead:
        ++totals.feeds_dead;
        break;
    }
    // A quarantined/dead lane's queue sources are closed: it no longer
    // constrains the frontier, and the published total must say so.
    const bool merging = stats.health == FeedHealth::Healthy ||
                         stats.health == FeedHealth::Degraded;
    if (!stats.closed && merging) {
      constrained = true;
      frontier = std::min(frontier, stats.watermark);
    }
    totals.per_feed.push_back(std::move(stats));
  }
  totals.min_watermark = feeds_.empty() ? 0
                         : constrained  ? frontier
                         : std::numeric_limits<std::uint32_t>::max();
  return totals;
}

LiveSnapshot LiveSession::snapshot() {
  // Stop the world: holding every lane mutex blocks concurrent feeders,
  // so after the batch flush and pool settle no producer can race the
  // engine reads below. wait_idle also rethrows anything a pump leaked.
  util::MutexLock feeds_lock(feeds_mutex_);
  supervise_stalls_locked();
  LaneLockSet lane_locks(feeds_);
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    target.mutex.assert_held();  // LaneLockSet holds every lane mutex
    if (target.closed) continue;
    target.extractor.flush_batches();
    publish_watermark(target);
  }
  pool_.wait_idle();

  LiveSnapshot snap;
  static_cast<SessionTotals&>(snap) = collect_totals_locked();
  snap.links_per_ixp.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // The world is settled (all lane mutexes held, pool idle), so the
    // pump's engine ownership transfers here: publish the flushed state
    // and read the count off the published epoch, keeping this snapshot
    // and concurrent epoch_snapshot() readers in agreement.
    publish_epoch(i);
    snap.links_per_ixp.push_back(
        shards_[i]->published.load(std::memory_order_acquire)->link_count());
  }
  return snap;
}

LiveResult LiveSession::finish() {
  util::MutexLock feeds_lock(feeds_mutex_);
  if (finished_.exchange(true, std::memory_order_acq_rel))
    throw InvalidArgument("live session: finish() already called");
  // Close remaining feeds in add order.
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    Lane& target = *feeds_[i];
    util::MutexLock lane_lock(target.mutex);
    close_locked(target, i);
  }
  pool_.wait_idle();

  LiveResult result;
  {
    LaneLockSet lane_locks(feeds_);
    static_cast<SessionTotals&>(result) = collect_totals_locked();
  }
  result.per_ixp.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // Everything is closed and drained: publish the final epoch so a
    // query server lingering past finish() answers from exactly the
    // state this result reports.
    publish_epoch(i);
    const core::MlpInferenceEngine& engine = shards_[i]->engine;
    IxpResult& slot = result.per_ixp[i];
    slot.name = engine.context().name;
    fill_ixp_result(slot, engine, config_.assume_open_for_unobserved);
  }
  result.all_links = merge_links(result.per_ixp);
  return result;
}

std::vector<std::uint8_t> LiveSession::serialize_state() {
  // Same stop-the-world point as snapshot(), minus the wall-clock
  // supervision sweeps (a checkpoint must capture state, not advance
  // it): all lane mutexes, partial batches flushed, watermarks
  // published, pool settled. At that point everything strictly below the
  // merge frontier is in the engines and the remainder sits in the
  // queues -- both serialized, so the split itself need not be
  // reproducible, only the union and the (deterministic) drain order.
  util::MutexLock feeds_lock(feeds_mutex_);
  if (finished_.load(std::memory_order_acquire))
    throw InvalidArgument("live session: serialize_state() after finish()");
  LaneLockSet lane_locks(feeds_);
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    target.mutex.assert_held();  // LaneLockSet holds every lane mutex
    if (target.closed) continue;
    target.extractor.flush_batches();
    publish_watermark(target);
  }
  pool_.wait_idle();

  ByteWriter writer;
  writer.u32(static_cast<std::uint32_t>(contexts_->size()));
  for (const core::IxpContext& context : *contexts_)
    core::codec::write_string(writer, context.name);
  writer.u32(static_cast<std::uint32_t>(feeds_.size()));
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    target.mutex.assert_held();  // LaneLockSet holds every lane mutex
    // A BMP lane's MRT framer is fed synthesized records one at a time
    // and drained whole, so it can never straddle a record here.
    if (target.bmp && target.framer.buffered() != 0)
      throw InvalidArgument(
          "live session: BMP lane buffered a partial synthesized record");
    core::codec::write_string(writer, target.name);
    writer.u8(target.bmp ? 1 : 0);
    writer.u8(static_cast<std::uint8_t>((target.closed ? 1 : 0) |
                                        (target.queues_closed ? 2 : 0)));
    // The framer image at its acknowledged position: the buffered
    // partial tail is deliberately NOT serialized -- the resumed
    // transport re-delivers it from the acknowledged offset, which is
    // what makes the record framing exactly-once.
    writer.u64(target.framer.bytes_fed() - target.framer.buffered());
    writer.u64(target.framer.records());
    writer.u64(target.framer.last_record_offset());
    writer.u8(target.framer.resyncing() ? 1 : 0);
    if (target.bmp) {
      writer.u64(target.bmp->bytes_fed() - target.bmp->buffered());
      writer.u64(target.bmp->messages());
      writer.u64(target.bmp->skipped());
      writer.u64(target.bmp->peer_ups());
      writer.u64(target.bmp->peer_downs());
      writer.u64(target.bmp->last_message_offset());
      writer.u8(target.bmp->resyncing() ? 1 : 0);
    }
    writer.u64(target.decoder.skipped());
    writer.u32(target.watermark_published);
    writer.u64(target.clean_disconnects);
    writer.u64(target.dirty_disconnects);
    writer.u64(target.partial_records_dropped);
    writer.u64(target.bytes_discarded);
    writer.u64(target.observations_discarded);
    target.extractor.serialize_state(writer);
    target.supervisor.serialize_state(writer);
  }
  for (auto& shard : shards_) {
    shard->engine.serialize_state(writer);
    shard->queue.serialize_state(writer);
    // The epoch counter rides along so a resumed session keeps
    // publishing ascending epochs instead of restarting at 1 and
    // confusing readers that cache "newest epoch seen".
    writer.u64(shard->epochs_published.load(std::memory_order_acquire));
  }
  return writer.take();
}

void LiveSession::apply_payload(ByteReader& reader, bool commit) {
  const std::size_t ixp_count =
      core::codec::read_count(reader, 2, "checkpoint IXP");
  if (ixp_count != contexts_->size())
    throw InvalidArgument("checkpoint: image has " +
                          std::to_string(ixp_count) +
                          " IXPs, session has " +
                          std::to_string(contexts_->size()));
  for (std::size_t i = 0; i < ixp_count; ++i) {
    const std::string name = core::codec::read_string(reader);
    if (name != (*contexts_)[i].name)
      throw InvalidArgument("checkpoint: IXP " + std::to_string(i) +
                            " is \"" + name + "\" in the image, \"" +
                            (*contexts_)[i].name + "\" in the session");
  }
  const std::size_t feed_count =
      core::codec::read_count(reader, 64, "checkpoint feed");
  if (feed_count != feeds_.size())
    throw InvalidArgument(
        "checkpoint: image has " + std::to_string(feed_count) +
        " feeds, session has " + std::to_string(feeds_.size()) +
        " -- re-add the same feeds (same order) before restoring");
  for (std::size_t i = 0; i < feed_count; ++i) {
    Lane& real = *feeds_[i];
    // restore_state holds every lane mutex via LaneLockSet.
    real.mutex.assert_held();
    const std::string name = core::codec::read_string(reader);
    const std::uint8_t transport = reader.u8();
    if (transport > 1)
      throw ParseError("checkpoint: feed transport byte " +
                       std::to_string(transport));
    const bool bmp = transport == 1;
    if (name != real.name || bmp != real.bmp.has_value())
      throw InvalidArgument("checkpoint: feed " + std::to_string(i) +
                            " is \"" + name + "\" (" +
                            (bmp ? "BMP" : "raw MRT") +
                            ") in the image, \"" + real.name +
                            "\" in the session");
    const std::uint8_t flags = reader.u8();
    if (flags > 3)
      throw ParseError("checkpoint: feed flags " + std::to_string(flags));
    const std::uint64_t mrt_acked = reader.u64();
    const std::uint64_t mrt_records = reader.u64();
    const std::uint64_t mrt_last_offset = reader.u64();
    const std::uint8_t mrt_resync = reader.u8();
    if (mrt_resync > 1)
      throw ParseError("checkpoint: framer resync byte " +
                       std::to_string(mrt_resync));
    std::uint64_t bmp_acked = 0, bmp_messages = 0, bmp_skipped = 0;
    std::uint64_t bmp_peer_ups = 0, bmp_peer_downs = 0, bmp_last_offset = 0;
    std::uint8_t bmp_resync = 0;
    if (bmp) {
      bmp_acked = reader.u64();
      bmp_messages = reader.u64();
      bmp_skipped = reader.u64();
      bmp_peer_ups = reader.u64();
      bmp_peer_downs = reader.u64();
      bmp_last_offset = reader.u64();
      bmp_resync = reader.u8();
      if (bmp_resync > 1)
        throw ParseError("checkpoint: BMP resync byte " +
                         std::to_string(bmp_resync));
    }
    const std::uint64_t decoder_skipped = reader.u64();
    const std::uint32_t watermark_published = reader.u32();
    const std::uint64_t clean_disconnects = reader.u64();
    const std::uint64_t dirty_disconnects = reader.u64();
    const std::uint64_t partial_dropped = reader.u64();
    const std::uint64_t bytes_discarded = reader.u64();
    const std::uint64_t observations_discarded = reader.u64();
    if (commit) {
      real.framer.restore_state(mrt_acked, mrt_records, mrt_last_offset,
                                mrt_resync != 0);
      if (bmp)
        real.bmp->restore_state(bmp_acked, bmp_messages, bmp_skipped,
                                bmp_peer_ups, bmp_peer_downs,
                                bmp_last_offset, bmp_resync != 0);
      real.decoder.restore_state(
          static_cast<std::size_t>(decoder_skipped));
      real.extractor.restore_state(reader);
      real.supervisor.restore_state(reader);
      real.closed = (flags & 1) != 0;
      real.queues_closed = (flags & 2) != 0;
      real.watermark_published = watermark_published;
      real.clean_disconnects = clean_disconnects;
      real.dirty_disconnects = dirty_disconnects;
      real.partial_records_dropped = partial_dropped;
      real.bytes_discarded = bytes_discarded;
      real.observations_discarded = observations_discarded;
    } else {
      core::PassiveExtractor extractor(attribution_, relationships_,
                                       config_.passive);
      extractor.restore_state(reader);
      FeedSupervisor supervisor(config_.supervision);
      supervisor.restore_state(reader);
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (commit) {
      shards_[i]->engine.restore_state(reader);
      shards_[i]->queue.restore_state(reader);
      shards_[i]->epochs_published.store(reader.u64(),
                                         std::memory_order_release);
    } else {
      core::MlpInferenceEngine engine((*contexts_)[i]);
      engine.restore_state(reader);
      ObservationQueue queue(feeds_.size());
      queue.restore_state(reader);
      reader.u64();  // epoch counter: any value is valid
    }
  }
}

void LiveSession::restore_state(std::span<const std::uint8_t> payload) {
  util::MutexLock feeds_lock(feeds_mutex_);
  if (finished_.load(std::memory_order_acquire))
    throw InvalidArgument("live session: restore_state() after finish()");
  LaneLockSet lane_locks(feeds_);
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    target.mutex.assert_held();  // LaneLockSet holds every lane mutex
    const std::uint64_t fed =
        target.bmp ? target.bmp->bytes_fed() : target.framer.bytes_fed();
    if (fed != 0)
      throw InvalidArgument("live session: restore_state() after feed " +
                            target.name + " already ingested bytes");
  }
  // Pass 1: parse the whole payload against scratch components. Only a
  // payload that survives end to end touches real state, so a malformed
  // image can never leave the session partially applied.
  {
    ByteReader scratch(payload);
    apply_payload(scratch, /*commit=*/false);
    if (!scratch.done())
      throw ParseError("checkpoint: trailing bytes after the session image");
  }
  ByteReader reader(payload);
  apply_payload(reader, /*commit=*/true);

  const std::uint64_t now = clock_->now_ms();
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    target.mutex.assert_held();  // LaneLockSet holds every lane mutex
    target.records_framed.store(target.framer.records(),
                                std::memory_order_relaxed);
    // The serialized activity stamp would be wall-clock time of a dead
    // process: re-arm the stall clock at the resume instant.
    target.last_activity_ms.store(now, std::memory_order_relaxed);
    target.supervisor.note_activity(now);
  }
  // Publish the restored state as a fresh epoch -- continuing the
  // restored counter -- BEFORE the pumps restart: readers must never see
  // the pre-restore matrix paired with post-restore feed progress. No
  // pump can be running here (restore requires zero bytes fed, so no
  // batch was ever pushed), so the engine ownership rule holds.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard)
    publish_epoch(shard);
  // Anything restored below the merge frontier is drainable right away.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard)
    schedule_pump(shard);
}

std::vector<std::uint64_t> LiveSession::acknowledged_offsets() {
  util::MutexLock feeds_lock(feeds_mutex_);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(feeds_.size());
  for (auto& lane : feeds_) {
    Lane& target = *lane;
    util::MutexLock lane_lock(target.mutex);
    offsets.push_back(target.bmp
                          ? target.bmp->bytes_fed() - target.bmp->buffered()
                          : target.framer.bytes_fed() -
                                target.framer.buffered());
  }
  return offsets;
}

}  // namespace mlp::pipeline
