// Live update-stream inference session.
//
// The archive pipeline (InferencePipeline) consumes complete MRT files;
// a live deployment instead watches route-collector feeds and wants the
// multilateral link set to evolve as updates arrive. LiveSession is that
// front end, generalized to N concurrent feeds (one per collector):
//
//   feed 0 bytes          feed 1 bytes            ...   add_feed()
//        |                     |
//   [stream::BmpFramer]   [stream::BmpFramer]     (BMP transports only:
//        |                     |                   RFC 7854 unwrap +
//        |                     |                   PeerUp/PeerDown
//        |                     |                   session events)
//   stream::MrtFramer     stream::MrtFramer       -- complete record
//        |                     |                     spans, one partial
//   stream::UpdateDecoder stream::UpdateDecoder     record max
//        |                     |
//   PassiveExtractor      PassiveExtractor        -- per-feed announce-
//        |                     |                     window + stats +
//        +----------+----------+                     stream clock
//                   v
//   per-IXP ObservationQueue, source index == feed index
//                   |
//                   v
//   MlpInferenceEngine::add on a thread pool (one pump per IXP)
//
// Multi-feed determinism: each feed is an independent ingest lane, so
// per-feed engine add-order equals that feed's stream order. Lanes merge
// by timestamp watermark: after every chunk that advances its
// extractor's stream clock (the running max of consumed record
// timestamps), a lane pushes the extractor's partial batches and then
// publishes the clock as its watermark; the per-IXP queues drain
// observations strictly below the minimum watermark over open feeds,
// smallest (timestamp, feed index) first. The merged engine order is the
// unique stable timestamp merge of the per-feed observation sequences: a
// pure function of each feed's byte sequence, independent of arrival
// interleaving, chunking and thread count, and equal to InferencePipeline
// over the same per-feed archives. Open-ended feeds merge continuously --
// snapshot() reflects cross-feed observations mid-stream, no close()
// required. A feed that goes silent holds the frontier back until the
// stall watchdog (SupervisorConfig::stall_timeout_ms) quarantines it.
//
// BMP session state: a BMP lane surfaces RFC 7854 PeerUp/PeerDown
// messages as session boundaries -- the lane's extractor tears down the
// peer's standing announce-window entries (they settle through the usual
// age test) so routes of a dead session cannot linger as pending state.
// IPv6 peers flow end-to-end (AFI-2 synthesized records).
//
// Health supervision: each lane carries a FeedSupervisor (see
// feed_supervisor.hpp) judging error budgets -- malformed rate over a
// sliding window, consecutive dirty disconnects, a stall watchdog on the
// injected LiveConfig::clock. A lane quarantined or dead by those budgets
// publishes its queue close sentinels, so a persistently sick feed can
// never gate the watermark frontier: the healthy feeds keep merging
// (graceful degradation). Quarantined lanes still ingest -- their
// observations are discarded -- and earn readmission by a probation run
// of clean records.
//
// Threading: feed() calls on ONE lane must be serialized, but different
// lanes may be driven from different threads concurrently (each reader
// thread owns one FeedHandle). snapshot()/finish() briefly lock every
// lane, so they are safe against concurrent feeding.
//
// snapshot() is cheap on purpose: it flushes partial batches, lets the
// pool settle, and reads each engine's link count off a freshly
// published epoch (a popcount over the reciprocity bitset) -- no
// link-set materialization.
//
// Epoch publishing decouples READERS from ingest entirely: each shard's
// pump periodically (every LiveConfig::publish_every_batches drained
// batches, after every watermark-advance drain run, and at every
// stop-the-world point) freezes the engine into an immutable
// core::EngineSnapshot and swaps it behind an atomic shared_ptr.
// epoch_snapshot() hands that pointer out with ONE atomic load -- no
// feeds_mutex_, no lane mutex, no stop-the-world -- so any number of
// query threads (the `mlp_infer query` server, dashboards, benchmarks)
// read a consistent epoch while the feed threads keep ingesting.
// Staleness is bounded by the publish cadence: at most the in-flight
// work of one pump run (publish_every_batches batches) behind the
// engine, and exactly current at any settled point (snapshot()/
// finish()/restore_state() republish before returning).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine_snapshot.hpp"
#include "core/passive.hpp"
#include "pipeline/feed_supervisor.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/clock.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "stream/source.hpp"
#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::pipeline {

/// One feed's health transition, as delivered to
/// LiveConfig::on_health_change.
struct HealthChange {
  std::size_t feed = 0;
  std::string name;
  FeedHealth from = FeedHealth::Healthy;
  FeedHealth to = FeedHealth::Healthy;
  std::string reason;
};

/// Wire format of one feed.
enum class Transport : std::uint8_t {
  /// Raw concatenated MRT records (an archive replayed over a socket).
  RawMrt,
  /// BMP (RFC 7854): Route Monitoring unwrap plus PeerUp/PeerDown
  /// session tracking.
  Bmp,
};

struct LiveConfig {
  /// Inference pool workers; 0 means hardware concurrency.
  std::size_t threads = 1;
  /// Observations per emitted batch.
  std::size_t batch_size = 256;
  /// Transient filtering, announce-window bound, tolerate_malformed
  /// (applied per feed: each lane runs its own extractor).
  core::PassiveConfig passive;
  /// Forwarded to infer_links / count_links and baked into every
  /// published EngineSnapshot.
  bool assume_open_for_unobserved = false;
  /// Epoch publishing cadence: a pump freezes and publishes a fresh
  /// EngineSnapshot after draining this many batches since the last
  /// publish -- and always when a drain run settles -- which bounds how
  /// far lock-free readers can trail the engine mid-run. 0 publishes
  /// only at settled points (drain-idle, snapshot, finish, restore).
  std::size_t publish_every_batches = 16;
  /// Record-length cap for the framer.
  stream::MrtFramer::Config framing;
  /// Read-buffer size used by drain().
  std::size_t read_chunk = 65536;
  /// Per-feed health supervision budgets (see feed_supervisor.hpp).
  SupervisorConfig supervision;
  /// Session time source: paces the stall watchdog.
  /// Null means the process SystemClock; tests inject a VirtualClock to
  /// replay stall scenarios deterministically.
  std::shared_ptr<stream::Clock> clock;
  /// Invoked on every health transition, with the transitioning lane's
  /// mutex held: the callback must be fast and must not call back into
  /// the session (snapshot()/finish()/feed() would deadlock). May fire
  /// concurrently for distinct feeds.
  std::function<void(const HealthChange&)> on_health_change;
};

/// Per-feed transport/config of one add_feed call.
struct FeedOptions {
  /// Label used in stats and error messages; "feed<index>" by default.
  std::string name;
  /// Wire format delivered by this feed.
  Transport transport = Transport::RawMrt;
  /// Message-length cap for the BMP layer.
  stream::BmpFramer::Config bmp_framing;
};

/// Per-feed ingest and transport counters.
struct FeedStats {
  std::string name;
  std::uint64_t bytes_fed = 0;      // transport bytes (BMP bytes for BMP)
  std::uint64_t records = 0;        // complete update records framed
  std::size_t records_skipped = 0;  // non-update records stepped over
  std::uint64_t bmp_messages = 0;   // BMP feeds: complete messages framed
  std::uint64_t bmp_skipped = 0;    // BMP feeds: non-RM/non-UPDATE
  std::uint64_t bmp_peer_ups = 0;   // BMP feeds: PeerUp events applied
  std::uint64_t bmp_peer_downs = 0; // BMP feeds: PeerDown events applied
  std::uint64_t clean_disconnects = 0;   // note_disconnect at a boundary
  std::uint64_t dirty_disconnects = 0;   // note_disconnect mid-record
  std::uint64_t partial_records_dropped = 0;  // partials lost to resets
  /// The lane's stream clock / published merge watermark.
  std::uint32_t watermark = 0;
  /// This feed's observations queued but not yet merged into the
  /// engines, summed over IXPs -- its share of the merge backlog.
  std::size_t queue_depth = 0;
  bool closed = false;
  core::PassiveStats passive;       // this feed's extraction counters
  // Health supervision (see feed_supervisor.hpp).
  FeedHealth health = FeedHealth::Healthy;
  std::uint64_t health_transitions = 0;  // total transitions fired
  std::uint64_t times_quarantined = 0;
  std::uint64_t bytes_discarded = 0;  // fed while Dead, dropped unread
  std::uint64_t observations_discarded = 0;  // emitted while not merging
  double malformed_rate = 0.0;        // current sliding-window rate
  std::size_t consecutive_dirty_disconnects = 0;
  std::size_t probation_clean_records = 0;
  std::vector<HealthTransition> transitions;  // first 64, in order
};

/// Aggregate counters shared by the mid-stream snapshot and the final
/// result (summed/merged over feeds).
struct SessionTotals {
  std::uint64_t bytes_fed = 0;
  std::uint64_t records = 0;
  std::size_t records_skipped = 0;
  /// The cross-feed merge frontier: minimum watermark over open,
  /// merging feeds. 0 when no feed has seen a timestamp yet; UINT32_MAX
  /// once every feed is closed (nothing constrains the merge).
  std::uint32_t min_watermark = 0;
  /// Observations sitting in the per-IXP queues, not yet merged into the
  /// engines (summed over feeds and IXPs): the merge backlog behind a
  /// lagging watermark.
  std::size_t queue_depth = 0;
  core::PassiveStats passive;
  std::vector<FeedStats> per_feed;  // in add_feed order
  // Health rollup over feeds.
  std::size_t feeds_degraded = 0;
  std::size_t feeds_quarantined = 0;
  std::size_t feeds_dead = 0;
  std::uint64_t health_transitions = 0;
  std::uint64_t observations_discarded = 0;
};

/// Cheap point-in-time view of a running session.
struct LiveSnapshot : SessionTotals {
  /// count_links per IXP, in construction order.
  std::vector<std::size_t> links_per_ixp;
};

/// Final product, shaped like the archive pipeline's result.
struct LiveResult : SessionTotals {
  std::vector<IxpResult> per_ixp;
  std::set<AsLink> all_links;
};

class LiveSession;

/// Lightweight reference to one feed of a LiveSession (copyable; the
/// session must outlive it). One thread may drive one handle; distinct
/// handles may be driven concurrently. A default-constructed handle is
/// detached: every operation throws InvalidArgument.
class FeedHandle {
 public:
  FeedHandle() = default;

  /// Ingest one chunk of this feed's raw stream bytes (any chunking).
  /// Strict mode throws ParseError naming the feed and stream offset;
  /// with PassiveConfig::tolerate_malformed the record is skipped and
  /// counted in this feed's records_malformed.
  void feed(std::span<const std::uint8_t> chunk);

  /// Read `source` to end of stream, feeding every chunk; returns the
  /// number of bytes consumed.
  std::uint64_t drain(stream::StreamSource& source);

  /// Transport-level disconnect notification (a reconnect is about to
  /// resume the feed): drops the at-most-one partial record buffered in
  /// the framers and carries every counter over. Counted as a dirty
  /// disconnect when partial bytes were dropped, clean otherwise. Wire
  /// this as ReconnectingSource's on_reconnect callback.
  void note_disconnect();

  /// Unrecoverable transport failure (reconnect budget exhausted, a
  /// reader thread giving up): the feed goes straight to
  /// FeedHealth::Dead and its queue close sentinels publish so it can
  /// never gate the merge frontier. A lane that was still merging gets
  /// its announce-window flushed first (everything extracted while it
  /// merged was judged trustworthy at the time); a lane already
  /// quarantined does not -- its window is suspect. feed() afterwards
  /// discards silently. Idempotent.
  void fail(const std::string& reason);

  /// End of this feed's stream: flush its announce-window and partial
  /// batches, and close its source slot in every IXP queue so it stops
  /// constraining the merge. feed() afterwards throws. Idempotent.
  void close();

  std::size_t index() const { return index_; }
  bool valid() const { return session_ != nullptr; }

 private:
  friend class LiveSession;
  FeedHandle(LiveSession* session, std::size_t index)
      : session_(session), index_(index) {}

  LiveSession* session_ = nullptr;
  std::size_t index_ = 0;
};

class LiveSession {
 public:
  /// `relationships` resolves setter case 3 (may be null). IXP order
  /// fixes the per_ixp / links_per_ixp index.
  LiveSession(LiveConfig config, std::vector<core::IxpContext> ixps,
              bgp::RelFn relationships = nullptr);

  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Register one more concurrent feed. Feed index (= queue source
  /// index = cross-feed merge position) is the registration order.
  /// Callable any time before finish(), including mid-stream.
  FeedHandle add_feed(FeedOptions options = FeedOptions{})
      MLP_EXCLUDES(feeds_mutex_);

  /// Single-feed compatibility: feed()/drain() on the session operate on
  /// feed 0, creating it (raw MRT transport) on first use.
  void feed(std::span<const std::uint8_t> chunk)
      MLP_EXCLUDES(feeds_mutex_);
  std::uint64_t drain(stream::StreamSource& source)
      MLP_EXCLUDES(feeds_mutex_);

  /// Point-in-time stats + per-IXP link counts. Reflects every
  /// observation below the merge frontier; callable while other threads
  /// keep feeding (they block on their lane for the duration of the
  /// flush). Publishes a fresh epoch per shard at the settled point, so
  /// the returned counts and concurrent epoch_snapshot() readers agree.
  /// For a query path that must not stop the world, read
  /// epoch_snapshot() instead.
  LiveSnapshot snapshot() MLP_EXCLUDES(feeds_mutex_);

  /// End of stream: close every remaining feed (announce-window flush,
  /// in feed order), drain the queues and infer the final link sets.
  /// Callable once; feed() afterwards throws.
  LiveResult finish() MLP_EXCLUDES(feeds_mutex_);

  std::size_t ixp_count() const { return shards_.size(); }
  std::size_t feed_count() MLP_EXCLUDES(feeds_mutex_);

  /// Lock-free reader API: the current published epoch of IXP `index`
  /// (construction order). ONE atomic shared_ptr load -- never
  /// feeds_mutex_, never a lane mutex, never a pool settle -- so query
  /// threads scale independently of ingest. Never null (epoch 1
  /// publishes in the constructor); the returned snapshot stays valid
  /// for as long as the caller holds it, even across restore_state()
  /// and session destruction. Throws InvalidArgument on a bad index.
  std::shared_ptr<const core::EngineSnapshot> epoch_snapshot(
      std::size_t index) const;
  /// Same, addressed by IXP name (IxpContext::name). Throws
  /// InvalidArgument for an unknown name.
  std::shared_ptr<const core::EngineSnapshot> epoch_snapshot(
      const std::string& ixp) const;
  /// Resolve an IXP name to its construction-order index (the IXP set is
  /// immutable after construction, so this is lock-free). Throws
  /// InvalidArgument for an unknown name.
  std::size_t ixp_index(const std::string& ixp) const;
  /// Every IXP's current epoch, in construction order. The per-shard
  /// loads are independent (not a cross-IXP consistent cut).
  std::vector<std::shared_ptr<const core::EngineSnapshot>> epoch_snapshots()
      const;

  /// Observability gauges for IXP `index`, pairing an epoch with how far
  /// ingest has run ahead of it: the shard queue's merge frontier
  /// (ObservationQueue::min_watermark) and its undrained backlog. These
  /// take only the shard queue's own mutex -- never feeds_mutex_ or a
  /// lane mutex -- so they are safe on the query path.
  std::uint32_t merge_frontier(std::size_t index) const;
  std::size_t merge_backlog(std::size_t index) const;

  /// Complete records framed so far, summed over feeds. Much cheaper
  /// than snapshot() (no batch flush, no pool settle): callers pace
  /// snapshot() off it.
  std::uint64_t records() MLP_EXCLUDES(feeds_mutex_);

  /// Checkpoint: serialize the full session -- every lane's framing
  /// position, extractor announce-window and supervisor judgement, every
  /// IXP's engine state and queued-but-undrained observations -- from the
  /// same stop-the-world point snapshot() uses (all lane mutexes, batch
  /// flush, pool settle). Returns the raw payload; file framing (CRC,
  /// atomic rename, generations) is pipeline/checkpoint.hpp's job, kept
  /// OUTSIDE the session locks. Callable while other threads keep
  /// feeding; throws InvalidArgument after finish().
  std::vector<std::uint8_t> serialize_state() MLP_EXCLUDES(feeds_mutex_);

  /// Checkpoint: load a serialize_state() payload into this session. The
  /// session must be freshly wired -- same IXPs, the same feeds re-added
  /// in the same order (names and transports are cross-checked), no
  /// bytes fed yet. Parses and validates the ENTIRE payload against
  /// scratch components before touching any real state, so a malformed
  /// payload (ParseError) or a mismatched session (InvalidArgument)
  /// leaves the session untouched -- never partially applied. After
  /// restore, re-dial each feed's transport and skip to its
  /// acknowledged_offsets() position: replaying the remaining bytes
  /// yields results byte-identical to the uninterrupted run.
  void restore_state(std::span<const std::uint8_t> payload)
      MLP_EXCLUDES(feeds_mutex_);

  /// Per-feed acknowledged transport offsets, in add_feed order: every
  /// byte before the offset has been framed into a complete record (or
  /// consumed by a finished resync scan) and is covered by a
  /// serialize_state() image taken now. The partial tail past it is NOT
  /// serialized -- a resumed source must re-deliver from this offset.
  std::vector<std::uint64_t> acknowledged_offsets()
      MLP_EXCLUDES(feeds_mutex_);

 private:
  friend class FeedHandle;

  /// One feed's independent ingest lane. All mutable state is guarded by
  /// `mutex` so distinct lanes can be driven from distinct threads while
  /// snapshot()/finish() can stop the world.
  struct Lane {
    Lane(LiveSession* session,
         std::shared_ptr<const core::AttributionIndex> attribution,
         bgp::RelFn relationships, const core::PassiveConfig& passive)
        : owner(session),
          extractor(std::move(attribution), std::move(relationships),
                    passive) {}

    /// Back-pointer anchoring the lock-order annotation on `mutex`.
    LiveSession* const owner;
    /// Documented lock order (ROADMAP "Multi-feed live invariants"):
    /// feeds_mutex_ before any lane mutex, never the reverse.
    /// ACQUIRED_AFTER turns a reversed acquisition into a
    /// -Wthread-safety-beta build error.
    util::Mutex mutex MLP_ACQUIRED_AFTER(owner->feeds_mutex_);
    /// name/index are written once in add_feed (under the lane mutex,
    /// before the lane is published) and immutable afterwards.
    std::string name;
    std::size_t index = 0;
    /// Engaged for BMP transports.
    std::optional<stream::BmpFramer> bmp MLP_GUARDED_BY(mutex);
    stream::MrtFramer framer MLP_GUARDED_BY(mutex);
    stream::UpdateDecoder decoder MLP_GUARDED_BY(mutex);
    core::PassiveExtractor extractor MLP_GUARDED_BY(mutex);
    /// Mirror of framer.records(), published after every feed so
    /// records() can pace snapshots without taking lane mutexes.
    std::atomic<std::uint64_t> records_framed{0};
    /// Stall-watchdog activity stamp (lock-free: read by other feeds'
    /// supervise_stalls sweeps).
    std::atomic<std::uint64_t> last_activity_ms{0};
    /// Highest watermark pushed to the queues.
    std::uint32_t watermark_published MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t clean_disconnects MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t dirty_disconnects MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t partial_records_dropped MLP_GUARDED_BY(mutex) = 0;
    bool closed MLP_GUARDED_BY(mutex) = false;
    /// Health supervision: the FeedSupervisor is pure bookkeeping with no
    /// locking of its own, so GUARDED_BY here is what enforces the
    /// "every FeedSupervisor call happens under the lane mutex" contract.
    FeedSupervisor supervisor MLP_GUARDED_BY(mutex);
    std::uint64_t bytes_discarded MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t observations_discarded MLP_GUARDED_BY(mutex) = 0;
    /// Queue close sentinels published by supervision (Quarantined/Dead),
    /// distinct from the user-visible `closed`: a readmitted feed reopens
    /// its sources, a close()d one never does.
    bool queues_closed MLP_GUARDED_BY(mutex) = false;
  };

  /// One IXP's inference lane: a multi-source queue (source == feed)
  /// feeding an engine, drained by at most one pump task at a time.
  struct Shard {
    explicit Shard(core::IxpContext context)
        : queue(0), engine(std::move(context)) {}
    ObservationQueue queue;
    core::MlpInferenceEngine engine;
    /// Owner flag of the pump task (the engine is not thread-safe).
    std::atomic<bool> pump_scheduled{false};
    /// The published epoch: deliberately the ONE unguarded shared object
    /// of the session. The engine owner (a pump inside its ownership
    /// window, or a stop-the-world path after pool settle) freezes an
    /// immutable EngineSnapshot and swaps it in; readers load it
    /// lock-free and share ownership. No mutex guards it BY DESIGN --
    /// immutability of the pointee plus the atomic shared_ptr swap IS
    /// the synchronization, which is what keeps the query path off
    /// feeds_mutex_ and the lane mutexes entirely.
    std::atomic<std::shared_ptr<const core::EngineSnapshot>> published;
    /// Monotone publication counter; serialized into checkpoints so a
    /// resumed session's epochs keep ascending.
    std::atomic<std::uint64_t> epochs_published{0};
    /// Publish bookkeeping, confined to the engine owner exactly like
    /// the engine itself (pump ownership window / settled world): which
    /// engine generation the current epoch describes, and batches
    /// drained since the last publish.
    std::uint64_t last_published_generation = 0;
    std::size_t batches_since_publish = 0;
  };

  /// RAII over the dynamic all-lanes lock set used by the stop-the-world
  /// paths (snapshot/finish/serialize_state/restore_state), acquired in
  /// feed order while feeds_mutex_ is held. A variable-length lock set
  /// cannot be expressed to the thread-safety analysis, so construction
  /// and destruction are opaque to it (NO_THREAD_SAFETY_ANALYSIS on the
  /// definitions) and every user re-asserts per lane with
  /// Mutex::assert_held() before touching guarded state.
  class LaneLockSet {
   public:
    explicit LaneLockSet(const std::vector<std::unique_ptr<Lane>>& lanes)
        MLP_NO_THREAD_SAFETY_ANALYSIS;
    ~LaneLockSet() MLP_NO_THREAD_SAFETY_ANALYSIS;
    LaneLockSet(const LaneLockSet&) = delete;
    LaneLockSet& operator=(const LaneLockSet&) = delete;

   private:
    std::vector<Lane*> locked_;
  };

  /// Drain shard `index`'s queue into its engine, rearm-safe.
  void pump(std::size_t index);
  void schedule_pump(std::size_t index);
  /// Freeze shard `index`'s engine and swap the published epoch pointer.
  /// Caller must OWN the engine: either this is the shard's pump inside
  /// its ownership window (before pump_scheduled drops), or the world is
  /// settled (all lane mutexes held + pool idle, so no pump runs and
  /// none can be scheduled). No-ops when the engine generation has not
  /// moved since the last publish.
  void publish_epoch(std::size_t index);

  Lane& lane(std::size_t index) MLP_EXCLUDES(feeds_mutex_);
  /// Ingest one chunk into the lane (framing, decode, extraction).
  void lane_feed(Lane& target, std::span<const std::uint8_t> chunk)
      MLP_REQUIRES(target.mutex);
  void drain_framer(Lane& target) MLP_REQUIRES(target.mutex);
  void close_locked(Lane& target, std::size_t index)
      MLP_REQUIRES(target.mutex);
  /// When the lane's stream clock advanced: push the extractor's partial
  /// batches, then the clock to every shard queue as the lane's merge
  /// watermark.
  void publish_watermark(Lane& target) MLP_REQUIRES(target.mutex);
  /// Stall watchdog sweep (supervision.stall_timeout_ms only): atomically
  /// pre-checks every lane's last-activity stamp and quarantines stalled
  /// ones, taking stale lanes' mutexes one at a time (never while a
  /// caller holds one).
  void supervise_stalls() MLP_EXCLUDES(feeds_mutex_);
  void supervise_stalls_locked() MLP_REQUIRES(feeds_mutex_);
  /// Feed the supervisor one record outcome and enact the verdict.
  void record_outcome(Lane& target, bool malformed)
      MLP_REQUIRES(target.mutex);
  /// Route the lane straight to Dead.
  void fail_locked(Lane& target, const std::string& reason)
      MLP_REQUIRES(target.mutex);
  /// Enact a supervisor verdict -- close the lane's queue sources on
  /// Quarantine/Die, reopen them on Readmit -- and fire on_health_change
  /// when the health level moved off `before`.
  void apply_supervision(Lane& target, FeedSupervisor::Action action,
                         FeedHealth before) MLP_REQUIRES(target.mutex);
  FeedStats lane_stats(Lane& target) const MLP_REQUIRES(target.mutex);
  /// Caller additionally holds every lane mutex (LaneLockSet).
  SessionTotals collect_totals_locked() MLP_REQUIRES(feeds_mutex_);
  /// Caller holds feeds_mutex_ and every lane mutex (LaneLockSet). Parse
  /// one serialize_state() payload; commit=false parses into scratch
  /// components (validation only), commit=true into the real ones. The
  /// parse is deterministic, so a commit pass over a payload that passed
  /// the scratch pass cannot throw -- the two-pass split is what makes
  /// restore_state all-or-nothing.
  void apply_payload(ByteReader& reader, bool commit)
      MLP_REQUIRES(feeds_mutex_);

  LiveConfig config_;
  std::shared_ptr<stream::Clock> clock_;  // config_.clock or SystemClock
  std::shared_ptr<const std::vector<core::IxpContext>> contexts_;
  /// The one attribution index over contexts_, built in the constructor
  /// and shared by every lane and by apply_payload's scratch extractor:
  /// neither the feed path nor a restore ever builds one.
  std::shared_ptr<const core::AttributionIndex> attribution_;
  bgp::RelFn relationships_;
  /// Guards feeds_ growth and finish(). Lock order: before any lane
  /// mutex (see Lane::mutex).
  util::Mutex feeds_mutex_;
  std::vector<std::unique_ptr<Lane>> feeds_ MLP_GUARDED_BY(feeds_mutex_);
  std::vector<std::unique_ptr<Shard>> shards_;
  // Declared after shards_ so its destructor (which joins the workers)
  // runs first: no pump can outlive the shards it drains.
  ThreadPool pool_;
  std::atomic<bool> finished_{false};
};

}  // namespace mlp::pipeline
