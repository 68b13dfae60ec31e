// Passive inference from archived BGP data (paper section 4.2).
//
// The extractor consumes MRT archives (or raw AS paths with communities),
// filters dirty paths, attributes RS communities to an IXP -- directly
// when a community value encodes the route-server ASN, or by matching the
// combination of excluded ASes against the candidate IXPs' member lists --
// and pinpoints the RS setter using the membership cases 1-3, falling
// back to AS relationships when a path holds more than two members.
//
// Attribution goes through a shared AttributionIndex (core/
// attribution_index.hpp): per community, one lookup yields the IXPs whose
// scheme tags it, the IXPs where it targets a non-member, and the IXPs
// whose RS ASN it spells, as bit rows over all IXPs. An IXP is a
// candidate when some community is tagged there and none is vetoed; the
// candidates are visited in ascending IXP index, each with its tagged
// communities in input order, so no per-IXP pass over the communities
// exists. Build one index per context set and pass it to every extractor
// over that set; the contexts-only constructors build a private one.
//
// Two consumption modes:
//
//   accumulate (default): observations collect internally, grouped per
//   IXP, and are read back via observations()/take_observations() once
//   the input is consumed.
//
//   streaming (set_sink): attributed observations are emitted to a
//   callback in bounded batches, keyed by dense IXP index (the position
//   in the IXP vector passed to the constructor), while MRT decode is
//   still in progress. Peak memory stays O(batch x IXPs) instead of
//   O(archive), and a downstream consumer can overlap inference with
//   decode. Call finish() after the last input to flush partial batches.
//
// MRT archives are walked with the streaming mrt::MrtCursor -- no
// whole-archive RIB or record vector is ever materialized. Update streams
// are filtered through a bounded announce-window keyed on (peer, prefix),
// so BGP4MP input can also be fed incrementally via consume_update.
//
// Like the inference engine, an extractor is deliberately NOT thread-safe
// (scratch buffers are reused across consume calls); confine each
// instance to one task. The index it reads is immutable and may be shared
// across threads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bgp/valley.hpp"
#include "bgp/wire.hpp"
#include "core/attribution_index.hpp"
#include "core/types.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::core {

/// Counters describing how the input was consumed.
struct PassiveStats {
  std::size_t paths_seen = 0;
  std::size_t paths_dirty = 0;        // cycles / reserved ASNs
  std::size_t paths_transient = 0;    // announced for < min_duration
  std::size_t paths_no_rs_values = 0; // no candidate scheme matched
  std::size_t paths_ambiguous_ixp = 0;
  std::size_t paths_no_setter = 0;    // membership cases that fail
  std::size_t observations = 0;       // successfully attributed
  std::size_t records_malformed = 0;  // skipped in tolerant mode
  std::size_t peer_session_resets = 0;  // PeerUp/PeerDown teardowns applied
  std::size_t pending_torn_down = 0;  // announcements settled by a teardown
};

/// Field-wise sum, for merging the stats of parallel extraction passes.
PassiveStats& operator+=(PassiveStats& lhs, const PassiveStats& rhs);

/// Configuration of the passive pipeline.
struct PassiveConfig {
  /// Drop announcements visible for less than this long before being
  /// withdrawn (misconfiguration guard, section 5). 0 disables.
  std::uint32_t min_duration_s = 0;
  /// Cap on the (peer, prefix) announce-window used for transient
  /// filtering of update streams. When full, the oldest announcement is
  /// evicted through the same age test as a withdrawal at the current
  /// stream time. 0 means unbounded.
  std::size_t max_pending_announcements = 1u << 20;
  /// Survive malformed MRT records: instead of aborting the whole ingest
  /// (fatal for a live feed), skip forward to the next plausible record
  /// header and count the casualty in PassiveStats::records_malformed.
  /// Off by default: strict mode keeps erroring with the record's byte
  /// offset in the message.
  bool tolerate_malformed = false;
};

class PassiveExtractor {
 public:
  /// Streaming emission callback: one batch of attributed observations
  /// for the IXP at `ixp_index` (dense index into the constructor's IXP
  /// vector). Batches for one IXP arrive in attribution order.
  using ObservationSink = std::function<void(
      std::size_t ixp_index, std::vector<Observation>&& batch)>;

  /// `relationships` resolves setter case 3; it may be an inferred
  /// relationship set or a ground-truth oracle. May be null (case 3 then
  /// fails as "no setter").
  PassiveExtractor(std::vector<IxpContext> ixps, bgp::RelFn relationships,
                   PassiveConfig config = PassiveConfig{});

  /// Shared-context overload: parallel extractors reference one immutable
  /// IXP set instead of each copying it. Builds a private index.
  PassiveExtractor(std::shared_ptr<const std::vector<IxpContext>> ixps,
                   bgp::RelFn relationships,
                   PassiveConfig config = PassiveConfig{});

  /// Shared-index overload: parallel extractors (one per archive in the
  /// pipeline, one per live lane) reference one index, and through it one
  /// IXP set, built once outside every ingest path.
  PassiveExtractor(std::shared_ptr<const AttributionIndex> attribution,
                   bgp::RelFn relationships,
                   PassiveConfig config = PassiveConfig{});

  /// Switch to streaming mode: observations are emitted to `sink` in
  /// batches of at most `batch_size` per IXP instead of accumulating.
  /// Must be set before any input is consumed.
  void set_sink(ObservationSink sink, std::size_t batch_size = 256);

  /// Consume a TABLE_DUMP_V2 archive (a collector RIB snapshot),
  /// streaming entry by entry; BGP4MP records in a mixed stream are
  /// ignored, matching the materializing parse_rib behaviour.
  void consume_table_dump(std::span<const std::uint8_t> archive);

  /// Consume a BGP4MP update archive; withdrawals cancel announcements
  /// younger than min_duration_s (transient filtering). Announcements
  /// still standing at end of archive are flushed as stable.
  void consume_update_stream(std::span<const std::uint8_t> archive);

  /// Consume one already-decoded update message (incremental form of
  /// consume_update_stream; updates must arrive in timestamp order).
  /// Stable announcements surface once withdrawn, replaced, evicted from
  /// the bounded window, or flushed via flush_pending()/finish().
  void consume_update(std::uint32_t timestamp, Asn peer_asn,
                      const bgp::UpdateMessage& update);

  /// BGP session boundary for `peer_asn` at stream time `timestamp` (a
  /// BMP PeerDown, or a PeerUp that implies the previous session died
  /// without one): every announcement standing in that peer's announce-
  /// window is settled through the usual age test and evicted -- routes
  /// of a dead session must not linger as pending state. Advances the
  /// stream clock like consume_update.
  void peer_session_reset(Asn peer_asn, std::uint32_t timestamp);

  /// The extractor's stream clock: the running max of every record /
  /// peer-event timestamp consumed so far. Emitted observations carry
  /// this clock, so it doubles as the lane watermark of the live
  /// cross-feed merge.
  std::uint32_t stream_time() const { return clock_; }

  /// Consume one already-decoded path observation.
  void consume_path(const AsPath& path,
                    const IpPrefix& prefix,
                    const std::vector<Community>& communities,
                    Source source = Source::Passive);

  /// Flush announcements still standing in the announce-window (end of a
  /// live stream's observation period).
  void flush_pending();

  /// Streaming mode: emit the partially-filled per-IXP batches now, so a
  /// downstream snapshot reflects everything consumed so far. Does NOT
  /// touch the announce-window (unlike finish(), it is safe mid-stream);
  /// a no-op in accumulate mode.
  void flush_batches();

  /// End of input: flush the announce-window and, in streaming mode, the
  /// partial per-IXP batches.
  void finish();

  /// Count one malformed record skipped by a tolerant caller that frames
  /// and decodes outside the extractor (the live-session path), keeping
  /// records_malformed meaningful for every ingest front end.
  void note_malformed_record() { ++stats_.records_malformed; }

  /// Observations grouped by IXP name, ready for MlpInferenceEngine::add
  /// (accumulate mode only; the view is rebuilt lazily after new input).
  const std::map<std::string, std::vector<Observation>>& observations();

  /// Move the accumulated observations out (the extractor is spent
  /// afterwards); avoids copying the main data product per source.
  std::map<std::string, std::vector<Observation>> take_observations();

  const PassiveStats& stats() const { return stats_; }

  /// The shared IXP context set; a streaming sink's dense index is the
  /// position in this vector.
  const std::shared_ptr<const std::vector<IxpContext>>& contexts() const {
    return attribution_->contexts();
  }

  /// Checkpoint hook: persist the stream clock, the consumption counters
  /// and the standing announce-window (pending map + FIFO eviction
  /// order), exactly as they are -- entries are NOT flushed, so a
  /// restored extractor settles them through the same age tests the
  /// uninterrupted run would have applied. Requires the per-IXP batch
  /// buffers to be empty (call flush_batches() first in streaming mode);
  /// throws InvalidArgument otherwise -- unemitted observations must live
  /// in the downstream queues, not here.
  void serialize_state(ByteWriter& writer) const;

  /// Checkpoint hook: replace clock, stats and announce-window with a
  /// serialized image. Parses and validates the whole image before
  /// committing (a ParseError leaves the extractor untouched). The IXP
  /// contexts, relationships, config and sink are construction-time
  /// wiring and are not part of the image.
  void restore_state(ByteReader& reader);

 private:
  struct Attribution {
    std::size_t ixp_index = 0;
    /// Range of this IXP's RS communities inside comm_scratch_.
    std::uint32_t comm_begin = 0;
    std::uint32_t comm_end = 0;
    /// Some community value encodes the RS ASN (direct attribution);
    /// otherwise only peer-targeted values matched (EXCLUDE-only case).
    bool rs_encoded = false;
  };

  /// Attribute the RS communities on a route to candidate IXPs through the
  /// index; fills attr_scratch_/comm_scratch_ (ascending IXP index, each
  /// IXP's communities in input order) and returns the number of strong
  /// (RS-encoded) attributions.
  std::size_t attribute_ixps(const std::vector<Community>& communities);

  /// Identify the RS setter in `path` for an IXP (cases 1-3). Returns 0
  /// when no setter can be pinpointed.
  Asn identify_setter(const AsPath& path, const IxpContext& ixp);

  /// Append one attributed observation for the IXP at `index`, emitting a
  /// batch in streaming mode when the bucket is full.
  void emit(std::size_t index, Observation observation);

  /// One standing announcement in the transient-filter window.
  struct Pending {
    std::uint32_t announced_at = 0;
    AsPath path;
    std::vector<Community> communities;
  };
  using PendingKey = std::pair<Asn, IpPrefix>;

  /// Age-test `entry` against `now` and either consume it as stable or
  /// count it transient.
  void settle(const PendingKey& key, const Pending& entry,
              std::uint32_t now);

  /// Enforce max_pending_announcements after an insertion.
  void evict_pending(std::uint32_t now);

  const std::vector<IxpContext>& ixps() const {
    return *attribution_->contexts();
  }

  std::shared_ptr<const AttributionIndex> attribution_;
  bgp::RelFn relationships_;
  PassiveConfig config_;
  PassiveStats stats_;
  /// Stream clock: running max of consumed record/event timestamps.
  std::uint32_t clock_ = 0;

  /// Per-IXP observation buffers, dense-indexed in ixps() order. In
  /// accumulate mode this is the full product; in streaming mode, the
  /// partial batches not yet emitted.
  std::vector<std::vector<Observation>> by_ixp_;
  ObservationSink sink_;
  std::size_t sink_batch_ = 256;

  /// Lazily materialized name-keyed view of by_ixp_ (accumulate mode).
  std::map<std::string, std::vector<Observation>> observations_view_;
  bool view_dirty_ = false;

  /// Transient-filter announce-window plus its FIFO eviction order
  /// (lazily pruned: replaced announcements leave stale FIFO entries
  /// behind, recognized by a mismatching announced_at).
  std::map<PendingKey, Pending> pending_;
  std::deque<std::pair<PendingKey, std::uint32_t>> pending_fifo_;

  // Reusable per-path scratch (why consume calls are not thread-safe).
  std::vector<Attribution> attr_scratch_;
  std::vector<Community> comm_scratch_;
  std::vector<Community> tagged_scratch_;   // communities some IXP tags
  /// Candidate, vetoed and RS-encoded rows, then one tag row per entry of
  /// tagged_scratch_ (AttributionIndex::words() words each).
  std::vector<std::uint64_t> mask_scratch_;
  std::vector<Asn> flat_scratch_;           // deduplicated path
  std::vector<std::uint32_t> member_pos_scratch_;
};

}  // namespace mlp::core
