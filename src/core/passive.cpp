#include "core/passive.hpp"

#include <bit>
#include <iterator>
#include <utility>

#include "core/state_codec.hpp"
#include "mrt/cursor.hpp"
#include "util/errors.hpp"

namespace mlp::core {

PassiveStats& operator+=(PassiveStats& lhs, const PassiveStats& rhs) {
  lhs.paths_seen += rhs.paths_seen;
  lhs.paths_dirty += rhs.paths_dirty;
  lhs.paths_transient += rhs.paths_transient;
  lhs.paths_no_rs_values += rhs.paths_no_rs_values;
  lhs.paths_ambiguous_ixp += rhs.paths_ambiguous_ixp;
  lhs.paths_no_setter += rhs.paths_no_setter;
  lhs.observations += rhs.observations;
  lhs.records_malformed += rhs.records_malformed;
  lhs.peer_session_resets += rhs.peer_session_resets;
  lhs.pending_torn_down += rhs.pending_torn_down;
  return lhs;
}

PassiveExtractor::PassiveExtractor(std::vector<IxpContext> ixps,
                                   bgp::RelFn relationships,
                                   PassiveConfig config)
    : PassiveExtractor(
          std::make_shared<const std::vector<IxpContext>>(std::move(ixps)),
          std::move(relationships), config) {}

PassiveExtractor::PassiveExtractor(
    std::shared_ptr<const std::vector<IxpContext>> ixps,
    bgp::RelFn relationships, PassiveConfig config)
    : PassiveExtractor(
          std::make_shared<const AttributionIndex>(std::move(ixps)),
          std::move(relationships), config) {}

PassiveExtractor::PassiveExtractor(
    std::shared_ptr<const AttributionIndex> attribution,
    bgp::RelFn relationships, PassiveConfig config)
    : attribution_(std::move(attribution)),
      relationships_(std::move(relationships)),
      config_(config) {
  if (!attribution_) throw InvalidArgument("passive: null attribution index");
  by_ixp_.resize(ixps().size());
}

void PassiveExtractor::set_sink(ObservationSink sink,
                                std::size_t batch_size) {
  if (stats_.paths_seen != 0 || stats_.observations != 0)
    throw InvalidArgument("passive: set_sink after input was consumed");
  sink_ = std::move(sink);
  sink_batch_ = batch_size == 0 ? 1 : batch_size;
}

std::size_t PassiveExtractor::attribute_ixps(
    const std::vector<Community>& communities) {
  attr_scratch_.clear();
  comm_scratch_.clear();
  tagged_scratch_.clear();
  const std::size_t words = attribution_->words();
  mask_scratch_.assign((3 + communities.size()) * words, 0);
  std::uint64_t* const candidates = mask_scratch_.data();
  std::uint64_t* const vetoed = candidates + words;
  std::uint64_t* const rs_encoded = vetoed + words;
  std::uint64_t* tags = rs_encoded + words;
  for (const Community community : communities) {
    if (!attribution_->match(community, tags, vetoed, rs_encoded)) continue;
    for (std::size_t w = 0; w < words; ++w) candidates[w] |= tags[w];
    tagged_scratch_.push_back(community);
    tags += words;
  }
  // An IXP is a candidate when it tags some community and every peer the
  // combination targets is one of its members (section 4.2's
  // disambiguation rule).
  std::size_t strong = 0;  // attributions where a value encodes the RS ASN
  const std::uint64_t* const rows = rs_encoded + words;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t left = candidates[w] & ~vetoed[w]; left != 0;
         left &= left - 1) {
      const int bit = std::countr_zero(left);
      const std::uint64_t mask = std::uint64_t{1} << bit;
      Attribution attribution;
      attribution.ixp_index = w * 64 + static_cast<std::size_t>(bit);
      attribution.comm_begin =
          static_cast<std::uint32_t>(comm_scratch_.size());
      for (std::size_t k = 0; k < tagged_scratch_.size(); ++k)
        if (rows[k * words + w] & mask)
          comm_scratch_.push_back(tagged_scratch_[k]);
      attribution.comm_end = static_cast<std::uint32_t>(comm_scratch_.size());
      attribution.rs_encoded = (rs_encoded[w] & mask) != 0;
      if (attribution.rs_encoded) ++strong;
      attr_scratch_.push_back(attribution);
    }
  }
  return strong;
}

Asn PassiveExtractor::identify_setter(const AsPath& path,
                                      const IxpContext& ixp) {
  // Collapse prepending in place (the scratch equivalent of
  // path.deduplicated()) and record the member positions as we go.
  flat_scratch_.clear();
  member_pos_scratch_.clear();
  for (const Asn asn : path.asns()) {
    if (!flat_scratch_.empty() && flat_scratch_.back() == asn) continue;
    if (ixp.is_member(asn))
      member_pos_scratch_.push_back(
          static_cast<std::uint32_t>(flat_scratch_.size()));
    flat_scratch_.push_back(asn);
  }
  const auto& asns = flat_scratch_;
  const auto& member_positions = member_pos_scratch_;

  // Case 1: fewer than two members -- the RS crossing is not in the path.
  if (member_positions.size() < 2) return 0;

  // Case 2: exactly two members -- the setter is the one closest to the
  // origin (the prefix side).
  if (member_positions.size() == 2) {
    const std::size_t a = member_positions[0];
    const std::size_t b = member_positions[1];
    // The crossing must be a direct adjacency; members separated by other
    // ASes did not exchange this route over the route server.
    if (b != a + 1) return 0;
    return asns[b];
  }

  // Case 3: more than two members -- locate the single p2p step among the
  // adjacent member pairs using AS relationships, then take the side of
  // that step closest to the prefix.
  if (!relationships_) return 0;
  Asn setter = 0;
  for (std::size_t k = 0; k + 1 < member_positions.size(); ++k) {
    const std::size_t i = member_positions[k];
    const std::size_t j = member_positions[k + 1];
    if (j != i + 1) continue;  // not adjacent: not an RS crossing
    const auto rel = relationships_(asns[i], asns[j]);
    if (!rel || *rel != bgp::Rel::P2P) continue;
    if (setter != 0) return 0;  // two p2p candidates: cannot pinpoint
    setter = asns[j];
  }
  return setter;
}

void PassiveExtractor::emit(std::size_t index, Observation observation) {
  // Stamp with the stream clock, not the record that settled it: the
  // clock is a running max, so per-extractor emission timestamps are
  // monotone -- the invariant the live watermark merge sorts by.
  observation.timestamp = clock_;
  auto& bucket = by_ixp_[index];
  bucket.push_back(std::move(observation));
  ++stats_.observations;
  if (sink_) {
    if (bucket.size() >= sink_batch_) {
      sink_(index, std::move(bucket));
      bucket = {};
      bucket.reserve(sink_batch_);
    }
  } else {
    view_dirty_ = true;
  }
}

void PassiveExtractor::consume_path(const AsPath& path,
                                    const IpPrefix& prefix,
                                    const std::vector<Community>& communities,
                                    Source source) {
  ++stats_.paths_seen;
  if (path.has_cycle() || path.has_reserved_asn()) {
    ++stats_.paths_dirty;
    return;
  }
  const std::size_t strong = attribute_ixps(communities);
  if (attr_scratch_.empty()) {
    ++stats_.paths_no_rs_values;
    return;
  }
  if (strong == 0 && attr_scratch_.size() > 1) {
    // Multiple weak (EXCLUDE-only) candidates: the excluded-AS combination
    // exists at more than one IXP. Unresolvable.
    ++stats_.paths_ambiguous_ixp;
    return;
  }
  bool attributed = false;
  for (const Attribution& attribution : attr_scratch_) {
    // With any strong candidate present, the weak ones are superseded.
    if (strong > 0 && !attribution.rs_encoded) continue;
    const Asn setter =
        identify_setter(path, ixps()[attribution.ixp_index]);
    if (setter == 0) continue;
    Observation observation;
    observation.setter = setter;
    observation.prefix = prefix;
    observation.communities.assign(
        comm_scratch_.begin() + attribution.comm_begin,
        comm_scratch_.begin() + attribution.comm_end);
    observation.source = source;
    emit(attribution.ixp_index, std::move(observation));
    attributed = true;
  }
  if (!attributed) ++stats_.paths_no_setter;
}

namespace {

/// Advance `cursor`, resyncing past malformed records when tolerated.
/// Returns End once the stream is exhausted (or abandoned).
mrt::MrtCursor::Event advance(mrt::MrtCursor& cursor,
                              const PassiveConfig& config,
                              PassiveStats& stats) {
  for (;;) {
    try {
      return cursor.next();
    } catch (const ParseError&) {
      if (!config.tolerate_malformed) throw;
      ++stats.records_malformed;
      if (!cursor.resync()) return mrt::MrtCursor::Event::End;
    }
  }
}

}  // namespace

void PassiveExtractor::consume_table_dump(
    std::span<const std::uint8_t> archive) {
  mrt::MrtCursor cursor(archive);
  for (;;) {
    const auto event = advance(cursor, config_, stats_);
    if (event == mrt::MrtCursor::Event::End) break;
    if (event != mrt::MrtCursor::Event::RibEntry)
      continue;  // BGP4MP in a mixed stream: not a RIB entry
    const mrt::RibEntryView& entry = cursor.rib_entry();
    consume_path(entry.attrs->as_path, *entry.prefix,
                 entry.attrs->communities, Source::Passive);
  }
}

void PassiveExtractor::settle(const PendingKey& key, const Pending& entry,
                              std::uint32_t now) {
  const std::uint32_t age = now - entry.announced_at;
  if (age < config_.min_duration_s) {
    ++stats_.paths_transient;  // short-lived: likely misconfiguration
  } else {
    consume_path(entry.path, key.second, entry.communities,
                 Source::Passive);
  }
}

void PassiveExtractor::evict_pending(std::uint32_t now) {
  // The window entry a FIFO record stands for, or end() when the record is
  // stale (its announcement was withdrawn, replaced or torn down).
  const auto live =
      [this](const std::pair<PendingKey, std::uint32_t>& record) {
        const auto it = pending_.find(record.first);
        return it != pending_.end() && it->second.announced_at == record.second
                   ? it
                   : pending_.end();
      };
  // Drop stale FIFO fronts so the deque stays proportional to the live
  // window; `front` ends as the live entry of the first surviving record.
  auto front = pending_.end();
  const auto skip_stale = [&] {
    while (!pending_fifo_.empty() &&
           (front = live(pending_fifo_.front())) == pending_.end())
      pending_fifo_.pop_front();
  };
  skip_stale();
  // A long-lived announcement stuck at the front shields stale entries
  // behind it from the pop loop; once they are the majority, compact in
  // place (order-preserving, amortized O(1) per update since at most
  // pending_.size() entries survive). The front record is live, so it
  // stays the front.
  if (pending_fifo_.size() > 2 * pending_.size() + 16) {
    std::deque<std::pair<PendingKey, std::uint32_t>> kept;
    for (auto& record : pending_fifo_)
      if (live(record) != pending_.end()) kept.push_back(std::move(record));
    pending_fifo_ = std::move(kept);
  }
  if (config_.max_pending_announcements == 0) return;
  while (pending_.size() > config_.max_pending_announcements &&
         front != pending_.end()) {
    // The window is full: the oldest standing announcement is settled
    // as if the observation period ended for it now.
    pending_fifo_.pop_front();
    settle(front->first, front->second, now);
    pending_.erase(front);
    front = pending_.end();
    skip_stale();
  }
}

void PassiveExtractor::consume_update(std::uint32_t timestamp, Asn peer_asn,
                                      const bgp::UpdateMessage& update) {
  if (timestamp > clock_) clock_ = timestamp;
  for (const auto& prefix : update.withdrawn) {
    const auto key = std::make_pair(peer_asn, prefix);
    auto it = pending_.find(key);
    if (it == pending_.end()) continue;
    settle(key, it->second, timestamp);
    pending_.erase(it);
  }
  for (const auto& prefix : update.nlri) {
    const auto key = std::make_pair(peer_asn, prefix);
    const auto [it, fresh] = pending_.try_emplace(key);
    // Re-announcement: the earlier version lived long enough only if it
    // aged past the threshold.
    if (!fresh) settle(key, it->second, timestamp);
    it->second.announced_at = timestamp;
    it->second.path = update.attrs.as_path;
    it->second.communities = update.attrs.communities;
    pending_fifo_.emplace_back(key, timestamp);
  }
  evict_pending(timestamp);
}

void PassiveExtractor::peer_session_reset(Asn peer_asn,
                                          std::uint32_t timestamp) {
  if (timestamp > clock_) clock_ = timestamp;
  ++stats_.peer_session_resets;
  // pending_ is ordered by (peer, prefix), so the peer's announcements
  // form one contiguous range; a default IpPrefix (0.0.0.0/0) is the
  // minimum, making this the range's first entry.
  auto it = pending_.lower_bound(std::make_pair(peer_asn, IpPrefix{}));
  while (it != pending_.end() && it->first.first == peer_asn) {
    // Same semantics as a withdrawal arriving at the session boundary:
    // announcements that aged past min_duration settle as stable, the
    // rest count as transient. Stale FIFO entries are pruned lazily.
    settle(it->first, it->second, clock_);
    ++stats_.pending_torn_down;
    it = pending_.erase(it);
  }
}

void PassiveExtractor::flush_pending() {
  // Announcements still standing at the end of the window are stable.
  for (const auto& [key, entry] : pending_)
    consume_path(entry.path, key.second, entry.communities,
                 Source::Passive);
  pending_.clear();
  pending_fifo_.clear();
}

void PassiveExtractor::consume_update_stream(
    std::span<const std::uint8_t> archive) {
  // TABLE_DUMP_V2 records in a mixed stream are stepped over without
  // being decoded (parse_updates tolerance: even an orphaned RIB record
  // must not abort an update ingest).
  mrt::MrtCursor cursor(archive, mrt::MrtCursor::Skip::TableDumpV2);
  for (;;) {
    const auto event = advance(cursor, config_, stats_);
    if (event == mrt::MrtCursor::Event::End) break;
    if (event != mrt::MrtCursor::Event::Update) continue;
    const mrt::UpdateView& view = cursor.update();
    consume_update(view.timestamp, view.peer_asn, *view.update);
  }
  flush_pending();
}

void PassiveExtractor::flush_batches() {
  if (!sink_) return;
  for (std::size_t index = 0; index < by_ixp_.size(); ++index) {
    if (by_ixp_[index].empty()) continue;
    sink_(index, std::move(by_ixp_[index]));
    by_ixp_[index] = {};
  }
}

void PassiveExtractor::finish() {
  flush_pending();
  flush_batches();
}

const std::map<std::string, std::vector<Observation>>&
PassiveExtractor::observations() {
  if (sink_)
    throw InvalidArgument(
        "passive: observations() unavailable in streaming mode");
  if (view_dirty_) {
    // Fold the dense buckets into the name-keyed view by move (appending
    // after an earlier fold preserves attribution order), so the product
    // is never held twice.
    for (std::size_t index = 0; index < by_ixp_.size(); ++index) {
      auto& bucket = by_ixp_[index];
      if (bucket.empty()) continue;
      auto& dst = observations_view_[ixps()[index].name];
      if (dst.empty()) {
        dst = std::move(bucket);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(bucket.begin()),
                   std::make_move_iterator(bucket.end()));
      }
      bucket.clear();
    }
    view_dirty_ = false;
  }
  return observations_view_;
}

std::map<std::string, std::vector<Observation>>
PassiveExtractor::take_observations() {
  observations();  // folds any un-viewed buckets (throws in sink mode)
  auto out = std::move(observations_view_);
  observations_view_ = {};
  return out;
}

void PassiveExtractor::serialize_state(ByteWriter& writer) const {
  for (const auto& bucket : by_ixp_)
    if (!bucket.empty())
      throw InvalidArgument(
          "passive: serialize_state with unflushed batches (call "
          "flush_batches first)");
  writer.u32(clock_);
  writer.u64(stats_.paths_seen);
  writer.u64(stats_.paths_dirty);
  writer.u64(stats_.paths_transient);
  writer.u64(stats_.paths_no_rs_values);
  writer.u64(stats_.paths_ambiguous_ixp);
  writer.u64(stats_.paths_no_setter);
  writer.u64(stats_.observations);
  writer.u64(stats_.records_malformed);
  writer.u64(stats_.peer_session_resets);
  writer.u64(stats_.pending_torn_down);
  writer.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [key, entry] : pending_) {
    writer.u32(key.first);
    codec::write_prefix(writer, key.second);
    writer.u32(entry.announced_at);
    codec::write_path(writer, entry.path);
    codec::write_communities(writer, entry.communities);
  }
  writer.u32(static_cast<std::uint32_t>(pending_fifo_.size()));
  for (const auto& [key, announced_at] : pending_fifo_) {
    writer.u32(key.first);
    codec::write_prefix(writer, key.second);
    writer.u32(announced_at);
  }
}

void PassiveExtractor::restore_state(ByteReader& reader) {
  // Parse the full image into locals first: a ParseError anywhere must
  // leave the extractor exactly as it was.
  const std::uint32_t clock = reader.u32();
  PassiveStats stats;
  stats.paths_seen = reader.u64();
  stats.paths_dirty = reader.u64();
  stats.paths_transient = reader.u64();
  stats.paths_no_rs_values = reader.u64();
  stats.paths_ambiguous_ixp = reader.u64();
  stats.paths_no_setter = reader.u64();
  stats.observations = reader.u64();
  stats.records_malformed = reader.u64();
  stats.peer_session_resets = reader.u64();
  stats.pending_torn_down = reader.u64();
  const std::size_t pending_count =
      codec::read_count(reader, 21, "announce-window entry");
  std::map<PendingKey, Pending> pending;
  auto hint = pending.end();
  for (std::size_t i = 0; i < pending_count; ++i) {
    PendingKey key;
    key.first = reader.u32();
    key.second = codec::read_prefix(reader);
    if (!pending.empty() && !(std::prev(pending.end())->first < key))
      throw ParseError("checkpoint: announce-window keys not sorted");
    Pending entry;
    entry.announced_at = reader.u32();
    entry.path = codec::read_path(reader);
    entry.communities = codec::read_communities(reader);
    hint = pending.emplace_hint(hint, std::move(key), std::move(entry));
  }
  const std::size_t fifo_count =
      codec::read_count(reader, 13, "announce-window FIFO entry");
  std::deque<std::pair<PendingKey, std::uint32_t>> fifo;
  for (std::size_t i = 0; i < fifo_count; ++i) {
    PendingKey key;
    key.first = reader.u32();
    key.second = codec::read_prefix(reader);
    const std::uint32_t announced_at = reader.u32();
    fifo.emplace_back(std::move(key), announced_at);
  }

  clock_ = clock;
  stats_ = stats;
  pending_ = std::move(pending);
  pending_fifo_ = std::move(fifo);
}

}  // namespace mlp::core
