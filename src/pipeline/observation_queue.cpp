#include "pipeline/observation_queue.hpp"

#include <limits>
#include <string>
#include <utility>

#include "core/state_codec.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

namespace {

/// Drainable: strictly below the frontier (a source may still emit AT
/// its own watermark, so ties with it must wait) -- except under the
/// UINT32_MAX sentinel (no open source), which admits everything.
bool below_frontier(std::uint32_t timestamp, std::uint32_t frontier) {
  return frontier == std::numeric_limits<std::uint32_t>::max() ||
         timestamp < frontier;
}

}  // namespace

ObservationQueue::ObservationQueue(std::size_t n_sources,
                                   MergePolicy /*policy*/)
    : sources_(n_sources), open_count_(n_sources) {}

std::size_t ObservationQueue::add_source() {
  util::MutexLock lock(mutex_);
  sources_.emplace_back();
  ++open_count_;
  return sources_.size() - 1;
}

void ObservationQueue::push(std::size_t source,
                            std::vector<core::Observation> batch) {
  if (batch.empty()) return;
  bool drainable = false;
  {
    util::MutexLock lock(mutex_);
    if (source >= sources_.size())
      throw InvalidArgument("observation queue: bad source index");
    drainable = below_frontier(batch.front().timestamp, min_watermark_locked());
    auto& pending = sources_[source].pending;
    pending.insert(pending.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }
  // A batch at or above the frontier gives a blocked pop() nothing to
  // take; the watermark or close that releases it notifies instead.
  if (drainable) ready_.notify_one();
}

void ObservationQueue::set_watermark(std::size_t source,
                                     std::uint32_t watermark) {
  {
    util::MutexLock lock(mutex_);
    if (source >= sources_.size())
      throw InvalidArgument("observation queue: bad source index");
    Source& entry = sources_[source];
    if (watermark <= entry.watermark) return;  // monotone
    entry.watermark = watermark;
  }
  ready_.notify_one();
}

void ObservationQueue::close(std::size_t source) {
  {
    util::MutexLock lock(mutex_);
    if (source >= sources_.size())
      throw InvalidArgument("observation queue: bad source index");
    if (!sources_[source].closed) {
      sources_[source].closed = true;
      --open_count_;
    }
  }
  ready_.notify_one();
}

void ObservationQueue::reopen(std::size_t source) {
  {
    util::MutexLock lock(mutex_);
    if (source >= sources_.size())
      throw InvalidArgument("observation queue: bad source index");
    if (sources_[source].closed) {
      sources_[source].closed = false;
      ++open_count_;
    }
  }
  ready_.notify_one();
}

std::uint32_t ObservationQueue::min_watermark_locked() const {
  std::uint32_t min = std::numeric_limits<std::uint32_t>::max();
  bool constrained = false;
  for (const Source& source : sources_) {
    if (source.closed) continue;
    constrained = true;
    if (source.watermark < min) min = source.watermark;
  }
  // No open source: nothing can emit below any timestamp, so everything
  // queued is drainable (the sentinel max).
  return constrained ? min : std::numeric_limits<std::uint32_t>::max();
}

bool ObservationQueue::merge_pop_locked(std::vector<core::Observation>& out) {
  const std::uint32_t min = min_watermark_locked();
  out.clear();
  for (;;) {
    std::size_t best = sources_.size();
    std::uint32_t best_ts = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const auto& pending = sources_[i].pending;
      if (pending.empty()) continue;
      const std::uint32_t ts = pending.front().timestamp;
      if (!below_frontier(ts, min)) continue;
      if (best == sources_.size() || ts < best_ts) {
        best = i;  // equal timestamps: lowest source index wins
        best_ts = ts;
      }
    }
    if (best == sources_.size()) break;
    auto& pending = sources_[best].pending;
    out.push_back(std::move(pending.front()));
    pending.pop_front();
  }
  return !out.empty();
}

bool ObservationQueue::try_pop(std::vector<core::Observation>& out) {
  util::MutexLock lock(mutex_);
  return merge_pop_locked(out);
}

bool ObservationQueue::has_ready() {
  util::MutexLock lock(mutex_);
  const std::uint32_t min = min_watermark_locked();
  for (const Source& source : sources_)
    if (!source.pending.empty() &&
        below_frontier(source.pending.front().timestamp, min))
      return true;
  return false;
}

std::uint32_t ObservationQueue::min_watermark() {
  util::MutexLock lock(mutex_);
  return min_watermark_locked();
}

std::size_t ObservationQueue::depth() {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const Source& source : sources_) total += source.pending.size();
  return total;
}

std::size_t ObservationQueue::depth(std::size_t source) {
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  return sources_[source].pending.size();
}

void ObservationQueue::serialize_state(ByteWriter& writer) {
  util::MutexLock lock(mutex_);
  writer.u32(static_cast<std::uint32_t>(sources_.size()));
  for (const Source& source : sources_) {
    writer.u8(source.closed ? 1 : 0);
    writer.u32(source.watermark);
    writer.u32(static_cast<std::uint32_t>(source.pending.size()));
    for (const core::Observation& observation : source.pending)
      core::codec::write_observation(writer, observation);
  }
}

void ObservationQueue::restore_state(ByteReader& reader) {
  // Parse the full image into locals first: a ParseError anywhere must
  // leave the queue exactly as it was.
  const std::size_t count =
      core::codec::read_count(reader, 9, "queue source");
  std::vector<Source> sources(count);
  for (Source& source : sources) {
    const std::uint8_t closed = reader.u8();
    if (closed > 1)
      throw ParseError("checkpoint: queue source flags " +
                       std::to_string(closed));
    source.closed = closed != 0;
    source.watermark = reader.u32();
    const std::size_t pending =
        core::codec::read_count(reader, 14, "queued observation");
    for (std::size_t i = 0; i < pending; ++i)
      source.pending.push_back(core::codec::read_observation(reader));
  }

  {
    util::MutexLock lock(mutex_);
    if (count != sources_.size())
      throw ParseError("checkpoint: queue source count " +
                       std::to_string(count) + " does not match the " +
                       std::to_string(sources_.size()) +
                       " registered feeds");
    sources_ = std::move(sources);
    open_count_ = 0;
    for (const Source& source : sources_)
      if (!source.closed) ++open_count_;
  }
  ready_.notify_all();
}

bool ObservationQueue::pop(std::vector<core::Observation>& out) {
  util::MutexLock lock(mutex_);
  for (;;) {
    if (merge_pop_locked(out)) return true;
    if (open_count_ == 0) return false;  // closed and fully drained
    ready_.wait(mutex_);
  }
}

}  // namespace mlp::pipeline
