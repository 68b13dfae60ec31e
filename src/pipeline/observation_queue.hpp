// Ordered multi-producer batch queue feeding one MlpInferenceEngine.
//
// Observation order matters to the engine (a re-announcement replaces the
// per-prefix policy), so concurrent producers cannot simply interleave.
// Each producer owns a source index, and the consumer drains one
// deterministic k-way timestamp merge: every producer publishes a
// monotone watermark (its extractor's stream clock); the consumer may pop
// any observation strictly below the minimum watermark over open
// sources, smallest (timestamp, source index) first with per-source FIFO
// for ties. Because each source's observation timestamps are
// non-decreasing and a source never emits below its own watermark, the
// drained sequence is the unique stable merge of the per-source
// sequences -- a pure function of per-source contents, for any arrival
// interleaving and thread count. Open-ended sources therefore merge
// continuously instead of buffering until close; a source that publishes
// no watermark holds the frontier at 0 until it closes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.hpp"
#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::pipeline {

/// The cross-source drain. The timestamp-watermark merge is the only
/// one; this enum and the constructor parameter below stay solely
/// because the end-to-end benchmark (perfbench/) constructs queues with
/// them.
enum class MergePolicy {
  /// Deterministic k-way timestamp merge under per-source watermarks.
  Watermark,
};

class ObservationQueue {
 public:
  /// `n_sources` producers, indexed [0, n_sources). May be 0 when every
  /// producer registers later through add_source (the live multi-feed
  /// path). The policy argument selects nothing (see MergePolicy).
  explicit ObservationQueue(std::size_t n_sources,
                            MergePolicy policy = MergePolicy::Watermark);

  /// Register one more producer; returns its source index (registration
  /// order). Safe while consumers poll with try_pop/has_ready -- the new
  /// source simply extends the merge.
  std::size_t add_source();

  /// Append one batch from `source`. Empty batches are dropped.
  /// Observation timestamps must be non-decreasing per source (the
  /// extractor clock guarantees it).
  void push(std::size_t source, std::vector<core::Observation> batch);

  /// Publish `source`'s monotone watermark -- a promise that every
  /// future push from it carries timestamps >= the watermark. Raising it
  /// can make other sources' observations drainable.
  void set_watermark(std::size_t source, std::uint32_t watermark);

  /// Mark `source` finished; it stops constraining the merge and its
  /// remaining observations become drainable.
  void close(std::size_t source);

  /// Undo a close() -- the source constrains the merge again and may
  /// push again (a quarantined feed readmitted after probation). Its
  /// watermark survives the round trip, so the monotone promise to the
  /// merge is unbroken.
  void reopen(std::size_t source);

  /// Blocking pop of the next ready batch. Returns false once every
  /// source is closed and drained.
  [[nodiscard]] bool pop(std::vector<core::Observation>& out);

  /// Non-blocking pop: false when nothing is ready right now (everything
  /// queued is at or above the frontier), whether or not more input may
  /// still arrive. Live consumers poll with this instead of parking in
  /// pop() on a queue that only closes at end of session.
  [[nodiscard]] bool try_pop(std::vector<core::Observation>& out);

  /// True when try_pop would return a batch.
  [[nodiscard]] bool has_ready();

  /// The current merge frontier: minimum watermark over open sources,
  /// UINT32_MAX when nothing constrains the drain (every source closed).
  /// Everything strictly below it has been handed to the consumer or is
  /// about to be; the observability hook the query server pairs with an
  /// epoch's backlog gauge.
  std::uint32_t min_watermark();

  /// Observations queued but not yet drained, summed over sources. The
  /// merge-backlog gauge: what sits at or above the frontier waiting for
  /// a lagging feed.
  std::size_t depth();
  /// One producer's share of depth().
  std::size_t depth(std::size_t source);

  /// Checkpoint hook: persist every source's queued-but-undrained
  /// observations, watermark and closed flag. The drained prefix lives in
  /// the engine; this is exactly the remainder above the merge frontier.
  void serialize_state(ByteWriter& writer);

  /// Checkpoint hook: replace the per-source state with a serialized
  /// image. The image's source count must equal the queue's current
  /// source count (the session re-registers its feeds before restoring);
  /// parses and validates the whole image before committing, so a
  /// ParseError leaves the queue untouched. open_count_ is recomputed
  /// from the restored closed flags.
  void restore_state(ByteReader& reader);

 private:
  struct Source {
    /// Pushed observations flattened to per-source FIFO.
    std::deque<core::Observation> pending;
    std::uint32_t watermark = 0;
    bool closed = false;
  };

  /// Minimum watermark over open sources; UINT32_MAX sentinel (drain
  /// everything) when no source constrains.
  std::uint32_t min_watermark_locked() const MLP_REQUIRES(mutex_);
  /// Fill `out` with the watermark-eligible merge front; false when none
  /// is eligible.
  bool merge_pop_locked(std::vector<core::Observation>& out)
      MLP_REQUIRES(mutex_);

  util::Mutex mutex_;
  util::CondVar ready_;
  std::vector<Source> sources_ MLP_GUARDED_BY(mutex_);
  std::size_t open_count_ MLP_GUARDED_BY(mutex_) = 0;
};

}  // namespace mlp::pipeline
