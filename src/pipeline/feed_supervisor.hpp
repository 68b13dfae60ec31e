// Per-feed health supervision for LiveSession lanes.
//
// Lane-level recovery is *local*: a malformed record resyncs, a dropped
// connection redials. None of that notices a feed that is PERSISTENTLY
// sick -- a lane resyncing forever, flapping past its reconnect budget,
// or gone silent keeps consuming resources and gates the cross-feed
// watermark frontier indefinitely. FeedSupervisor is the layer above: a
// per-lane state machine over error budgets that trades a sick feed's
// output for the session's liveness.
//
//     Healthy --> Degraded --> Quarantined --> Dead
//        ^___________|  ^______(probation)|
//
//   Healthy      budgets comfortable; observations merge.
//   Degraded     an error budget is half-spent (elevated malformed rate,
//                repeated dirty disconnects). Still merging -- Degraded
//                is a warning level, visible in FeedStats/on_health_change.
//   Quarantined  a budget is blown. The lane's queue sources are closed
//                (sentinel published) so the merge frontier advances
//                without it; bytes are still ingested and counted but
//                observations are discarded. A probation run of clean
//                records readmits the feed (sources reopen).
//   Dead         terminal: quarantined max_quarantines times, or an
//                unrecoverable failure (reconnect budget exhausted, a
//                fatal ingest error). Bytes are dropped at the door.
//
// The supervisor itself is pure bookkeeping -- no locks, no clock, no
// queue access. LiveSession feeds it events under the lane mutex and
// enacts the returned Action (close/reopen queue sources, fire the
// health callback). That split keeps every transition unit-testable as
// plain function calls and keeps the fuzzer (fuzz_framer) able to drive
// it with arbitrary event streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::pipeline {

enum class FeedHealth : std::uint8_t {
  Healthy,
  Degraded,
  Quarantined,
  Dead,
};

const char* to_string(FeedHealth health);

/// Error budgets. Defaults tolerate the occasional bad record or flap a
/// real collector feed produces, and trip on sustained sickness.
struct SupervisorConfig {
  /// Master switch: disabled supervisors report Healthy forever.
  bool enabled = true;

  /// Sliding window of record outcomes the malformed rate is judged over.
  std::size_t malformed_window = 256;
  /// No rate verdicts until this many records are in the window (a single
  /// bad first record is 100% malformed; do not quarantine on it).
  std::size_t min_window_records = 32;
  /// Window malformed-rate at or above which the feed is Degraded.
  double degraded_malformed_rate = 0.05;
  /// Window malformed-rate at or above which the feed is Quarantined.
  double quarantine_malformed_rate = 0.5;

  /// Consecutive dirty disconnects (partial record lost) that quarantine
  /// the feed. Half this budget marks it Degraded.
  std::size_t dirty_disconnect_budget = 8;

  /// Quarantine entries after which the feed is Dead (1 = the first
  /// quarantine kills, no readmission). 0 = never dies by quarantine
  /// count alone.
  std::size_t max_quarantines = 4;
  /// Clean records a Quarantined feed must produce, without a malformed
  /// record in between, to be readmitted. The same run length also clears
  /// the consecutive-dirty counter of a merging feed.
  std::size_t probation_records = 64;

  /// Quarantine a feed with no ingest activity for this long on the
  /// session clock. 0 = stall watchdog off.
  std::uint64_t stall_timeout_ms = 0;
};

/// One recorded health transition.
struct HealthTransition {
  FeedHealth from = FeedHealth::Healthy;
  FeedHealth to = FeedHealth::Healthy;
  /// Records ingested by this feed when the transition fired.
  std::uint64_t at_record = 0;
  /// Human-readable trigger ("malformed rate 0.52 over 256 records").
  std::string reason;
};

class FeedSupervisor {
 public:
  /// What the owner must enact after an event. Quarantine/Die close the
  /// lane's queue sources; Readmit reopens them. [[nodiscard]] on the
  /// type: silently dropping an Action means the lane's queue sources
  /// never close/reopen and the merge frontier wedges.
  enum class [[nodiscard]] Action : std::uint8_t {
    None,
    Quarantine,
    Readmit,
    Die
  };

  FeedSupervisor() = default;
  explicit FeedSupervisor(SupervisorConfig config) : config_(config) {}

  /// A record left the framer: decoded, skipped, or malformed.
  Action note_record(bool malformed);
  /// The transport dropped; dirty = a partial record was lost with it.
  Action note_disconnect(bool dirty);
  /// Unrecoverable lane failure (reconnect budget exhausted, ingest
  /// exception): straight to Dead. Works even when `enabled` is false --
  /// disabling supervision mutes the budget judgements, not facts.
  Action note_fatal(const std::string& reason);
  /// Stall watchdog poll. Quarantines when `now_ms` is past the activity
  /// deadline; pair with note_activity() on every ingest.
  Action check_stall(std::uint64_t now_ms);
  void note_activity(std::uint64_t now_ms) { last_activity_ms_ = now_ms; }

  FeedHealth health() const { return health_; }
  /// Dead feeds drop bytes at the door.
  bool ingesting() const { return health_ != FeedHealth::Dead; }
  /// Quarantined/Dead feeds' observations are discarded, not merged.
  bool merging() const {
    return health_ == FeedHealth::Healthy || health_ == FeedHealth::Degraded;
  }

  const SupervisorConfig& config() const { return config_; }
  /// Malformed fraction of the current window; 0 while under-filled.
  double malformed_rate() const;
  std::size_t consecutive_dirty_disconnects() const {
    return consecutive_dirty_;
  }
  /// Clean records accumulated toward readmission (Quarantined only).
  std::size_t probation_clean_records() const { return probation_clean_; }
  std::uint64_t records_seen() const { return records_seen_; }
  std::uint64_t times_quarantined() const { return times_quarantined_; }
  /// Total transitions fired, including any beyond the recorded cap.
  std::uint64_t transition_count() const { return transition_count_; }
  /// The first kMaxRecordedTransitions transitions, in order. The cap
  /// keeps memory bounded under adversarial (fuzzed) event streams.
  const std::vector<HealthTransition>& transitions() const
      MLP_LIFETIMEBOUND {
    return transitions_;
  }

  static constexpr std::size_t kMaxRecordedTransitions = 64;

  /// Checkpoint hook: persist the health level, the outcome window (in
  /// logical oldest-first order), every budget counter and the recorded
  /// transitions. The config is NOT serialized -- it is session wiring,
  /// re-supplied on construction; the activity stamp is wall-clock time
  /// of a dead process and is re-armed by the owner after restore.
  void serialize_state(ByteWriter& writer) const;

  /// Checkpoint hook: replace the judged state with a serialized image.
  /// Parses and validates the whole image before committing (a
  /// ParseError leaves the supervisor untouched). A window longer than
  /// the current config's cap keeps only the newest entries.
  void restore_state(ByteReader& reader);

 private:
  Action evaluate();
  Action quarantine(std::string reason);
  void transition(FeedHealth to, std::string reason);
  std::size_t window_filled() const;

  SupervisorConfig config_;
  FeedHealth health_ = FeedHealth::Healthy;

  // Ring buffer of record outcomes (1 = malformed).
  std::vector<std::uint8_t> window_;
  std::size_t window_head_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_malformed_ = 0;

  std::size_t consecutive_dirty_ = 0;
  std::uint64_t records_since_dirty_ = 0;
  std::size_t probation_clean_ = 0;
  std::uint64_t records_seen_ = 0;
  std::uint64_t times_quarantined_ = 0;
  std::uint64_t transition_count_ = 0;
  std::uint64_t last_activity_ms_ = 0;
  std::vector<HealthTransition> transitions_;
};

}  // namespace mlp::pipeline
