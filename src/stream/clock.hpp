// Injectable time source for the live front end.
//
// Wall-clock behaviour (the stall watchdog, chaos stall faults,
// reconnect backoff pacing) is untestable against the real clock: a test
// either sleeps for real or races the scheduler. Clock is
// the seam -- production code holds a Clock and asks it for milliseconds;
// tests substitute a VirtualClock they advance by hand, so a "feed went
// silent for 30 seconds" scenario replays in microseconds and
// byte-identically on every run.
//
//   SystemClock  -- monotonic wall time (std::chrono::steady_clock) and a
//                   real sleep; the default everywhere.
//   VirtualClock -- a manually advanced counter. sleep_ms() advances the
//                   clock itself instead of blocking, so a single-threaded
//                   soak replay runs at full speed while downstream
//                   watchdogs still observe the elapsed virtual time.
//
// Both are thread-safe: now_ms()/sleep_ms()/advance_ms() may be called
// from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace mlp::stream {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Milliseconds on this clock's monotone timeline. Only differences are
  /// meaningful; the epoch is unspecified.
  virtual std::uint64_t now_ms() = 0;

  /// Let `ms` milliseconds of this clock's time pass.
  virtual void sleep_ms(std::uint64_t ms) = 0;
};

/// Monotonic wall time; sleep_ms really sleeps.
class SystemClock final : public Clock {
 public:
  std::uint64_t now_ms() override;
  void sleep_ms(std::uint64_t ms) override;
};

/// Deterministic test/replay clock: time moves only when told to.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(std::uint64_t start_ms = 0) : now_(start_ms) {}

  std::uint64_t now_ms() override {
    return now_.load(std::memory_order_relaxed);
  }

  /// A virtual sleeper IS the advancer: the time it asks to wait for
  /// simply elapses, unblocking anything watching now_ms().
  void sleep_ms(std::uint64_t ms) override { advance_ms(ms); }

  void advance_ms(std::uint64_t ms) {
    now_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> now_;
};

/// The process-wide SystemClock instance components default to when no
/// clock is injected.
std::shared_ptr<Clock> system_clock();

}  // namespace mlp::stream
