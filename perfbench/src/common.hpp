// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// the metric report, process memory, and the span recorder used by traced
// runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] with linear interpolation; 0 for an empty set.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// A value measured over [start, end].
struct Timed {
  Clock::time_point start;
  Clock::time_point end;
  double value = 0;
};

/// The interval from `start` to now, valued in seconds.
inline Timed timed_since(Clock::time_point start) {
  const auto end = Clock::now();
  return Timed{start, end, std::chrono::duration<double>(end - start).count()};
}

/// For as long as it lives, samples in 100 ms slots how much CPU other
/// work took from this machine: the hypervisor's steal plus the CPU time
/// of every other process, read from /proc/stat against this process's
/// own CPU clock. Where /proc/stat is unreadable every slot reads 0.
class InterferenceMonitor {
 public:
  InterferenceMonitor();
  ~InterferenceMonitor();
  InterferenceMonitor(const InterferenceMonitor&) = delete;
  InterferenceMonitor& operator=(const InterferenceMonitor&) = delete;

  /// Mean interference over [start, end] in CPUs, weighted by how much of
  /// each slot the interval covers.
  double over(Clock::time_point start, Clock::time_point end) const;
  /// Mean interference since construction, in CPUs.
  double mean() const;

 private:
  struct Slot {
    Clock::time_point end;
    double cpus = 0;
  };
  void run();

  const Clock::time_point begin_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The values of the samples that saw no more interference than the
/// median sample did: every sample on a quiet host, the quieter half
/// while another tenant's bursts come and go.
std::vector<double> quiet(const std::vector<Timed>& samples,
                          const InterferenceMonitor& monitor);

/// A benchmark outcome that means the system answered wrongly.
class OracleFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Metrics of one run, by name (units live with the metric tables in
/// main.cpp).
struct Report {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the open-loop generator fell behind or the backlog grew:
  /// the latency figures of such a run are not reported.
  bool valid = true;
  std::string invalid_reason;

  void e2e(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { per_layer[name] = value; }
};

/// Peak resident set (VmHWM) in MB, and its reset (clear_refs = 5).
double peak_rss_mb();
void reset_peak_rss();

/// In-memory span log of a traced run: name, start, end, parent span and
/// request id. Spans are appended by one thread at a time (each recorder
/// is owned by the thread that records into it) and written out once,
/// when the run ends.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;  // index into names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index of the enclosing span, -1 for none
    std::uint64_t request = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint32_t intern(const std::string& name);
  /// Open a span; returns its index (or -1 when disabled).
  std::int64_t open(std::uint32_t name, std::uint64_t request,
                    std::int64_t parent = -1);
  void close(std::int64_t index);
  /// Record a finished span measured by the caller.
  void add(std::uint32_t name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request = 0, std::int64_t parent = -1);

  /// Sum of (duration minus the part covered by child spans) per name, in
  /// milliseconds.
  std::map<std::string, double> self_ms() const;
  /// Durations of every span named `name`, in microseconds.
  std::vector<double> durations_us(const std::string& name) const;

  /// Append every span as one JSON line to `path`.
  void write_jsonl(const std::string& path, const std::string& source) const;

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t name, std::uint64_t request = 0,
             std::int64_t parent = -1)
      : log_(log), index_(log.open(name, request, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace perfbench
