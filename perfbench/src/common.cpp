#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

namespace {

struct CpuCounters {
  bool valid = false;
  double busy_s = 0;   // user + nice + system, all CPUs
  double steal_s = 0;  // all CPUs
  double own_s = 0;    // this process, all threads
};

CpuCounters read_counters() {
  CpuCounters out;
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  out.own_s = static_cast<double>(ts.tv_sec) +
              static_cast<double>(ts.tv_nsec) * 1e-9;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu")
    return out;
  const double tick = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  out.valid = true;
  out.busy_s = (user + nice + system) * tick;
  out.steal_s = steal * tick;
  return out;
}

double status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    double kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

InterferenceMonitor::InterferenceMonitor()
    : begin_(Clock::now()), thread_([this] { run(); }) {}

InterferenceMonitor::~InterferenceMonitor() {
  stop_ = true;
  thread_.join();
}

void InterferenceMonitor::run() {
  CpuCounters last = read_counters();
  auto last_t = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const CpuCounters now = read_counters();
    const auto now_t = Clock::now();
    const double dt = std::chrono::duration<double>(now_t - last_t).count();
    double cpus = 0;
    if (now.valid && last.valid && dt > 0) {
      const double others = std::max(
          0.0, (now.busy_s - last.busy_s) - (now.own_s - last.own_s));
      cpus = (others + now.steal_s - last.steal_s) / dt;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(Slot{now_t, cpus});
    }
    last = now;
    last_t = now_t;
  }
}

double InterferenceMonitor::over(Clock::time_point start,
                                 Clock::time_point end) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.empty()) return 0;
  double weighted = 0, covered = 0;
  Clock::time_point slot_start = begin_;
  for (const Slot& slot : slots_) {
    const auto a = std::max(start, slot_start);
    const auto b = std::min(end, slot.end);
    if (a <= b) {
      // A sample shorter than the clock's tick still weighs something.
      const double w =
          std::max(std::chrono::duration<double>(b - a).count(), 1e-9);
      weighted += w * slot.cpus;
      covered += w;
    }
    slot_start = slot.end;
  }
  return covered > 0 ? weighted / covered : slots_.back().cpus;
}

double InterferenceMonitor::mean() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0;
  for (const Slot& slot : slots_) sum += slot.cpus;
  return slots_.empty() ? 0 : sum / static_cast<double>(slots_.size());
}

std::vector<double> quiet(const std::vector<Timed>& samples,
                          const InterferenceMonitor& monitor) {
  std::vector<double> load;
  load.reserve(samples.size());
  for (const Timed& sample : samples)
    load.push_back(monitor.over(sample.start, sample.end));
  const double cut = median(load);
  std::vector<double> out;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (load[i] <= cut) out.push_back(samples[i].value);
  return out;
}

double peak_rss_mb() { return status_kb("VmHWM:") / 1024.0; }

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::uint32_t SpanLog::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::int64_t SpanLog::open(std::uint32_t name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = ns_since_epoch(Clock::now());
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      ns_since_epoch(Clock::now());
}

void SpanLog::add(std::uint32_t name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t request,
                  std::int64_t parent) {
  if (!enabled_) return;
  spans_.push_back(
      Span{name, ns_since_epoch(start), ns_since_epoch(end), parent, request});
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[names_[span.name]] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& span : spans_)
    if (span.name == it->second)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  return out;
}

void SpanLog::write_jsonl(const std::string& path,
                          const std::string& source) const {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return;
  for (const Span& span : spans_)
    std::fprintf(out,
                 "{\"src\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 source.c_str(), names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  std::fclose(out);
}

}  // namespace perfbench
