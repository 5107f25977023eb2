// Small helpers of the serving benchmark: order statistics, seed mixing,
// host description, peak memory, CPU steal, and the benchmark's own span
// recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Deterministic 64-bit mix of a seed and a stream index (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

double mean(const std::vector<double>& v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// "CPU model | SIMD level | N cores".
std::string host_fingerprint();

// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// The machine's CPU time counters (/proc/stat, in clock ticks).
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();
// Share of all CPU time between two readings that the hypervisor stole.
double steal_share(const CpuTimes& before, const CpuTimes& after);

// --- CPU placement -----------------------------------------------------------
// Every request passes from thread to thread (client, HTTP handler, batcher,
// inference worker and back). On a virtual machine a hand-off to an idle
// vCPU waits until the hypervisor runs that vCPU, a wait that follows the
// load of other tenants. The benchmark therefore runs the stack and its
// clients on one CPU, where a hand-off is a context switch; no measured
// traffic has two operations in flight, so one CPU costs it no parallelism.

// Restricts the calling thread, and the threads it starts afterwards, to the
// last CPU it may run on. Returns that CPU, or -1 when the affinity cannot
// be read or set (the run then goes on unpinned).
int pin_to_one_cpu();
// Lets the calling thread run on every CPU the process could use before
// pin_to_one_cpu(); for input generation outside the measured time.
void unpin();

// --- spans ------------------------------------------------------------------
// Spans recorded around the benchmark's calls into the program's modules.
// Each span names its parent (the span open on the same thread when it
// started), so a layer's self time is its duration minus its children's.
// Spans stay in memory while a traced window runs and are written out as
// Chrome trace_event JSON when the run ends.
struct Span {
  const char* name = nullptr;  // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void add(const Span& span);
  std::vector<Span> spans() const;
  std::uint64_t next_id();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// Records one span into `log` when the log is enabled; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

// Self time per span name: total duration minus the time covered by direct
// children, summed over all spans of that name, with the span count.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

// Chrome trace_event JSON of the benchmark spans plus the program's own
// sampled spans (obs::Tracer), one event list.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
