#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "obs/trace.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string host_fingerprint() {
  std::string cpu = "unknown CPU";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const char* simd = "baseline";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) simd = "avx512f";
  else if (__builtin_cpu_supports("avx2")) simd = "avx2";
  else if (__builtin_cpu_supports("sse4.2")) simd = "sse4.2";
#endif
  return cpu + " | " + simd + " | " + std::to_string(std::thread::hardware_concurrency()) +
         " cores";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  CpuTimes out;
  if (!(stat >> cpu) || cpu != "cpu") return out;
  for (std::uint64_t& f : fields)
    if (!(stat >> f)) return out;
  out.steal = fields[7];
  for (std::uint64_t f : fields) out.total += f;
  return out;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0
                    : static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

namespace {
cpu_set_t g_all_cpus;
bool g_pinned = false;
}  // namespace

int pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof g_all_cpus, &g_all_cpus) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &g_all_cpus)) last = c;
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return -1;
  g_pinned = true;
  return last;
}

void unpin() {
  if (g_pinned) (void)sched_setaffinity(0, sizeof g_all_cpus, &g_all_cpus);
}

// --- spans ------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name) : log_(log.enabled() ? &log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->next_id();
  span_.parent = t_current_span;
  span_.tid = tcm::obs::trace_thread_id();
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = tcm::obs::Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = tcm::obs::Tracer::now_ns();
  t_current_span = saved_parent_;
  log_->add(span_);
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans)
    if (s.parent != 0) child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const auto it = child_us.find(s.id);
    ++t.count;
    t.total_us += total;
    t.self_us += total - (it == child_us.end() ? 0.0 : it->second);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  first ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    first = false;
  }
  for (const tcm::obs::SpanRecord& s : tcm::obs::Tracer::instance().spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"tcm\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"trace_id\":%llu}}",
                  first ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.trace_id));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
