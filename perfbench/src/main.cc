// tcm_perfbench: one benchmark for the /v1/predict and /v1/search surfaces.
//
// Builds the serving stack the way tcm_serve does (stack.h), drives it over
// loopback HTTP with closed-loop clients, checks every reply (checks.h) and
// prints the metrics as one JSON object on the last line of stdout:
//
//   tcm_perfbench --workload predict_cold --seed 1 --seconds 15 --trace 0
//
// Workloads: predict_cold, predict_hot, search_beam, search_mcts (see
// README.md). --trace 0 prints the end-to-end metrics; --trace 1 runs the
// workload with tracing switched on and off every second, replays the calls
// into each layer from the benchmark's own code, writes a Chrome trace and
// prints the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <condition_variable>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/json.h"
#include "api/wire.h"
#include "bench_util.h"
#include "checks.h"
#include "jobs/schedule_memory.h"
#include "model/dataset.h"
#include "model/featurize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/beam_search.h"
#include "search/candidates.h"
#include "search/evaluator.h"
#include "search/mcts.h"
#include "serve/fingerprint.h"
#include "sim/executor.h"
#include "stack.h"
#include "transforms/apply.h"

namespace fs = std::filesystem;
using namespace perfbench;
using tcm::api::Json;
using tcm::ir::Program;
using tcm::transforms::Schedule;

namespace {

// --- configuration -----------------------------------------------------------

constexpr int kSetups = 11;          // set-ups per run; setup_s is their median
constexpr int kColdClients = 1;      // predict_cold keep-alive connections
constexpr int kColdRound = 256;      // predict_cold requests generated per round
constexpr int kMaxSchedules = 16;    // schedules per predict_cold request
constexpr int kHotPairs = 64;        // predict_hot working set
constexpr int kHotCycles = 16;       // predict_hot cycles through the set per pass
constexpr int kJobBlock = 20;        // search_*: jobs between probes (four rounds of the mix)
constexpr int kHotProbeCycles = 16;  // search_*: hot-set cycles sent after every job block
constexpr auto kTracePhase = std::chrono::seconds(1);  // traced run: tracing on/off period
constexpr int kBeamWidth = 4;
constexpr int kMctsIterations = 48;
constexpr int kReplayPrograms = 6;   // programs searched in-process when traced
constexpr int kReplaySample = 256;   // bodies / pairs replayed per layer
constexpr int kGenThreads = 4;       // input generation between rounds
constexpr int kMaxErrorsShown = 5;

enum class Kind { kPredictCold, kPredictHot, kSearchBeam, kSearchMcts };

struct Args {
  Kind kind = Kind::kPredictCold;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path scratch = ".bench_build/run";  // temporary stacks and the Chrome trace
};

bool is_predict(Kind k) { return k == Kind::kPredictCold || k == Kind::kPredictHot; }

// The traced run switches tracing on and off every kTracePhase; the count
// of switches is odd while tracing is on. An operation notes the count when
// it starts and ends: end() is 0 (untraced) or 1 (traced) when no switch
// happened in between, -1 otherwise.
std::atomic<std::uint64_t> g_trace_switches{0};

class TracePhase {
 public:
  TracePhase() : start_(g_trace_switches.load()) {}
  int end() const { return g_trace_switches.load() == start_ ? static_cast<int>(start_ % 2) : -1; }

 private:
  std::uint64_t start_;
};

// --- outcome of one traffic window -------------------------------------------

struct JobRecord {
  std::shared_ptr<const SearchProgram> program;
  bool beam = true;
  Exchange submit, events, snapshot, rescore;
  std::string rescore_body;
  double job_ms = 0;
  int phase = 0;  // TracePhase of submit → end of the event stream
};

// Operation latencies split by the tracing phase they ran in entirely
// (TracePhase); operations that straddle a switch are left out.
struct Phased {
  std::vector<double> ms[2];  // [0] untraced, [1] traced
  void add(int phase, double op_ms) {
    if (phase == 0 || phase == 1) ms[phase].push_back(op_ms);
  }
};

// A stretch of predict traffic sent in one go: a predict_cold round, a
// predict_hot pass or a search workload's hot-set probe.
struct Slice {
  double seconds = 0;
  std::size_t ops = 0;
  double work = 0;
};

// One kind of traffic of a run.
struct Traffic {
  double seconds = 0;      // measured time
  double ops = 0;          // requests or jobs
  double work = 0;         // predictions or evaluations
  std::vector<double> ms;  // per-operation latency, in send order (jobs: submit to
                           // the end of the event stream)
  std::vector<Slice> slices;  // predict traffic only
};

struct Window {
  Traffic predict, search;
  // Latencies by tracing phase (traced run): /v1/predict requests and jobs.
  Phased predict_phased, job_phased;
  std::int64_t evaluations = 0;
  std::vector<double> job_wall_ms;      // the job's own wall_seconds
  std::vector<double> job_overhead_ms;  // job_ms minus wall_seconds
  // Non-streaming HTTP round trips and POST body sizes (api ledger).
  std::vector<double> rtt_ms;
  std::vector<double> post_bytes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Kept for the traced replay.
  std::vector<std::string> predict_bodies;
  std::vector<std::pair<std::shared_ptr<const Program>, Schedule>> pairs;
  std::vector<Program> best_programs;  // each job's program under its best schedule
};

// Counts a failed operation and prints the first few reasons.
class Failures {
 public:
  void add(Window& w, const std::string& why) {
    ++w.failed;
    if (shown_++ < kMaxErrorsShown) std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }

 private:
  int shown_ = 0;
};
Failures g_failures;

// --- predict traffic ---------------------------------------------------------

class SearchProbe;
// Runs the probe's jobs up to `fraction` of its programs (search traffic below).
void advance_probe(SearchProbe* probe, double fraction, SpanLog& spans);

// Sends `inputs` from `clients` keep-alive connections, each taking the
// next unsent request (closed loop). Returns the replies in input order and
// the wall time from the first send to the last reply.
double fire(std::vector<std::unique_ptr<tcm::api::HttpClient>>& clients,
            const std::vector<const PredictInput*>& inputs, std::vector<Exchange>& replies,
            SpanLog& spans) {
  replies.assign(inputs.size(), Exchange{});
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (std::size_t i = next++; i < inputs.size(); i = next++) {
        ScopedSpan span(spans, "client.predict");
        const TracePhase phase;
        replies[i] = exchange(*c, "POST", "/v1/predict", inputs[i]->body);
        replies[i].phase = phase.end();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return seconds_between(t0, Clock::now());
}

// Checks a run of fired requests that took `seconds` and adds them to the
// window's predict traffic as one slice.
void record_predicts(Stack& stack, const std::vector<const PredictInput*>& inputs,
                     const std::vector<Exchange>& replies, double seconds, Window& w) {
  Slice slice{seconds, inputs.size(), 0};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const PredictInput& in = *inputs[i];
    ++w.attempted;
    slice.work += static_cast<double>(in.reference.size());
    w.predict.ms.push_back(replies[i].ms);
    w.predict_phased.add(replies[i].phase, replies[i].ms);
    w.rtt_ms.push_back(replies[i].ms);
    w.post_bytes.push_back(static_cast<double>(in.body.size()));
    const std::string why =
        check_predict_reply(replies[i].status, replies[i].body, in.reference, stack.model_version());
    if (!why.empty()) g_failures.add(w, why);
    if (w.predict_bodies.size() < static_cast<std::size_t>(kReplaySample)) {
      w.predict_bodies.push_back(in.body);
      for (const Schedule& s : in.schedules)
        if (w.pairs.size() < static_cast<std::size_t>(kReplaySample)) w.pairs.emplace_back(in.program, s);
    }
  }
  w.predict.seconds += slice.seconds;
  w.predict.ops += static_cast<double>(slice.ops);
  w.predict.work += slice.work;
  w.predict.slices.push_back(slice);
}

std::vector<std::unique_ptr<tcm::api::HttpClient>> connect(Stack& stack, int n) {
  std::vector<std::unique_ptr<tcm::api::HttpClient>> out;
  for (int i = 0; i < n; ++i)
    out.push_back(std::make_unique<tcm::api::HttpClient>("127.0.0.1", stack.port(),
                                                         std::chrono::milliseconds(30000)));
  return out;
}

// predict_cold: every request carries a program never sent before. Inputs
// are generated (with their references) between rounds, outside the
// measured time, on kGenThreads threads while the server idles. Request i
// has 1 + i % 4 computations; each block of 16 requests carries a seeded
// permutation of 1..16 schedules, so every round has the same mix of sizes.
class PredictCold {
 public:
  PredictCold(Stack& stack, std::uint64_t seed) : stack_(stack), seed_(seed) {
    clients_ = connect(stack, kColdClients);
    // Warm-up: one round from a separate stream (connections, arenas,
    // inference plans).
    std::vector<PredictInput> warm = generate(mix_seed(seed, 0xC0FFEE), 0, 64);
    std::vector<const PredictInput*> ptrs;
    for (const PredictInput& in : warm) ptrs.push_back(&in);
    std::vector<Exchange> replies;
    SpanLog off;
    fire(clients_, ptrs, replies, off);
  }

  Window run(double seconds, SpanLog& spans, SearchProbe* probe) {
    Window w;
    while (w.predict.seconds < seconds) {
      advance_probe(probe, w.predict.seconds / seconds, spans);
      std::vector<PredictInput> round = generate(seed_, next_index_, kColdRound);
      next_index_ += kColdRound;
      std::vector<const PredictInput*> ptrs;
      for (PredictInput& in : round)
        if (seen_.insert(in.program_fp).second) ptrs.push_back(&in);
      std::vector<Exchange> replies;
      record_predicts(stack_, ptrs, replies, fire(clients_, ptrs, replies, spans), w);
    }
    return w;
  }

 private:
  static int schedules_of(std::uint64_t seed, std::uint64_t index) {
    std::vector<int> counts(kMaxSchedules);
    for (int k = 0; k < kMaxSchedules; ++k) counts[static_cast<std::size_t>(k)] = k + 1;
    tcm::Rng rng(mix_seed(seed, index / kMaxSchedules));
    rng.shuffle(counts);
    return counts[index % kMaxSchedules];
  }

  std::vector<PredictInput> generate(std::uint64_t seed, std::uint64_t base, int n) {
    std::vector<std::optional<PredictInput>> slots(static_cast<std::size_t>(n));
    std::vector<std::thread> threads;
    for (int t = 0; t < kGenThreads; ++t)
      threads.emplace_back([&, t] {
        unpin();
        for (int i = t; i < n; i += kGenThreads) {
          const std::uint64_t index = base + static_cast<std::uint64_t>(i);
          slots[static_cast<std::size_t>(i)] = make_predict_input(
              seed, index, 1 + static_cast<int>(index % 4), schedules_of(seed ^ 0x5C4ED, index),
              stack_.reference_model(), stack_.features());
        }
      });
    for (std::thread& t : threads) t.join();
    std::vector<PredictInput> out;
    for (auto& s : slots)
      if (s) out.push_back(std::move(*s));
    return out;
  }

  Stack& stack_;
  const std::uint64_t seed_;
  std::vector<std::unique_ptr<tcm::api::HttpClient>> clients_;
  std::uint64_t next_index_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

// kHotPairs one-schedule requests (16 programs each with 1, 2, 3 and 4
// computations), each sent twice so every pair is in the feature cache.
std::vector<PredictInput> hot_set(Stack& stack, std::uint64_t seed) {
  std::vector<PredictInput> inputs;
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; static_cast<int>(inputs.size()) < kHotPairs; ++i) {
    const int comps = 1 + static_cast<int>(inputs.size() % 4);
    std::optional<PredictInput> in = make_predict_input(mix_seed(seed, 0x4075), i, comps, 1,
                                                        stack.reference_model(), stack.features());
    if (in && seen.insert(in->program_fp).second) inputs.push_back(std::move(*in));
  }
  std::vector<const PredictInput*> ptrs;
  for (const PredictInput& in : inputs) ptrs.push_back(&in);
  std::vector<std::unique_ptr<tcm::api::HttpClient>> clients = connect(stack, 1);
  std::vector<Exchange> replies;
  SpanLog off;
  for (int pass = 0; pass < 2; ++pass) fire(clients, ptrs, replies, off);
  return inputs;
}

// predict_hot: one connection cycling through the hot set.
class PredictHot {
 public:
  PredictHot(Stack& stack, std::uint64_t seed) : stack_(stack), inputs_(hot_set(stack, seed)) {
    clients_ = connect(stack, 1);
    for (int c = 0; c < kHotCycles; ++c)
      for (const PredictInput& in : inputs_) ptrs_.push_back(&in);
  }

  Window run(double seconds, SpanLog& spans, SearchProbe* probe) {
    Window w;
    while (w.predict.seconds < seconds) {
      advance_probe(probe, w.predict.seconds / seconds, spans);
      std::vector<Exchange> replies;
      record_predicts(stack_, ptrs_, replies, fire(clients_, ptrs_, replies, spans), w);
    }
    return w;
  }

 private:
  Stack& stack_;
  const std::vector<PredictInput> inputs_;
  std::vector<std::unique_ptr<tcm::api::HttpClient>> clients_;
  std::vector<const PredictInput*> ptrs_;
};

// --- search traffic ----------------------------------------------------------

// One job: submit, follow the event stream until it ends, fetch the
// snapshot, re-score the best schedule through /v1/predict.
JobRecord run_job(tcm::api::HttpClient& client, std::shared_ptr<const SearchProgram> program,
                  bool beam, SpanLog& spans) {
  ScopedSpan op(spans, "client.search_job");
  JobRecord rec;
  rec.program = std::move(program);
  rec.beam = beam;
  const std::string body =
      "{\"program\":" + rec.program->program_json +
      (beam ? ",\"method\":\"beam\",\"beam_width\":" + std::to_string(kBeamWidth) + "}"
            : ",\"method\":\"mcts\",\"iterations\":" + std::to_string(kMctsIterations) + "}");
  const Clock::time_point t0 = Clock::now();
  const TracePhase phase;
  {
    ScopedSpan span(spans, "client.submit");
    rec.submit = exchange(client, "POST", "/v1/search", body);
  }
  if (rec.submit.status != 202 && rec.submit.status != 200) return rec;
  tcm::api::Result<Json> submitted = Json::parse(rec.submit.body);
  const Json* id = submitted.ok() ? submitted->find("job_id") : nullptr;
  if (id == nullptr || !id->is_string()) return rec;
  {
    ScopedSpan span(spans, "client.events");
    rec.events = exchange(client, "GET", "/v1/search/" + id->as_string() + "/events");
  }
  rec.job_ms = seconds_between(t0, Clock::now()) * 1e3;
  rec.phase = phase.end();
  {
    ScopedSpan span(spans, "client.snapshot");
    rec.snapshot = exchange(client, "GET", "/v1/search/" + id->as_string());
  }
  tcm::api::Result<Json> snapshot = Json::parse(rec.snapshot.body);
  const Json* schedule = snapshot.ok() ? snapshot->find("schedule") : nullptr;
  if (schedule == nullptr) return rec;
  rec.rescore_body =
      "{\"program\":" + rec.program->program_json + ",\"schedule\":" + schedule->dump() + "}";
  {
    ScopedSpan span(spans, "client.rescore");
    rec.rescore = exchange(client, "POST", "/v1/predict", rec.rescore_body);
  }
  rec.events.body.clear();  // the stream's lines are not checked (see record_job)
  return rec;
}

void record_job(Stack& stack, JobRecord& rec, Window& w) {
  ++w.attempted;
  w.post_bytes.push_back(static_cast<double>(rec.program->program_json.size()));
  w.rtt_ms.push_back(rec.submit.ms);
  w.rtt_ms.push_back(rec.snapshot.ms);
  w.rtt_ms.push_back(rec.rescore.ms);
  w.post_bytes.push_back(static_cast<double>(rec.rescore_body.size()));
  ++w.search.ops;
  w.search.ms.push_back(rec.job_ms);
  w.job_phased.add(rec.phase, rec.job_ms);
  const Program& p = rec.program->program;
  std::string why;
  if (rec.submit.status != 202 && rec.submit.status != 200)
    why = "search: submit HTTP " + std::to_string(rec.submit.status) + ": " + rec.submit.body;
  else if (rec.events.status != 200)
    why = "search: event stream HTTP " + std::to_string(rec.events.status);
  // The stream's last line is not required to be the terminal one: the
  // manager marks a job DONE before it appends the DONE line, so now and
  // then a stream ends on a RUNNING line. The snapshot below must be DONE.
  JobOutcome outcome;
  Program scheduled;
  if (why.empty()) why = check_job_snapshot(p, rec.snapshot.status, rec.snapshot.body, &outcome, &scheduled);
  if (why.empty() && rec.program->tiny) why = check_semantics(p, scheduled);
  if (why.empty()) {
    std::vector<double> rescored;
    try {
      const std::vector<double> reference =
          reference_predictions(stack.reference_model(), stack.features(), p, {outcome.schedule});
      why = check_predict_reply(rec.rescore.status, rec.rescore.body, reference,
                                stack.model_version(), &rescored);
    } catch (const std::exception& e) {
      why = std::string("search: no reference for the best schedule: ") + e.what();
    }
    if (why.empty() && rec.beam) why = check_rescore_exact(outcome.best_speedup, rescored);
  }
  if (!why.empty()) {
    g_failures.add(w, why);
    return;
  }
  w.evaluations += outcome.evaluations;
  w.search.work += static_cast<double>(outcome.evaluations);
  w.job_wall_ms.push_back(outcome.wall_seconds * 1e3);
  w.job_overhead_ms.push_back(rec.job_ms - outcome.wall_seconds * 1e3);
  if (w.predict_bodies.size() < static_cast<std::size_t>(kReplaySample))
    w.predict_bodies.push_back(rec.rescore_body);
  w.best_programs.push_back(std::move(scheduled));
}

// Checks the jobs, which took `seconds` of measured time, and returns
// them as the window's search traffic.
Window search_window(Stack& stack, std::vector<JobRecord>& jobs, double seconds) {
  Window w;
  w.search.seconds = seconds;
  for (JobRecord& rec : jobs) record_job(stack, rec, w);
  return w;
}

// One closed-loop search client: it submits its next job once the previous
// one ended, in blocks of kJobBlock jobs, until the blocks have taken
// `seconds`. After every block, while no job runs, the hot-set probe sends
// kHotProbeCycles cycles of the hot set's one-schedule predicts on a second
// connection: the predict figures of a search workload. Only the blocks'
// own time counts as search time. Checks run after the window.
Window run_search(Stack& stack, ProgramStream& stream, const std::vector<PredictInput>& hot,
                  bool beam, double seconds, SpanLog& spans) {
  std::vector<std::unique_ptr<tcm::api::HttpClient>> job_conn = connect(stack, 1);
  std::vector<std::unique_ptr<tcm::api::HttpClient>> probe_conn = connect(stack, 1);
  std::vector<const PredictInput*> probe;
  for (int c = 0; c < kHotProbeCycles; ++c)
    for (const PredictInput& in : hot) probe.push_back(&in);
  std::vector<JobRecord> jobs;
  std::vector<std::vector<Exchange>> replies;
  std::vector<double> probe_seconds;
  double search_s = 0;
  while (search_s < seconds) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kJobBlock; ++i) jobs.push_back(run_job(*job_conn[0], stream.next(), beam, spans));
    search_s += seconds_between(t0, Clock::now());
    replies.emplace_back();
    probe_seconds.push_back(fire(probe_conn, probe, replies.back(), spans));
  }
  Window w = search_window(stack, jobs, search_s);
  for (std::size_t i = 0; i < replies.size(); ++i)
    record_predicts(stack, probe, replies[i], probe_seconds[i], w);
  return w;
}

// The companion probe's programs: the benchsuite at nine sizes from 1/3 to
// 1/32, without shape repeats (85 programs). They do not depend on the
// seed, so the probe's figures vary only with timing.
std::vector<Program> probe_programs() {
  std::vector<Program> out;
  std::unordered_set<std::uint64_t> shapes;
  for (std::int64_t scale : {3, 4, 5, 6, 8, 12, 16, 24, 32})
    for (Program& p : benchsuite_programs(scale))
      if (shapes.insert(tcm::serve::shape_fingerprint(p)).second) out.push_back(std::move(p));
  return out;
}

// The companion probe of the predict workloads: sequential beam jobs on one
// connection, spread between the predict rounds so that a stall of the
// host hits a few of them, never the whole probe. The probe's measured time
// is its jobs' own (nothing else runs meanwhile).
class SearchProbe {
 public:
  explicit SearchProbe(Stack& stack)
      : stack_(stack), stream_(0, probe_programs()), total_(probe_programs().size()) {
    conns_ = connect(stack, 1);
  }

  void advance(double fraction, SpanLog& spans) {
    const std::size_t target =
        std::min(total_, static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(total_))));
    while (records_.size() < target) {
      const Clock::time_point t0 = Clock::now();
      JobRecord rec = run_job(*conns_[0], stream_.next(), /*beam=*/true, spans);
      busy_s_ += seconds_between(t0, Clock::now());
      records_.push_back(std::move(rec));
    }
  }

  Window finish(SpanLog& spans) {
    advance(1.0, spans);
    return search_window(stack_, records_, busy_s_);
  }

 private:
  Stack& stack_;
  ProgramStream stream_;
  const std::size_t total_;
  std::vector<std::unique_ptr<tcm::api::HttpClient>> conns_;
  std::vector<JobRecord> records_;
  double busy_s_ = 0;
};

void advance_probe(SearchProbe* probe, double fraction, SpanLog& spans) {
  if (probe != nullptr) probe->advance(fraction, spans);
}

// --- one workload behind one stack ----------------------------------------

class Workload {
 public:
  // Builds the stack, the inputs and runs the warm-up: everything setup_s
  // counts.
  explicit Workload(const Args& args)
      : args_(args),
        stack_(args.scratch),
        stream_(args.seed, args.kind == Kind::kSearchBeam || args.kind == Kind::kSearchMcts
                               ? benchsuite_programs(4)
                               : std::vector<Program>{}) {
    SpanLog off;
    switch (args.kind) {
      case Kind::kPredictCold: cold_ = std::make_unique<PredictCold>(stack_, args.seed); break;
      case Kind::kPredictHot: hot_ = std::make_unique<PredictHot>(stack_, args.seed); break;
      case Kind::kSearchBeam:
      case Kind::kSearchMcts: {
        // Warm-up: two jobs on benchsuite programs at 1/64 size, a size no
        // job of the run uses (a fixed cost, whatever the seed).
        std::vector<Program> fixed = benchsuite_programs(64);
        fixed.resize(2);
        ProgramStream warm(0, std::move(fixed));
        std::vector<std::unique_ptr<tcm::api::HttpClient>> conns = connect(stack_, 1);
        for (int i = 0; i < 2; ++i)
          run_job(*conns[0], warm.next(), args.kind == Kind::kSearchBeam, off);
        hot_inputs_ = hot_set(stack_, args.seed);
        break;
      }
    }
  }

  Stack& stack() { return stack_; }
  ProgramStream& stream() { return stream_; }

  // The workload's main traffic for `seconds`; a predict workload runs
  // `probe`'s jobs (when given) between its rounds.
  Window main(double seconds, SpanLog& spans, SearchProbe* probe = nullptr) {
    switch (args_.kind) {
      case Kind::kPredictCold: return cold_->run(seconds, spans, probe);
      case Kind::kPredictHot: return hot_->run(seconds, spans, probe);
      case Kind::kSearchBeam: return run_search(stack_, stream_, hot_inputs_, true, seconds, spans);
      case Kind::kSearchMcts: return run_search(stack_, stream_, hot_inputs_, false, seconds, spans);
    }
    return {};
  }

 private:
  const Args& args_;
  Stack stack_;
  ProgramStream stream_;
  std::unique_ptr<PredictCold> cold_;
  std::unique_ptr<PredictHot> hot_;
  std::vector<PredictInput> hot_inputs_;  // search_*: the hot-set probe's requests
};

// --- metrics output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double rate(const Traffic& t, double count) { return t.seconds > 0 ? count / t.seconds : 0; }

// Median over the slices of a per-slice rate: a burst of CPU steal on a
// shared host slows a few slices, not the run's figure.
template <typename F>
double slice_median(const Traffic& t, F per_slice) {
  std::vector<double> v;
  for (const Slice& s : t.slices)
    if (s.seconds > 0) v.push_back(per_slice(s));
  return quantile(std::move(v), 0.5);
}

// Latency quantile q of the predict traffic: consecutive slices are merged
// until each group holds at least ten samples beyond q (20 for p50, 1000
// for p99), and the result is the median over the groups; with fewer
// samples than one group needs, the pooled quantile.
double slice_quantile(const Traffic& t, double q) {
  const std::size_t need = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
  std::vector<double> per_group;
  std::size_t begin = 0, end = 0;
  for (const Slice& s : t.slices) {
    end += s.ops;
    if (end - begin < need) continue;
    per_group.push_back(quantile(std::vector<double>(t.ms.begin() + static_cast<std::ptrdiff_t>(begin),
                                                     t.ms.begin() + static_cast<std::ptrdiff_t>(end)),
                                 q));
    begin = end;
  }
  return per_group.empty() ? quantile(t.ms, q) : quantile(std::move(per_group), 0.5);
}

// The end-to-end metrics. `predict` holds the /v1/predict traffic and
// `search` the /v1/search traffic of the run (one of them is the
// workload's main traffic, the other its companion). Predict figures are
// medians over slices; search figures are pooled over all jobs, since no
// two jobs search the same program and slices of jobs differ in their mix.
std::vector<Metric> end_to_end(double setup_s, const Window& predict, const Window& search) {
  const Traffic& p = predict.predict;
  const Traffic& s = search.search;
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"predict_rps", slice_median(p, [](const Slice& x) { return static_cast<double>(x.ops) / x.seconds; }), "req/s"},
      {"predictions_per_s", slice_median(p, [](const Slice& x) { return x.work / x.seconds; }), "1/s"},
      {"predict_p50_ms", slice_quantile(p, 0.5), "ms"},
      {"predict_p99_ms", slice_quantile(p, 0.99), "ms"},
      {"search_jobs_per_s", rate(s, s.ops), "1/s"},
      {"search_evals_per_s", rate(s, s.work), "1/s"},
      {"search_job_p50_ms", quantile(s.ms, 0.5), "ms"},
      {"search_job_p90_ms", quantile(s.ms, 0.9), "ms"},
  };
}

// --- traced run: per-layer replay ------------------------------------------

// Histogram sum/count over a window.
struct HistDelta {
  double sum = 0;
  double count = 0;
  double mean() const { return count > 0 ? sum / count : 0; }
};

class HistWatch {
 public:
  HistWatch(tcm::obs::MetricsRegistry& registry, const char* name, const std::string& labels)
      // Get-or-create returns the program's own instrument; help and bounds
      // are ignored for an existing one.
      : h_(registry.histogram(name, "", labels, {1.0})) {}
  void start() { before_ = h_.snapshot(); }
  HistDelta stop() const {
    const tcm::obs::Histogram::Snapshot after = h_.snapshot();
    return {after.sum - before_.sum, static_cast<double>(after.count - before_.count)};
  }

 private:
  tcm::obs::Histogram& h_;
  tcm::obs::Histogram::Snapshot before_;
};

// Counts what a search scores and records a span around every scoring call.
class CountingEvaluator final : public tcm::search::CandidateEvaluator {
 public:
  CountingEvaluator(tcm::search::CandidateEvaluator& inner, SpanLog& spans, const char* span)
      : inner_(inner), spans_(spans), span_(span) {}
  std::vector<double> evaluate(const Program& p, const std::vector<Schedule>& candidates) override {
    const std::uint64_t pfp = tcm::serve::fingerprint(p);
    for (const Schedule& s : candidates) {
      distinct_.insert(pfp ^ (tcm::serve::fingerprint(s) * 0x9e3779b97f4a7c15ULL));
      if (sample.size() < static_cast<std::size_t>(kReplaySample)) sample.push_back(s);
    }
    scored += static_cast<double>(candidates.size());
    ScopedSpan span(spans_, span_);
    return inner_.evaluate(p, candidates);
  }
  double accounted_seconds() const override { return inner_.accounted_seconds(); }
  std::int64_t evaluations() const override { return inner_.evaluations(); }
  const char* kind() const override { return inner_.kind(); }
  double distinct() const { return static_cast<double>(distinct_.size()); }

  double scored = 0;
  std::vector<Schedule> sample;  // the first kReplaySample scored schedules

 private:
  tcm::search::CandidateEvaluator& inner_;
  SpanLog& spans_;
  const char* span_;
  std::unordered_set<std::uint64_t> distinct_;
};

// Replays beam_search's loop through the same public functions with a span
// around expansion and heuristics. Returns the best schedule and the number
// of candidates scored.
std::pair<Schedule, double> traced_beam(const Program& p, tcm::search::CandidateEvaluator& evaluator,
                                        const tcm::search::BeamSearchOptions& options,
                                        SpanLog& spans) {
  using namespace tcm::search;
  std::vector<Schedule> beam = {Schedule{}};
  Schedule best;
  double best_score = 0, scored_count = 0;
  bool have_best = false;
  const auto score = [&](const std::vector<Schedule>& prefixes) {
    std::vector<Schedule> scored;
    {
      ScopedSpan span(spans, "search.heuristics");
      for (const Schedule& c : prefixes)
        scored.push_back(apply_parallel_vector_heuristics(p, c, options.space));
    }
    const std::vector<double> scores = evaluator.evaluate(p, scored);
    for (std::size_t i = 0; i < scored.size(); ++i)
      if (!have_best || scores[i] > best_score) {
        best_score = scores[i];
        best = scored[i];
        have_best = true;
      }
    scored_count += static_cast<double>(scored.size());
    return scores;
  };
  for (const DecisionPoint& decision : decision_points(p, options.space)) {
    std::vector<Schedule> candidates;
    {
      ScopedSpan span(spans, "search.expand");
      std::unordered_set<std::string> seen;
      for (const Schedule& state : beam)
        for (Schedule& next : expand_decision(p, state, decision, options.space))
          if (seen.insert(next.to_string()).second) candidates.push_back(std::move(next));
    }
    if (candidates.empty()) break;
    const std::vector<double> scores = score(candidates);
    std::vector<std::size_t> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
    std::vector<Schedule> next_beam;
    for (std::size_t i = 0; i < std::min<std::size_t>(options.beam_width, order.size()); ++i)
      next_beam.push_back(candidates[order[i]]);
    beam = std::move(next_beam);
  }
  score(beam);
  return {best, scored_count};
}

// Total duration and count of the spans of each name.
class SpanTotals {
 public:
  explicit SpanTotals(const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      Total& t = by_name_[s.name];
      t.us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      ++t.count;
    }
  }
  double total_us(const char* name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0 : it->second.us;
  }
  double mean_us(const char* name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0 : it->second.us / static_cast<double>(it->second.count);
  }

 private:
  struct Total {
    double us = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Total> by_name_;
};

double per(double total, double n) { return n > 0 ? total / n : 0; }

// Per-layer metrics: the program's own counters and stage histograms over
// the traced window, plus calls into each module replayed from here, each
// timed by its span.
class LayerReport {
 public:
  LayerReport(Workload& workload, Kind kind, std::uint64_t seed, SpanLog& spans)
      : workload_(workload), kind_(kind), seed_(seed), spans_(spans),
        registry_(*workload.stack().service().metrics()),
        queue_wait_(registry_, "tcm_stage_duration_seconds", "stage=\"queue_wait\""),
        featurize_(registry_, "tcm_stage_duration_seconds", "stage=\"featurize\""),
        assemble_(registry_, "tcm_stage_duration_seconds", "stage=\"batch_assemble\""),
        infer_(registry_, "tcm_stage_duration_seconds", "stage=\"infer\""),
        batch_size_(registry_, "tcm_serve_batch_size", ""),
        handler_(registry_, "tcm_http_request_duration_seconds", "") {}

  void start() {
    for (HistWatch* h : {&queue_wait_, &featurize_, &assemble_, &infer_, &batch_size_, &handler_})
      h->start();
    serve_before_ = workload_.stack().service().stats().serve;
  }

  void stop() {
    d_queue_wait_ = queue_wait_.stop();
    d_featurize_ = featurize_.stop();
    d_assemble_ = assemble_.stop();
    d_infer_ = infer_.stop();
    d_batch_size_ = batch_size_.stop();
    d_handler_ = handler_.stop();
    const tcm::serve::ServeStats after = workload_.stack().service().stats().serve;
    cache_hits_ = static_cast<double>(after.cache_hits - serve_before_.cache_hits);
    cache_misses_ = static_cast<double>(after.cache_misses - serve_before_.cache_misses);
    arena_allocs_ = static_cast<double>(after.arena_heap_allocs - serve_before_.arena_heap_allocs);
  }

  // `predict` / `search`: the traced windows of each traffic kind.
  std::vector<Metric> metrics(const Window& predict, const Window& search, double overhead_pct) {
    Stack& stack = workload_.stack();
    const Window& main = is_predict(kind_) ? predict : search;

    // Replays; every call is timed by its span.
    for (const std::string& body : predict.predict_bodies) replay_api(body);
    const Replay search_replay = replay_search();
    const auto& pairs = is_predict(kind_) ? predict.pairs : search_replay.pairs;
    double comps = 0;
    std::vector<tcm::model::FeaturizedProgram> feats;
    for (const auto& [program, schedule] : pairs) {
      std::optional<tcm::model::FeaturizedProgram> f = [&] {
        ScopedSpan span(spans_, "model.featurize");
        return tcm::model::featurize(*program, schedule, stack.features());
      }();
      if (!f) continue;
      comps += static_cast<double>(f->comp_vectors.size());
      feats.push_back(std::move(*f));
    }
    const int batch = std::max(1, static_cast<int>(std::lround(d_batch_size_.mean())));
    const double infer_rows = replay_infer(feats, batch);
    for (const auto& [program, schedule] : search_replay.pairs) {
      ScopedSpan span(spans_, "transforms.apply");
      (void)tcm::transforms::try_apply_schedule(*program, schedule);
    }
    tcm::sim::Executor executor(tcm::sim::MachineModel(), {}, 17);
    for (const Program& p : search.best_programs) {
      ScopedSpan span(spans_, "sim.measure");
      (void)executor.measure_seconds(p);
    }
    replay_memory_store();
    const SpanTotals t(spans_.spans());

    std::vector<Metric> out;
    const double handler_us = d_handler_.mean() * 1e6;
    const double requests = static_cast<double>(main.rtt_ms.size());
    out.push_back({"api.json_parse_us", t.mean_us("api.json_parse"), "us"});
    out.push_back({"api.wire_decode_us", t.mean_us("api.wire_decode"), "us"});
    out.push_back({"api.encode_us", t.mean_us("api.encode"), "us"});
    out.push_back({"api.handler_us", handler_us, "us"});
    out.push_back({"api.outside_handler_us", mean(main.rtt_ms) * 1e3 - handler_us, "us"});
    out.push_back({"api.request_bytes", mean(main.post_bytes), "bytes"});
    // The predict ledger: what the handler's time is not explained by.
    const double attributed = t.mean_us("api.json_parse") + t.mean_us("api.wire_decode") +
                              t.mean_us("api.encode") + per(d_featurize_.sum * 1e6, requests) +
                              (d_queue_wait_.mean() + d_assemble_.mean() + d_infer_.mean()) * 1e6;
    out.push_back({"api.handler_unattributed_us", handler_us - attributed, "us"});

    out.push_back({"serve.queue_wait_us", d_queue_wait_.mean() * 1e6, "us"});
    out.push_back({"serve.featurize_us", d_featurize_.mean() * 1e6, "us"});
    out.push_back({"serve.batch_assemble_us", d_assemble_.mean() * 1e6, "us"});
    out.push_back({"serve.infer_us", d_infer_.mean() * 1e6, "us"});
    out.push_back({"serve.batch_size", d_batch_size_.mean(), "rows"});
    const double lookups = cache_hits_ + cache_misses_;
    out.push_back({"serve.cache_hit_ratio", per(cache_hits_, lookups), "ratio"});
    out.push_back({"serve.cache_lookups", lookups, "count"});
    out.push_back({"serve.arena_heap_allocs", arena_allocs_, "count"});

    out.push_back({"model.featurize_us", t.mean_us("model.featurize"), "us"});
    out.push_back({"model.comp_vectors", per(comps, static_cast<double>(feats.size())), "count"});
    out.push_back({"nn.infer_row_us", per(t.total_us("nn.infer_batch"), infer_rows), "us"});

    // Search: per candidate scored by the real searches; expansion and
    // heuristics per candidate of the beam replay.
    const double scored = search_replay.scored;
    const double expand_us = per(t.total_us("search.expand"), search_replay.replay_scored);
    const double heuristics_us = per(t.total_us("search.heuristics"), search_replay.replay_scored);
    const double score_us = per(t.total_us("search.score"), scored);
    const double wall_us = t.total_us("search.beam") + t.total_us("search.mcts");
    out.push_back({"search.candidates_per_job",
                   per(static_cast<double>(search.evaluations), search.search.ops),
                   "count"});
    out.push_back({"search.distinct_candidate_ratio", per(search_replay.distinct, scored), "ratio"});
    out.push_back({"search.score_us", score_us, "us"});
    out.push_back({"search.expand_us", expand_us, "us"});
    out.push_back({"search.heuristics_us", heuristics_us, "us"});
    out.push_back({"search.unattributed_us",
                   per(wall_us - t.total_us("sim.execute_topk"), scored) - score_us - expand_us -
                       heuristics_us,
                   "us"});
    out.push_back({"transforms.apply_us", t.mean_us("transforms.apply"), "us"});

    out.push_back({"jobs.search_wall_ms", mean(search.job_wall_ms), "ms"});
    out.push_back({"jobs.overhead_ms", mean(search.job_overhead_ms), "ms"});
    out.push_back({"jobs.memory_store_ms", t.mean_us("jobs.memory_store") / 1e3, "ms"});
    std::error_code ec;
    const auto bytes = fs::file_size(stack.memory_path(), ec);
    out.push_back({"jobs.memory_file_bytes", ec ? 0.0 : static_cast<double>(bytes), "bytes"});
    out.push_back({"sim.measure_us", t.mean_us("sim.measure"), "us"});
    out.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
    std::printf("# beam replay matched beam_search on %d of %d programs\n", search_replay.matched,
                search_replay.compared);
    return out;
  }

 private:
  struct Replay {
    double scored = 0, distinct = 0, replay_scored = 0;
    int matched = 0, compared = 0;
    std::vector<std::pair<std::shared_ptr<const Program>, Schedule>> pairs;
  };

  // The predict handler's own calls on one request body.
  void replay_api(const std::string& body) {
    tcm::api::Result<Json> parsed = [&] {
      ScopedSpan span(spans_, "api.json_parse");
      return Json::parse(body);
    }();
    if (!parsed.ok()) return;
    tcm::api::Result<tcm::api::PredictRequest> decoded = [&] {
      ScopedSpan span(spans_, "api.wire_decode");
      return tcm::api::predict_request_from_json(*parsed);
    }();
    if (!decoded.ok()) return;
    tcm::api::PredictResponse response;
    response.predictions.assign(decoded->schedules.size(), {1.2345678901234567, 1});
    ScopedSpan span(spans_, "api.encode");
    (void)tcm::api::to_json(response).dump();
  }

  // The workload's search method in process, through the serving tier's
  // PredictionService, on programs no job has searched; then the beam loop
  // replayed step by step on the same programs (its scores come from the
  // feature cache by then). For MCTS the expansion and heuristics costs per
  // candidate are taken from this beam replay.
  Replay replay_search() {
    Replay r;
    ProgramStream fresh(mix_seed(seed_, 0x5EA4));
    ProgramStream& stream = is_predict(kind_) ? fresh : workload_.stream();
    tcm::search::ModelEvaluator model(workload_.stack().service().raw_service());
    tcm::search::BeamSearchOptions beam;
    beam.beam_width = kBeamWidth;
    for (int i = 0; i < kReplayPrograms; ++i) {
      auto program = std::make_shared<const Program>(stream.next()->program);
      CountingEvaluator counted(model, spans_, "search.score");
      std::optional<Schedule> beam_best;
      if (kind_ == Kind::kSearchMcts) {
        tcm::search::ExecutionEvaluator exec_inner{
            tcm::sim::Executor(tcm::sim::MachineModel(), {}, 17)};
        CountingEvaluator exec(exec_inner, spans_, "sim.execute_topk");
        tcm::search::MctsOptions mo;
        mo.iterations = kMctsIterations;
        mo.seed = tcm::serve::fingerprint(*program);
        ScopedSpan span(spans_, "search.mcts");
        tcm::search::mcts_search(*program, counted, exec, mo);
      } else {
        ScopedSpan span(spans_, "search.beam");
        beam_best = tcm::search::beam_search(*program, counted, beam).best_schedule;
      }
      r.scored += counted.scored;
      r.distinct += counted.distinct();
      for (Schedule& s : counted.sample)
        if (r.pairs.size() < static_cast<std::size_t>(kReplaySample))
          r.pairs.emplace_back(program, std::move(s));
      const auto [replay_best, replay_scored] = traced_beam(*program, model, beam, spans_);
      r.replay_scored += replay_scored;
      if (beam_best) {
        ++r.compared;
        if (*beam_best == replay_best) ++r.matched;
      }
    }
    return r;
  }

  // infer_batch at the window's mean batch size, on up to eight structure
  // groups of `feats`. Returns the rows run.
  double replay_infer(const std::vector<tcm::model::FeaturizedProgram>& feats, int batch) {
    constexpr int kReps = 20;
    tcm::nn::InferenceArena arena;
    tcm::model::SpeedupPredictor& model = workload_.stack().reference_model();
    std::vector<bool> used(feats.size(), false);
    double rows = 0;
    for (std::size_t i = 0, groups = 0; i < feats.size() && groups < 8; ++i) {
      if (used[i]) continue;
      std::vector<const tcm::model::FeaturizedProgram*> group;
      for (std::size_t k = i; k < feats.size(); ++k)
        if (!used[k] && feats[k].same_structure(feats[i])) {
          used[k] = true;
          group.push_back(&feats[k]);
        }
      std::vector<const tcm::model::FeaturizedProgram*> batch_rows;
      for (int r = 0; r < batch; ++r)
        batch_rows.push_back(group[static_cast<std::size_t>(r) % group.size()]);
      const tcm::model::Batch b = tcm::model::make_inference_batch(batch_rows);
      model.infer_batch(b, arena);  // warm the arena for this shape
      for (int rep = 0; rep < kReps; ++rep) {
        ScopedSpan span(spans_, "nn.infer_batch");
        model.infer_batch(b, arena);
      }
      rows += kReps * batch;
      ++groups;
    }
    return rows;
  }

  // ScheduleMemory::store five times on a copy of the run's memory file,
  // so the live memory keeps its state.
  void replay_memory_store() {
    const fs::path copy = workload_.stack().dir() / "memory_copy.json";
    std::error_code ec;
    fs::copy_file(workload_.stack().memory_path(), copy, fs::copy_options::overwrite_existing, ec);
    tcm::jobs::ScheduleMemory memory(ec ? std::string() : copy.string());
    for (std::uint64_t i = 0; i < 5; ++i) {
      tcm::jobs::MemoryEntry entry;
      entry.program_fp = mix_seed(0xFEED, i);
      entry.shape_fp = mix_seed(0xBEEF, i);
      entry.predicted_speedup = 1.0;
      entry.method = "beam";
      ScopedSpan span(spans_, "jobs.memory_store");
      memory.store(std::move(entry));
    }
  }

  Workload& workload_;
  Kind kind_;
  std::uint64_t seed_;
  SpanLog& spans_;
  tcm::obs::MetricsRegistry& registry_;
  HistWatch queue_wait_, featurize_, assemble_, infer_, batch_size_, handler_;
  HistDelta d_queue_wait_, d_featurize_, d_assemble_, d_infer_, d_batch_size_, d_handler_;
  tcm::serve::ServeStats serve_before_;
  double cache_hits_ = 0, cache_misses_ = 0, arena_allocs_ = 0;
};

// --- main --------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) args.workload = argv[++i];
    else if (a == "--seed" && has_value) args.seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) args.seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has_value) args.trace = std::string(argv[++i]) == "1";
    else if (a == "--scratch" && has_value) args.scratch = argv[++i];
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  static const std::map<std::string, Kind> kinds = {{"predict_cold", Kind::kPredictCold},
                                                    {"predict_hot", Kind::kPredictHot},
                                                    {"search_beam", Kind::kSearchBeam},
                                                    {"search_mcts", Kind::kSearchMcts}};
  const auto it = kinds.find(args.workload);
  if (it == kinds.end()) {
    std::fprintf(stderr, "--workload must be one of predict_cold, predict_hot, search_beam, search_mcts\n");
    return false;
  }
  args.kind = it->second;
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return false;
  }
  return true;
}

int run(const Args& args) {
  std::printf("# workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# host %s\n", host_fingerprint().c_str());
  const int cpu = pin_to_one_cpu();
  if (cpu >= 0) std::printf("# stack and clients pinned to CPU %d\n", cpu);
  else std::printf("# stack and clients not pinned: CPU affinity unavailable\n");

  const CpuTimes run_start = cpu_times();
  // Set-up, kSetups times; the last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const Clock::time_point t0 = Clock::now();
    workload = std::make_unique<Workload>(args);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("# set-up over %d stacks: min %.4g s, median %.4g s, max %.4g s\n", kSetups,
              quantile(setup_s, 0), quantile(setup_s, 0.5), quantile(setup_s, 1));

  SpanLog spans;
  const Kind kind = args.kind;
  Window main, companion, main_traced, companion_traced;  // traced run: the *_traced ones
  double overhead_pct = 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    if (is_predict(kind)) {
      SearchProbe probe(workload->stack());
      main = workload->main(args.seconds, spans, &probe);
      companion = probe.finish(spans);
    } else {
      main = workload->main(args.seconds, spans);
    }
    metrics = end_to_end(quantile(setup_s, 0.5), main, is_predict(kind) ? companion : main);
  } else {
    // One window in which tracing (the benchmark's spans and the program's
    // obs::Tracer at rate 1) is switched on and off every kTracePhase, so
    // the traced and untraced operations see the same traffic and the same
    // host. The overhead compares their median latencies.
    LayerReport layers(*workload, kind, args.seed, spans);
    const auto set_tracing = [&](bool on) {
      spans.set_enabled(on);
      tcm::obs::Tracer::instance().set_sample_rate(on ? 1.0 : 0.0);
    };
    std::mutex mu;
    std::condition_variable cv;
    bool window_done = false;
    std::thread switcher([&] {
      std::unique_lock<std::mutex> lock(mu);
      while (!cv.wait_for(lock, kTracePhase, [&] { return window_done; })) {
        set_tracing(g_trace_switches.load() % 2 == 0);
        ++g_trace_switches;
      }
    });
    layers.start();
    main_traced = workload->main(args.seconds, spans);
    layers.stop();
    {
      std::lock_guard<std::mutex> lock(mu);
      window_done = true;
    }
    cv.notify_one();
    switcher.join();
    // Here the probe runs after the window, so the stage histograms above
    // hold the predict traffic alone.
    set_tracing(true);
    if (is_predict(kind)) companion_traced = SearchProbe(workload->stack()).finish(spans);
    tcm::obs::Tracer::instance().set_sample_rate(0.0);  // the replays below keep the spans
    const Phased& ops = is_predict(kind) ? main_traced.predict_phased : main_traced.job_phased;
    overhead_pct = (quantile(ops.ms[1], 0.5) / quantile(ops.ms[0], 0.5) - 1.0) * 100.0;
    std::printf("# trace overhead: median %.4g ms over %zu traced against %.4g ms over %zu untraced operations\n",
                quantile(ops.ms[1], 0.5), ops.ms[1].size(), quantile(ops.ms[0], 0.5), ops.ms[0].size());
    metrics = layers.metrics(main_traced, is_predict(kind) ? companion_traced : main_traced,
                             overhead_pct);
    spans.set_enabled(false);

    const std::vector<Span> all = spans.spans();
    std::printf("# self time by span (traced window and replays)\n");
    for (const SelfTime& t : self_times(all))
      std::printf("#   %-24s n=%-8llu total_us=%-14.1f self_us=%.1f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_us, t.self_us);
    const fs::path trace_out =
        args.scratch / (args.workload + "-seed" + std::to_string(args.seed) + ".trace.json");
    std::ofstream(trace_out) << chrome_trace_json(all);
    std::printf("# chrome trace written to %s\n", trace_out.string().c_str());
  }

  std::uint64_t attempted = main.attempted + companion.attempted + main_traced.attempted +
                            companion_traced.attempted;
  std::uint64_t failed =
      main.failed + companion.failed + main_traced.failed + companion_traced.failed;
  std::printf("# host CPU time stolen by the hypervisor during the run: %.1f%%\n",
              100 * steal_share(run_start, cpu_times()));
  std::printf("# %s: attempted %llu failed %llu (main %llu/%llu, companion %llu/%llu)\n",
              args.workload.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(main.attempted + main_traced.attempted),
              static_cast<unsigned long long>(main.failed + main_traced.failed),
              static_cast<unsigned long long>(companion.attempted + companion_traced.attempted),
              static_cast<unsigned long long>(companion.failed + companion_traced.failed));
  workload.reset();
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) return 2;
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcm_perfbench: %s\n", e.what());
    return 1;
  }
}
