#include "stack.h"

#include <stdlib.h>

#include <stdexcept>

#include "api/json.h"
#include "api/rest.h"
#include "api/wire.h"
#include "benchsuite/benchmarks.h"
#include "bench_util.h"
#include "checks.h"
#include "datagen/generator.h"
#include "registry/model_registry.h"
#include "serve/fingerprint.h"
#include "support/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using tcm::api::Json;

Stack::Stack(const fs::path& scratch_root) {
  fs::create_directories(scratch_root);
  std::string templ = (scratch_root / "run-XXXXXX").string();
  if (::mkdtemp(templ.data()) == nullptr)
    throw std::runtime_error("cannot create a temporary directory under " +
                             scratch_root.string());
  dir_ = templ;
  const std::string registry_root = (dir_ / "registry").string();
  {
    tcm::registry::ModelRegistry registry(registry_root);
    tcm::Rng rng(7);
    tcm::model::CostModel model(tcm::model::ModelConfig::fast(), rng);
    tcm::registry::ModelManifest manifest;
    manifest.config = tcm::model::ModelConfig::fast();
    manifest.provenance = "perfbench: fixed-seed untrained model";
    registry.promote(registry.register_version(model, manifest));
    reference_ = registry.load_active();
  }

  // The tcm_serve defaults, with one inference worker.
  tcm::api::ServiceOptions options;
  options.registry_root = registry_root;
  options.serve.num_threads = 1;
  options.serve.features = tcm::model::FeatureConfig::fast();
  options.serve.max_queue_latency = std::chrono::microseconds(500);
  options.enable_search = true;
  options.search.workers = 2;
  options.search.queue_cap = 16;
  options.search.memory_path = memory_path().string();
  tcm::api::Result<std::unique_ptr<tcm::api::Service>> opened =
      tcm::api::Service::open(std::move(options));
  if (!opened.ok())
    throw std::runtime_error("cannot open service: " + opened.status().to_string());
  service_ = opened.take();

  tcm::api::HttpServerOptions http;
  http.host = "127.0.0.1";
  http.port = 0;
  http.num_threads = 8;
  http.metrics = service_->metrics();
  http.watchdog = service_->watchdog();
  server_ = std::make_unique<tcm::api::HttpServer>(http);
  tcm::api::bind_routes(*server_, *service_);
  const tcm::api::Status started = server_->start();
  if (!started.ok())
    throw std::runtime_error("cannot start HTTP server: " + started.to_string());
}

Stack::~Stack() {
  if (server_) server_->stop();
  if (service_) service_->shutdown();
  server_.reset();
  service_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

Exchange exchange(tcm::api::HttpClient& client, const std::string& method,
                  const std::string& path, const std::string& body) {
  Exchange out;
  const Clock::time_point t0 = Clock::now();
  tcm::api::Result<tcm::api::HttpResponse> response = client.request(method, path, body);
  out.ms = seconds_between(t0, Clock::now()) * 1e3;
  if (!response.ok()) {
    out.body = response.status().to_string();
    return out;
  }
  out.status = response->status;
  out.body = std::move(response->body);
  return out;
}

namespace {

// The default paper-shaped generator with a fixed computation count.
const tcm::datagen::RandomProgramGenerator& paper_shaped(int comps) {
  static const std::vector<tcm::datagen::RandomProgramGenerator> generators = [] {
    std::vector<tcm::datagen::RandomProgramGenerator> out;
    for (int k = 1; k <= 4; ++k) {
      tcm::datagen::GeneratorOptions o;
      o.min_comps = o.max_comps = k;
      out.emplace_back(o);
    }
    return out;
  }();
  return generators.at(static_cast<std::size_t>(comps - 1));
}

}  // namespace

std::optional<PredictInput> make_predict_input(std::uint64_t seed, std::uint64_t index, int comps,
                                               int schedules,
                                               tcm::model::SpeedupPredictor& reference,
                                               const tcm::model::FeatureConfig& features) {
  static const tcm::datagen::RandomScheduleGenerator schedule_gen;
  const std::uint64_t stream = mix_seed(seed, index);
  auto program = std::make_shared<tcm::ir::Program>(paper_shaped(comps).generate(stream));
  if (program->comps.empty()) return std::nullopt;
  tcm::Rng rng(mix_seed(stream, 1));
  PredictInput input;
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < schedules; ++i) {
    tcm::transforms::Schedule s = schedule_gen.generate(*program, rng);
    if (seen.insert(tcm::serve::fingerprint(s)).second) input.schedules.push_back(std::move(s));
  }
  try {
    input.reference = reference_predictions(reference, features, *program, input.schedules);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  Json body = Json::object();
  body.set("program", tcm::api::to_json(*program));
  Json list = Json::array();
  for (const tcm::transforms::Schedule& s : input.schedules) list.push_back(tcm::api::to_json(s));
  body.set("schedules", std::move(list));
  input.body = body.dump();
  input.program_fp = tcm::serve::fingerprint(*program);
  input.program = std::move(program);
  return input;
}

ProgramStream::ProgramStream(std::uint64_t seed, std::vector<tcm::ir::Program> fixed)
    : seed_(seed), fixed_(std::move(fixed)) {}

bool ProgramStream::admit(const tcm::ir::Program& p) {
  if (p.comps.empty()) return false;
  const std::uint64_t fp = tcm::serve::fingerprint(p);
  const std::uint64_t shape = tcm::serve::shape_fingerprint(p);
  if (seen_programs_.count(fp) != 0 || seen_shapes_.count(shape) != 0) return false;
  seen_programs_.insert(fp);
  seen_shapes_.insert(shape);
  return true;
}

std::shared_ptr<const SearchProgram> ProgramStream::next() {
  static const tcm::datagen::RandomProgramGenerator tiny(tcm::datagen::GeneratorOptions::tiny());
  constexpr int kRound = 5;  // classes: tiny, then 1..4 computations
  std::lock_guard<std::mutex> lock(mu_);
  auto out = std::make_shared<SearchProgram>();
  while (fixed_next_ < fixed_.size()) {
    tcm::ir::Program p = std::move(fixed_[fixed_next_++]);
    if (!admit(p)) continue;
    out->program = std::move(p);
    out->program_json = tcm::api::to_json(out->program).dump();
    return out;
  }
  const std::uint64_t round = drawn_ / kRound;
  if (drawn_ % kRound == 0) {
    round_ = {0, 1, 2, 3, 4};
    tcm::Rng rng(mix_seed(seed_, round));
    rng.shuffle(round_);
  }
  const int cls = round_[static_cast<std::size_t>(drawn_ % kRound)];
  ++drawn_;
  for (;;) {
    const std::uint64_t stream = mix_seed(seed_ ^ 0x5EA2C4ULL, attempts_++);
    tcm::ir::Program p = cls == 0 ? tiny.generate(stream) : paper_shaped(cls).generate(stream);
    if (!admit(p)) continue;
    out->program = std::move(p);
    out->tiny = cls == 0;
    break;
  }
  out->program_json = tcm::api::to_json(out->program).dump();
  return out;
}

std::vector<tcm::ir::Program> benchsuite_programs(std::int64_t scale) {
  std::vector<tcm::ir::Program> out;
  for (tcm::benchsuite::BenchmarkInfo& b : tcm::benchsuite::paper_benchmarks(scale))
    out.push_back(std::move(b.program));
  return out;
}

}  // namespace perfbench
