// The serving stack under test and the inputs the load generator sends.
//
// Stack builds what tcm_serve builds — a model registry, api::Service (one
// inference worker, search workers, a file-backed schedule memory) and
// api::HttpServer on loopback — inside a fresh temporary directory that it
// removes again, so no run depends on what an earlier run left on disk.
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/http_client.h"
#include "api/http_server.h"
#include "api/service.h"
#include "ir/program.h"
#include "model/cost_model.h"
#include "transforms/schedule.h"

namespace perfbench {

class Stack {
 public:
  // Creates `<scratch_root>/run-XXXXXX`, registers and promotes one
  // fixed-seed untrained ModelConfig::fast() CostModel, and starts the
  // service and the HTTP server. Throws std::runtime_error on failure.
  explicit Stack(const std::filesystem::path& scratch_root);
  ~Stack();  // stops the server, shuts the service down, removes the directory

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return server_->port(); }
  int model_version() const { return service_->active_version(); }
  tcm::api::Service& service() { return *service_; }
  // The registered weights, loaded a second time for the reference checks.
  tcm::model::SpeedupPredictor& reference_model() { return *reference_; }
  const tcm::model::FeatureConfig& features() const {
    return service_->options().serve.features;
  }
  std::filesystem::path memory_path() const { return dir_ / "schedule_memory.json"; }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<tcm::model::SpeedupPredictor> reference_;
  std::unique_ptr<tcm::api::Service> service_;
  std::unique_ptr<tcm::api::HttpServer> server_;
};

// One HTTP exchange as the load generator saw it.
struct Exchange {
  int status = 0;  // 0 = transport failure (body holds the error)
  std::string body;
  double ms = 0;  // round trip
  int phase = 0;  // tracing phase of the traced run (main.cc: TracePhase)
};
Exchange exchange(tcm::api::HttpClient& client, const std::string& method,
                  const std::string& path, const std::string& body = "");

// A /v1/predict request with its reference speedups.
struct PredictInput {
  std::uint64_t program_fp = 0;
  std::string body;
  std::vector<double> reference;
  // Kept for the traced per-layer replay.
  std::shared_ptr<const tcm::ir::Program> program;
  std::vector<tcm::transforms::Schedule> schedules;
};

// Draws request `index` of a stream: a default paper-shaped datagen program
// with exactly `comps` computations and `schedules` random schedules
// (duplicates dropped), plus its autograd reference. Deterministic in
// (seed, index, comps, schedules). nullopt when the drawn program cannot be
// featurized (the request is skipped, never sent).
std::optional<PredictInput> make_predict_input(std::uint64_t seed, std::uint64_t index, int comps,
                                               int schedules,
                                               tcm::model::SpeedupPredictor& reference,
                                               const tcm::model::FeatureConfig& features);

// One program of a search workload.
struct SearchProgram {
  tcm::ir::Program program;
  bool tiny = false;         // GeneratorOptions::tiny(): interpreter-checked
  std::string program_json;  // wire encoding, shared by submit and re-score
};

// The deterministic program sequence of a search workload: optional fixed
// programs first (the benchsuite), then seeded datagen programs in rounds
// of five — one paper-shaped program each with 1, 2, 3 and 4 computations
// and one GeneratorOptions::tiny() program, in a seeded order. The fixed mix
// keeps the work of a run from depending on the seed beyond the programs'
// details. Programs whose fingerprint or shape fingerprint was already drawn
// are redrawn, so no job hits the schedule memory or warm-starts from
// another job. Thread-safe.
class ProgramStream {
 public:
  ProgramStream(std::uint64_t seed, std::vector<tcm::ir::Program> fixed = {});
  // The next program; the sequence does not depend on which caller asks.
  std::shared_ptr<const SearchProgram> next();

 private:
  bool admit(const tcm::ir::Program& p);  // requires mu_

  const std::uint64_t seed_;
  std::mutex mu_;
  std::vector<tcm::ir::Program> fixed_;
  std::size_t fixed_next_ = 0;
  std::uint64_t drawn_ = 0;       // datagen programs handed out
  std::vector<int> round_;        // classes of the current round: 0 tiny, k comps
  std::uint64_t attempts_ = 0;    // generator seeds consumed
  std::unordered_set<std::uint64_t> seen_programs_;
  std::unordered_set<std::uint64_t> seen_shapes_;
};

// The ten benchsuite programs at 1/`scale` size.
std::vector<tcm::ir::Program> benchsuite_programs(std::int64_t scale);

}  // namespace perfbench
