#include "checks.h"

#include <cmath>
#include <stdexcept>

#include "api/json.h"
#include "api/wire.h"
#include "model/dataset.h"
#include "model/featurize.h"
#include "sim/interpreter.h"
#include "support/rng.h"
#include "transforms/apply.h"

namespace perfbench {

using tcm::api::Json;

std::vector<double> reference_predictions(tcm::model::SpeedupPredictor& predictor,
                                          const tcm::model::FeatureConfig& features,
                                          const tcm::ir::Program& program,
                                          const std::vector<tcm::transforms::Schedule>& schedules) {
  std::vector<tcm::model::FeaturizedProgram> feats;
  feats.reserve(schedules.size());
  for (const tcm::transforms::Schedule& s : schedules) {
    std::string error;
    auto f = tcm::model::featurize(program, s, features, &error);
    if (!f) throw std::invalid_argument("cannot featurize reference pair: " + error);
    feats.push_back(std::move(*f));
  }
  // One autograd batch per tree structure; rows are computed independently.
  std::vector<double> out(schedules.size());
  std::vector<bool> done(schedules.size(), false);
  tcm::Rng rng(0);  // forward_batch(training=false) draws nothing
  for (std::size_t i = 0; i < feats.size(); ++i) {
    if (done[i]) continue;
    std::vector<std::size_t> members;
    std::vector<const tcm::model::FeaturizedProgram*> rows;
    for (std::size_t k = i; k < feats.size(); ++k) {
      if (done[k] || !feats[k].same_structure(feats[i])) continue;
      members.push_back(k);
      rows.push_back(&feats[k]);
      done[k] = true;
    }
    const tcm::model::Batch batch = tcm::model::make_inference_batch(rows);
    const tcm::nn::Variable y = predictor.forward_batch(batch, /*training=*/false, rng);
    for (std::size_t r = 0; r < members.size(); ++r)
      out[members[r]] = static_cast<double>(y.value().at(static_cast<int>(r), 0));
  }
  return out;
}

std::string check_predict_reply(int http_status, const std::string& body,
                                const std::vector<double>& reference, int model_version,
                                std::vector<double>* speedups) {
  if (http_status != 200) return "predict: HTTP " + std::to_string(http_status) + ": " + body;
  tcm::api::Result<Json> parsed = Json::parse(body);
  if (!parsed.ok()) return "predict: unparsable reply: " + parsed.status().to_string();
  const Json* items = parsed->find("predictions");
  if (items == nullptr || !items->is_array()) return "predict: reply has no predictions array";
  const tcm::api::JsonArray& arr = items->as_array();
  if (arr.size() != reference.size())
    return "predict: " + std::to_string(arr.size()) + " items for " +
           std::to_string(reference.size()) + " schedules";
  if (speedups != nullptr) speedups->clear();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Json* speedup = arr[i].find("speedup");
    const Json* version = arr[i].find("model_version");
    if (speedup == nullptr || !speedup->is_number() || version == nullptr || !version->is_int())
      return "predict: item " + std::to_string(i) + " lacks speedup/model_version";
    const double v = speedup->as_double();
    if (!std::isfinite(v) || v <= 0)
      return "predict: item " + std::to_string(i) + " speedup " + std::to_string(v) +
             " is not finite and > 0";
    if (version->as_int() != model_version)
      return "predict: item " + std::to_string(i) + " tagged v" +
             std::to_string(version->as_int()) + ", expected v" + std::to_string(model_version);
    const double ref = reference[i];
    if (!(std::abs(v - ref) <= kPredictRelTol * std::abs(ref)))
      return "predict: item " + std::to_string(i) + " speedup " + std::to_string(v) +
             " differs from reference " + std::to_string(ref);
    if (speedups != nullptr) speedups->push_back(v);
  }
  return "";
}

std::string check_job_snapshot(const tcm::ir::Program& program, int http_status,
                               const std::string& body, JobOutcome* outcome,
                               tcm::ir::Program* scheduled) {
  if (http_status != 200) return "search: snapshot HTTP " + std::to_string(http_status);
  tcm::api::Result<Json> parsed = Json::parse(body);
  if (!parsed.ok()) return "search: unparsable snapshot: " + parsed.status().to_string();
  const Json& j = *parsed;
  const auto number = [&](const char* key) -> const Json* {
    const Json* v = j.find(key);
    return v != nullptr && v->is_number() ? v : nullptr;
  };
  const Json* state = j.find("state");
  const Json* best = number("best_speedup");
  const Json* baseline = number("baseline_speedup");
  const Json* evaluations = number("evaluations");
  const Json* wall = number("wall_seconds");
  const Json* schedule = j.find("schedule");
  if (state == nullptr || !state->is_string() || best == nullptr || baseline == nullptr ||
      evaluations == nullptr || wall == nullptr || schedule == nullptr)
    return "search: snapshot lacks a field";
  JobOutcome out;
  out.state = state->as_string();
  out.best_speedup = best->as_double();
  out.baseline_speedup = baseline->as_double();
  out.evaluations = evaluations->as_int();
  out.wall_seconds = wall->as_double();
  if (out.state != "DONE") return "search: job ended " + out.state;
  if (!(out.baseline_speedup > 0) || !std::isfinite(out.best_speedup) ||
      !(out.best_speedup >= out.baseline_speedup))
    return "search: best_speedup " + std::to_string(out.best_speedup) + " below baseline " +
           std::to_string(out.baseline_speedup);
  tcm::api::Result<tcm::transforms::Schedule> decoded = tcm::api::schedule_from_json(*schedule);
  if (!decoded.ok()) return "search: undecodable schedule: " + decoded.status().to_string();
  out.schedule = decoded.take();
  tcm::transforms::ApplyResult applied = tcm::transforms::try_apply_schedule(program, out.schedule);
  if (!applied.ok) return "search: best schedule is illegal: " + applied.error;
  if (outcome != nullptr) *outcome = std::move(out);
  if (scheduled != nullptr) *scheduled = std::move(applied.program);
  return "";
}

std::string check_semantics(const tcm::ir::Program& program, const tcm::ir::Program& scheduled) {
  constexpr std::uint64_t kInputSeed = 5;
  const tcm::sim::BufferData a = tcm::sim::Interpreter::execute(program, kInputSeed);
  const tcm::sim::BufferData b = tcm::sim::Interpreter::execute(scheduled, kInputSeed);
  const double diff = tcm::sim::Interpreter::max_rel_difference(program, a, b);
  if (!(diff <= 1e-9))
    return "search: scheduled program computes different outputs (max rel diff " +
           std::to_string(diff) + ")";
  return "";
}

std::string check_rescore_exact(double best_speedup, const std::vector<double>& rescored) {
  if (rescored.size() != 1 || rescored.front() != best_speedup)
    return "search: re-scored best schedule " +
           (rescored.empty() ? std::string("(none)") : std::to_string(rescored.front())) +
           " != job best_speedup " + std::to_string(best_speedup);
  return "";
}

}  // namespace perfbench
