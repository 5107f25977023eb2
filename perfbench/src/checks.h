// Output checks of the serving benchmark, kept apart from the program under
// test: every reply the load generator receives is judged here against
// values computed without the serving path (no HTTP, no feature cache, no
// batcher, no fused inference kernels).
//
// Every check returns an empty string when the output passes and a one-line
// reason otherwise, so a run can count failures and print the first few.
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"
#include "model/cost_model.h"
#include "transforms/schedule.h"

namespace perfbench {

// Relative tolerance between a served prediction and the autograd
// reference: the fused kernels sum in a different order (nn/inference.h).
inline constexpr double kPredictRelTol = 1e-5;

// Reference speedups of `schedules` on `program`: model::featurize plus the
// predictor's autograd forward_batch(training=false), one batch per tree
// structure.
// Throws std::invalid_argument when a pair cannot be featurized.
std::vector<double> reference_predictions(tcm::model::SpeedupPredictor& predictor,
                                          const tcm::model::FeatureConfig& features,
                                          const tcm::ir::Program& program,
                                          const std::vector<tcm::transforms::Schedule>& schedules);

// A /v1/predict reply passes when it is HTTP 200 and carries one item per
// reference value, each finite, > 0, tagged with `model_version` and within
// kPredictRelTol of its reference. `speedups` (optional) receives the
// decoded values.
std::string check_predict_reply(int http_status, const std::string& body,
                                const std::vector<double>& reference, int model_version,
                                std::vector<double>* speedups = nullptr);

// The fields of a finished /v1/search job snapshot the checks need.
struct JobOutcome {
  std::string state;
  double best_speedup = 0;
  double baseline_speedup = 0;
  std::int64_t evaluations = 0;
  double wall_seconds = 0;
  tcm::transforms::Schedule schedule;
};

// A GET /v1/search/{id} snapshot passes when it is HTTP 200, the job is
// DONE, best_speedup >= baseline_speedup > 0, and the best schedule decodes
// and applies to `program` (transforms::apply_schedule). On success
// `outcome` holds the decoded fields and `scheduled` the transformed
// program.
std::string check_job_snapshot(const tcm::ir::Program& program, int http_status,
                               const std::string& body, JobOutcome* outcome,
                               tcm::ir::Program* scheduled);

// The interpreter gives equal outputs for `program` and `scheduled`.
std::string check_semantics(const tcm::ir::Program& program, const tcm::ir::Program& scheduled);

// Re-scoring a beam job's best schedule through /v1/predict returns exactly
// the job's best_speedup (same model, same features, same kernels).
std::string check_rescore_exact(double best_speedup, const std::vector<double>& rescored);

}  // namespace perfbench
