// The benchmark's output checks reject corrupted outputs: a flipped
// prediction, a missing item, an illegal schedule, and a scheduled program
// whose interpreter outputs differ from the original's. Each rejection test
// has a passing control built from the same honest output.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/json.h"
#include "api/wire.h"
#include "benchsuite/benchmarks.h"
#include "checks.h"
#include "jobs/search_job.h"
#include "model/cost_model.h"
#include "support/rng.h"
#include "transforms/apply.h"

namespace {

using perfbench::check_job_snapshot;
using perfbench::check_predict_reply;
using perfbench::check_rescore_exact;
using perfbench::check_semantics;
using tcm::api::Json;

constexpr int kVersion = 1;

std::string predict_body(const std::vector<double>& speedups, int version = kVersion) {
  tcm::api::PredictResponse response;
  for (double s : speedups) response.predictions.push_back({s, version});
  return tcm::api::to_json(response).dump();
}

tcm::ir::Program small_program() { return tcm::benchsuite::make_heat2d(12, 12); }

tcm::transforms::Schedule legal_tiling() {
  tcm::transforms::Schedule s;
  s.tiles.push_back({0, 0, {4, 4}});
  return s;
}

std::string snapshot_body(const tcm::transforms::Schedule& schedule, double best = 1.5,
                          double baseline = 1.0) {
  tcm::jobs::SearchJobInfo info;
  info.id = "sj-000001";
  info.state = tcm::jobs::JobState::kDone;
  info.best_speedup = best;
  info.baseline_speedup = baseline;
  info.best_schedule = schedule;
  info.evaluations = 10;
  return tcm::api::to_json(info).dump();
}

class PredictCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    tcm::Rng rng(7);
    model_ = std::make_unique<tcm::model::CostModel>(tcm::model::ModelConfig::fast(), rng);
    schedules_ = {tcm::transforms::Schedule{}, legal_tiling()};
    reference_ = perfbench::reference_predictions(*model_, tcm::model::FeatureConfig::fast(),
                                                  small_program(), schedules_);
  }
  std::unique_ptr<tcm::model::CostModel> model_;
  std::vector<tcm::transforms::Schedule> schedules_;
  std::vector<double> reference_;
};

TEST_F(PredictCheck, HonestReplyPasses) {
  std::vector<double> decoded;
  EXPECT_EQ(check_predict_reply(200, predict_body(reference_), reference_, kVersion, &decoded), "");
  EXPECT_EQ(decoded, reference_);
}

TEST_F(PredictCheck, ReferenceMatchesTheFusedServingPath) {
  // The tolerance the check applies is the documented fused-vs-autograd gap.
  tcm::nn::InferenceArena arena;
  for (std::size_t i = 0; i < schedules_.size(); ++i) {
    const auto feats =
        tcm::model::featurize(small_program(), schedules_[i], tcm::model::FeatureConfig::fast());
    ASSERT_TRUE(feats.has_value());
    const tcm::model::Batch batch = tcm::model::make_inference_batch({&*feats});
    const double fused = model_->infer_batch(batch, arena).at(0, 0);
    EXPECT_LE(std::abs(fused - reference_[i]), perfbench::kPredictRelTol * reference_[i]);
  }
}

TEST_F(PredictCheck, RejectsFlippedPrediction) {
  std::vector<double> flipped = reference_;
  flipped[1] = 1.0 / flipped[1];
  EXPECT_NE(check_predict_reply(200, predict_body(flipped), reference_, kVersion), "");
  flipped = reference_;
  flipped[0] = -flipped[0];
  EXPECT_NE(check_predict_reply(200, predict_body(flipped), reference_, kVersion), "");
  flipped[0] = std::numeric_limits<double>::infinity();
  EXPECT_NE(check_predict_reply(200, predict_body(flipped), reference_, kVersion), "");
}

TEST_F(PredictCheck, RejectsMissingItem) {
  const std::vector<double> one = {reference_[0]};
  EXPECT_NE(check_predict_reply(200, predict_body(one), reference_, kVersion), "");
}

TEST_F(PredictCheck, RejectsWrongVersionAndHttpError) {
  EXPECT_NE(check_predict_reply(200, predict_body(reference_, 2), reference_, kVersion), "");
  EXPECT_NE(check_predict_reply(503, predict_body(reference_), reference_, kVersion), "");
  EXPECT_NE(check_predict_reply(200, "{not json", reference_, kVersion), "");
}

TEST(SearchCheck, LegalDoneJobPasses) {
  perfbench::JobOutcome outcome;
  tcm::ir::Program scheduled;
  EXPECT_EQ(check_job_snapshot(small_program(), 200, snapshot_body(legal_tiling()), &outcome,
                               &scheduled),
            "");
  EXPECT_EQ(outcome.state, "DONE");
  EXPECT_EQ(check_semantics(small_program(), scheduled), "");
}

TEST(SearchCheck, RejectsIllegalSchedule) {
  tcm::transforms::Schedule illegal;
  illegal.tiles.push_back({0, 0, {64, 64}});  // tile larger than the loop
  ASSERT_FALSE(tcm::transforms::is_legal(small_program(), illegal));
  EXPECT_NE(check_job_snapshot(small_program(), 200, snapshot_body(illegal), nullptr, nullptr), "");
}

TEST(SearchCheck, RejectsBestBelowBaselineAndUnfinishedJob) {
  EXPECT_NE(check_job_snapshot(small_program(), 200, snapshot_body(legal_tiling(), 0.9, 1.0),
                               nullptr, nullptr),
            "");
  Json running = *Json::parse(snapshot_body(legal_tiling()));
  running.set("state", Json("RUNNING"));
  EXPECT_NE(check_job_snapshot(small_program(), 200, running.dump(), nullptr, nullptr), "");
}

TEST(SearchCheck, RejectsScheduleThatChangesInterpreterOutput) {
  tcm::ir::Program scheduled = tcm::transforms::apply_schedule(small_program(), legal_tiling());
  ASSERT_EQ(check_semantics(small_program(), scheduled), "");
  // A transform that dropped the last iteration of the innermost loop.
  tcm::ir::LoopNode& innermost = scheduled.loops.back();
  ASSERT_GT(innermost.iter.extent, 1);
  innermost.iter.extent -= 1;
  EXPECT_NE(check_semantics(small_program(), scheduled), "");
}

TEST(SearchCheck, RescoreMustBeExact) {
  EXPECT_EQ(check_rescore_exact(1.25, {1.25}), "");
  EXPECT_NE(check_rescore_exact(1.25, {std::nextafter(1.25, 2.0)}), "");
  EXPECT_NE(check_rescore_exact(1.25, {}), "");
}

}  // namespace
