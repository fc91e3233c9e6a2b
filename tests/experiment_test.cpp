#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/hashing.h"
#include "core/experiment.h"
#include "keys.h"

namespace smartflux::core {
namespace {

/// Deterministic pure-function workload: the source writes a smooth wave-
/// dependent field; the aggregator averages it. Two runs over the same waves
/// see identical data, as the Experiment harness requires.
wms::WorkflowSpec smooth_spec(double bound) {
  wms::StepSpec src;
  src.id = "src";
  src.outputs = {ds::ContainerRef::whole_table("in")};
  src.fn = [](wms::StepContext& ctx) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      const double v = 50.0 + 10.0 * std::sin(0.3 * static_cast<double>(ctx.wave) +
                                              static_cast<double>(i)) +
                       4.0 * smartflux::smooth_noise(5, i, ctx.wave, 5);
      ctx.client.put("in", test::key("r", i), "v", v);
    }
  };
  wms::StepSpec agg;
  agg.id = "agg";
  agg.predecessors = {"src"};
  agg.inputs = {ds::ContainerRef::whole_table("in")};
  agg.outputs = {ds::ContainerRef::whole_table("out")};
  agg.max_error = bound;
  agg.fn = [](wms::StepContext& ctx) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("in"))) {
      sum += e.value;
      ++n;
    }
    ctx.client.put("out", "mean", "v", n == 0 ? 0.0 : sum / static_cast<double>(n));
  };
  return wms::WorkflowSpec("smooth", {src, agg});
}

ExperimentOptions small_options() {
  ExperimentOptions opts;
  opts.training_waves = 60;
  opts.eval_waves = 80;
  return opts;
}

TEST(Experiment, SyncPolicyHasZeroMeasuredError) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_sync();
  EXPECT_EQ(res.policy, "sync");
  ASSERT_EQ(res.waves.size(), 80u);
  for (const auto& w : res.waves) {
    for (const auto& [step, err] : w.measured_error) {
      EXPECT_EQ(err, 0.0) << step << " wave " << w.wave;
    }
    for (const auto& [_, viol] : w.violation) EXPECT_FALSE(viol);
  }
  EXPECT_EQ(res.total_adaptive_executions, res.total_sync_executions);
  EXPECT_EQ(res.savings_ratio(), 0.0);
  EXPECT_EQ(res.confidence("agg"), 1.0);
}

TEST(Experiment, SmartFluxSavesWithBoundedError) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_smartflux();
  EXPECT_EQ(res.policy, "smartflux");
  EXPECT_GT(res.savings_ratio(), 0.0);
  EXPECT_GE(res.confidence("agg"), 0.85);
  ASSERT_TRUE(res.test_report.has_value());
}

TEST(Experiment, OracleNeverStarvesAndSaves) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_oracle();
  EXPECT_EQ(res.policy, "oracle");
  EXPECT_GT(res.total_adaptive_executions, 0u);
  EXPECT_LT(res.total_adaptive_executions, res.total_sync_executions);
}

TEST(Experiment, PeriodicBaselineExecutesExpectedFraction) {
  Experiment ex(smooth_spec(0.05), small_options());
  PeriodicController seq4(4);
  const auto res = ex.run_controller("seq4", seq4);
  EXPECT_EQ(res.policy, "seq4");
  EXPECT_NEAR(static_cast<double>(res.total_adaptive_executions),
              static_cast<double>(res.total_sync_executions) / 4.0, 2.0);
}

TEST(Experiment, ProfileSyncDeltasCoversEvalWaves) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto deltas = ex.profile_sync_deltas();
  ASSERT_EQ(deltas.size(), 1u);  // one tolerant step
  const auto& per_wave = deltas.begin()->second;
  EXPECT_EQ(per_wave.size(), 80u);
  EXPECT_EQ(per_wave.begin()->first, 61u);  // first eval wave
  for (const auto& [_, d] : per_wave) EXPECT_GE(d, 0.0);
}

TEST(Experiment, ConfidenceCurveIsNormalizedCumulative) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_sync();
  const auto curve = res.confidence_curve("agg");
  ASSERT_EQ(curve.size(), 80u);
  for (double c : curve) EXPECT_EQ(c, 1.0);
  const auto overall = res.overall_confidence_curve();
  ASSERT_EQ(overall.size(), 80u);
  EXPECT_EQ(overall.back(), 1.0);
}

TEST(Experiment, NormalizedExecutionsCurveForSyncIsOne) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_sync();
  for (double v : res.normalized_executions_curve()) EXPECT_EQ(v, 1.0);
}

TEST(Experiment, NormalizedExecutionsBelowOneWhenSkipping) {
  Experiment ex(smooth_spec(0.1), small_options());
  PeriodicController seq2(2);
  const auto res = ex.run_controller("seq2", seq2);
  EXPECT_NEAR(res.normalized_executions_curve().back(), 0.5, 0.05);
}

TEST(Experiment, TrackedStepsDefaultToAllTolerant) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_sync();
  ASSERT_EQ(res.tracked_steps.size(), 1u);
  EXPECT_EQ(res.tracked_steps[0], "agg");
  EXPECT_EQ(res.bounds.at("agg"), 0.05);
}

TEST(Experiment, ExplicitTrackedStepsValidated) {
  ExperimentOptions opts = small_options();
  opts.tracked_steps = {"src"};  // src has no bound
  Experiment ex(smooth_spec(0.05), opts);
  EXPECT_THROW(ex.run_sync(), smartflux::InvalidArgument);
}

TEST(Experiment, ViolationCountingAndMagnitude) {
  // A periodic policy with a long period must violate a tight bound.
  ExperimentOptions opts = small_options();
  Experiment ex(smooth_spec(0.01), opts);
  PeriodicController seq10(10);
  const auto res = ex.run_controller("seq10", seq10);
  EXPECT_GT(res.violation_count("agg"), 0u);
  EXPECT_GT(res.max_violation_magnitude("agg"), 0.0);
  EXPECT_LT(res.confidence("agg"), 1.0);
}

TEST(Experiment, RejectsDegenerateOptions) {
  ExperimentOptions opts;
  opts.training_waves = 0;
  EXPECT_THROW(Experiment(smooth_spec(0.05), opts), smartflux::InvalidArgument);
  opts.training_waves = 1;
  opts.eval_waves = 0;
  EXPECT_THROW(Experiment(smooth_spec(0.05), opts), smartflux::InvalidArgument);
}

TEST(Experiment, PredictedErrorResetsOnExecution) {
  Experiment ex(smooth_spec(0.05), small_options());
  const auto res = ex.run_smartflux();
  for (const auto& w : res.waves) {
    if (w.decision.at("agg") == 1) {
      EXPECT_EQ(w.predicted_error.at("agg"), 0.0);
    }
  }
}

}  // namespace
}  // namespace smartflux::core
