// Cross-module property tests: invariants that must hold for arbitrary
// triggering policies, metrics and change streams.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/hashing.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "keys.h"
#include "workloads/aqhi/aqhi.h"

namespace smartflux {
namespace {

/// A controller making arbitrary (seeded) decisions.
class ArbitraryController final : public wms::TriggerController {
 public:
  explicit ArbitraryController(std::uint64_t seed) : rng_(seed) {}
  bool should_execute(const wms::WorkflowSpec&, std::size_t, ds::Timestamp) override {
    return rng_.bernoulli(0.4);
  }

 private:
  Rng rng_;
};

class EngineInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineInvariants, HoldUnderArbitraryPolicies) {
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  const workloads::AqhiWorkload workload(params);
  const auto spec = workload.make_workflow();

  ds::DataStore store;
  wms::WorkflowEngine engine(spec, store);
  ArbitraryController controller(GetParam());

  std::vector<std::size_t> ever_executed(spec.size(), 0);
  for (ds::Timestamp wave = 1; wave <= 30; ++wave) {
    const auto result = engine.run_wave(wave, controller);
    ASSERT_EQ(result.executed.size(), spec.size());
    ASSERT_EQ(result.durations.size(), spec.size());
    ASSERT_EQ(result.wave, wave);

    for (std::size_t i = 0; i < spec.size(); ++i) {
      // Invariant 1: error-intolerant steps execute whenever eligible.
      bool preds_ran = true;
      for (std::size_t pred : spec.predecessors(i)) {
        preds_ran = preds_ran && ever_executed[pred] > 0;
      }
      if (!spec.step_at(i).tolerates_error() && preds_ran) {
        EXPECT_TRUE(result.executed[i]) << spec.step_at(i).id << " wave " << wave;
      }
      // Invariant 2: a step never executes before its predecessors have
      // executed at least once (counting earlier steps of this same wave).
      if (result.executed[i]) {
        for (std::size_t pred : spec.predecessors(i)) {
          EXPECT_GT(ever_executed[pred] + (result.executed[pred] ? 1 : 0), 0u)
              << spec.step_at(i).id << " ran before " << spec.step_at(pred).id;
        }
      }
      // Invariant 3: durations are recorded exactly for executed steps.
      if (!result.executed[i]) { EXPECT_EQ(result.durations[i].count(), 0); }
    }
    for (std::size_t i = 0; i < spec.size(); ++i) {
      ever_executed[i] += result.executed[i] ? 1 : 0;
    }
  }

  // Invariant 4: engine counters agree with observed executions.
  std::size_t total = 0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(engine.execution_count(i), ever_executed[i]);
    total += ever_executed[i];
  }
  EXPECT_EQ(engine.total_executions(), total);
  EXPECT_EQ(engine.waves_run(), 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants, ::testing::Values(1, 2, 3, 4, 5, 6));

class ExperimentInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExperimentInvariants, MeasuredErrorZeroWheneverFullyCaughtUp) {
  // After a wave in which every tolerant step executed AND all upstream
  // steps executed, the adaptive store matches the shadow, so measured
  // errors must all be zero.
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  params.seed = 100 + GetParam();
  const workloads::AqhiWorkload workload(params);

  core::ExperimentOptions opts;
  opts.training_waves = 50;
  opts.eval_waves = 60;
  core::Experiment ex(workload.make_workflow(), opts);
  core::PeriodicController seq3(3);
  const auto res = ex.run_controller("seq3", seq3);

  for (const auto& wave : res.waves) {
    bool all_ran = true;
    for (const auto& [_, decision] : wave.decision) all_ran = all_ran && decision == 1;
    if (all_ran) {
      for (const auto& [step, err] : wave.measured_error) {
        EXPECT_EQ(err, 0.0) << step << " at wave " << wave.wave;
      }
    }
  }
}

TEST_P(ExperimentInvariants, PredictedErrorNonNegativeAndResets) {
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  params.seed = 200 + GetParam();
  const workloads::AqhiWorkload workload(params);

  core::ExperimentOptions opts;
  opts.training_waves = 50;
  opts.eval_waves = 60;
  core::Experiment ex(workload.make_workflow(), opts);
  const auto res = ex.run_smartflux();

  for (const auto& wave : res.waves) {
    for (const auto& [step, predicted] : wave.predicted_error) {
      EXPECT_GE(predicted, 0.0);
      if (wave.decision.at(step) == 1) { EXPECT_EQ(predicted, 0.0); }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentInvariants, ::testing::Values(1, 2, 3));

/// Eq. 1 written the way a user writes a custom metric (§4.2): the
/// update/compute API, with no help from the built-in classes.
class HandWrittenEq1 final : public core::ChangeMetric {
 public:
  void reset() noexcept override {
    sum_abs_diff_ = 0.0;
    modified_ = 0;
  }
  void update(double current, double previous) noexcept override {
    sum_abs_diff_ += std::abs(current - previous);
    ++modified_;
  }
  double compute(std::size_t, double) const noexcept override {
    return sum_abs_diff_ * static_cast<double>(modified_);
  }
  std::unique_ptr<ChangeMetric> clone() const override {
    return std::make_unique<HandWrittenEq1>(*this);
  }
  std::string name() const override { return "HandWrittenEq1"; }

 private:
  double sum_abs_diff_ = 0.0;
  std::size_t modified_ = 0;
};

std::unique_ptr<core::ChangeMetric> make_hand_written_eq1() {
  return std::make_unique<HandWrittenEq1>();
}

TEST(CustomMetricIntegration, CustomEq1BehavesLikeBuiltIn) {
  // A StepMonitor configured with a user-written Eq. 1 must produce the same
  // impacts as the built-in MagnitudeCountImpact over an arbitrary update
  // stream.
  wms::StepSpec step;
  step.id = "s";
  step.fn = [](wms::StepContext&) {};
  step.inputs = {ds::ContainerRef::whole_table("in")};
  step.outputs = {ds::ContainerRef::whole_table("out")};
  step.max_error = 0.1;

  core::StepMonitor::Options builtin_opts;  // Eq. 1 default
  core::StepMonitor::Options custom_opts;
  custom_opts.custom_impact = make_hand_written_eq1;

  ds::DataStore store;
  core::StepMonitor builtin(step, builtin_opts);
  core::StepMonitor custom(step, custom_opts);

  Rng rng(5);
  ds::Timestamp ts = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int k = 0; k < 5; ++k) {
      store.put("in", test::key("r", rng.uniform_index(8)), "c", ++ts,
                rng.uniform(0, 50));
    }
    ASSERT_NEAR(builtin.observe_inputs(store), custom.observe_inputs(store), 1e-9);
  }
}

TEST(CustomMetricIntegration, ExperimentRunsWithCustomMetrics) {
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  const workloads::AqhiWorkload workload(params);

  core::ExperimentOptions opts;
  opts.training_waves = 50;
  opts.eval_waves = 50;
  opts.smartflux.monitor.custom_impact = make_hand_written_eq1;
  opts.smartflux.monitor.custom_error = [] {
    return core::make_error_metric(core::ErrorKind::kRelative);
  };
  core::Experiment ex(workload.make_workflow(), opts);
  const auto res = ex.run_smartflux();
  EXPECT_EQ(res.waves.size(), 50u);
  EXPECT_GT(res.savings_ratio(), 0.0);
}

}  // namespace
}  // namespace smartflux
